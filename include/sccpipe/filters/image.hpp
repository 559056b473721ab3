#pragma once

/// \file image.hpp
/// RGBA8 frame buffer image — four bytes per pixel exactly as the paper's
/// render stage allocates (§IV, "four bytes per pixel"), with the
/// horizontal-strip views the sort-first parallelisation slices frames
/// into.

#include <cstdint>
#include <string>
#include <vector>

#include "sccpipe/support/check.hpp"

namespace sccpipe {

struct Color {
  std::uint8_t r = 0, g = 0, b = 0, a = 255;
  friend bool operator==(Color, Color) = default;
};

/// Half-open row range [y0, y0+rows) — one pipeline's strip of the frame.
struct StripRange {
  int y0 = 0;
  int rows = 0;
  friend bool operator==(StripRange, StripRange) = default;
};

/// Split \p height rows into \p k strips whose sizes differ by at most one
/// (earlier strips take the remainder). Matches the renderer's division of
/// the image "into as many strips as pipelines available".
std::vector<StripRange> divide_rows(int height, int k);

/// Split \p height rows into weights.size() strips whose sizes are
/// proportional to \p weights (largest-remainder apportionment, ties broken
/// toward lower index, every strip at least one row). Equal weights
/// reproduce divide_rows() exactly, so a never-rebalanced run that routes
/// through this function stays bit-identical to the unweighted path. Used
/// by the gray-failure rebalance rung: a straggling pipeline's weight is
/// lowered so later frames hand it a thinner strip.
std::vector<StripRange> divide_rows_weighted(int height,
                                             const std::vector<double>& weights);

class Image {
 public:
  Image() = default;
  Image(int width, int height, Color fill = Color{0, 0, 0, 255});

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return width_ == 0 || height_ == 0; }
  std::size_t byte_size() const { return data_.size(); }

  std::uint8_t* data() { return data_.data(); }
  const std::uint8_t* data() const { return data_.data(); }

  /// First byte of row \p y — 4 * width() contiguous RGBA bytes. The hot
  /// per-pixel loops walk these raw rows; bounds are debug-checked only so
  /// the release kernels stay branch-free and vectorizable.
  std::uint8_t* row(int y) {
    SCCPIPE_DCHECK(y >= 0 && y < height_);
    return data_.data() + static_cast<std::size_t>(y) * row_bytes();
  }
  const std::uint8_t* row(int y) const {
    SCCPIPE_DCHECK(y >= 0 && y < height_);
    return data_.data() + static_cast<std::size_t>(y) * row_bytes();
  }
  std::size_t row_bytes() const {
    return static_cast<std::size_t>(width_) * 4;
  }

  Color get(int x, int y) const;
  void set(int x, int y, Color c);

  /// Copy of the rows [r.y0, r.y0 + r.rows).
  Image strip(StripRange r) const;
  /// Write \p src back at row \p y0 (widths must match).
  void paste(const Image& src, int y0);

  friend bool operator==(const Image&, const Image&) = default;

  /// Binary PPM (P6) encoding, alpha dropped.
  std::string to_ppm() const;
  /// Write to a file; throws CheckError on I/O failure.
  void write_ppm(const std::string& path) const;

 private:
  std::size_t index(int x, int y) const;

  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint8_t> data_;
};

}  // namespace sccpipe
