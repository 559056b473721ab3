#pragma once

/// \file rasterizer.hpp
/// Software triangle rasterizer: clip-space input, near-plane clipping,
/// perspective divide, top-left-filled barycentric raster with a z-buffer.
/// Stands in for the os-mesa renderer of the paper's setup.

#include <cstdint>
#include <vector>

#include "sccpipe/filters/image.hpp"
#include "sccpipe/geom/vec.hpp"

namespace sccpipe {

/// Color + depth target.
class Framebuffer {
 public:
  static constexpr Color kClearColor{16, 18, 24, 255};

  /// A buffer already cleared to kClearColor and depth 1, as clear()
  /// leaves it: construction is a new buffer's only fill.
  Framebuffer(int width, int height);

  /// Re-clears a reused buffer.
  void clear(Color c = kClearColor, float depth = 1.0f);

  int width() const { return color_.width(); }
  int height() const { return color_.height(); }
  Image& color() { return color_; }
  const Image& color() const { return color_; }
  float depth(int x, int y) const;
  void set_pixel(int x, int y, float z, Color c);

  /// Raw z-buffer row — the raster inner loop's depth test path (bounds are
  /// debug-checked only, like Image::row).
  float* depth_row(int y) {
    SCCPIPE_DCHECK(y >= 0 && y < height());
    return depth_.data() +
           static_cast<std::size_t>(y) * static_cast<std::size_t>(width());
  }
  const float* depth_row(int y) const {
    SCCPIPE_DCHECK(y >= 0 && y < height());
    return depth_.data() +
           static_cast<std::size_t>(y) * static_cast<std::size_t>(width());
  }

 private:
  Image color_;
  std::vector<float> depth_;
};

struct RasterStats {
  std::uint64_t triangles_submitted = 0;
  std::uint64_t triangles_clipped_away = 0;
  std::uint64_t pixels_filled = 0;
  std::uint64_t pixels_tested = 0;
};

/// Maps NDC onto a (possibly larger) virtual viewport and writes a row
/// window of it into the frame buffer. Sort-first strip rendering uses the
/// *full-frame* viewport with a row offset, so every strip rasterises the
/// same screen-space triangles bit-for-bit as a whole-frame pass —
/// assembling the strips reproduces the full frame exactly.
struct Viewport {
  int width = 0;
  int height = 0;    ///< full virtual viewport height
  int y_offset = 0;  ///< first virtual row written to the framebuffer

  static Viewport full(const Framebuffer& fb);
};

/// Draw one triangle given in clip space (pre-multiplied by
/// projection * view * model). Near-plane clipping may emit up to two
/// screen triangles.
void draw_triangle_clip(Framebuffer& fb, const Viewport& vp, Vec4 c0, Vec4 c1,
                        Vec4 c2, Color col, RasterStats* stats = nullptr);

}  // namespace sccpipe
