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
  Framebuffer(int width, int height);

  void clear(Color c = Color{16, 18, 24, 255}, float depth = 1.0f);

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

/// Viewport coordinates plus NDC depth.
struct ScreenVertex {
  float x = 0.0f, y = 0.0f, z = 0.0f;
};

/// One near-clipped, projected, counter-clockwise triangle: the part of
/// draw_triangle_clip that does not depend on which rows get rasterised.
struct ScreenTriangle {
  ScreenVertex v0, v1, v2;
  float inv_area = 0.0f;
  Color color;
  /// Pixel bounding box in virtual-viewport coordinates, not yet clamped
  /// to any framebuffer.
  int min_x = 0, max_x = 0, min_y = 0, max_y = 0;
};

/// Setup half of draw_triangle_clip: clip against the near plane, project
/// onto \p vp and orient. Writes 0..2 screen triangles to \p out (none when
/// clipped away or degenerate) and returns how many. Counts
/// triangles_submitted and triangles_clipped_away.
int setup_triangle_clip(const Viewport& vp, Vec4 c0, Vec4 c1, Vec4 c2,
                        Color col, ScreenTriangle out[2],
                        RasterStats* stats = nullptr);

/// Raster half: fill the part of \p t that lies in framebuffer rows
/// [row_begin, row_end), i.e. virtual rows vp.y_offset + row. Counts
/// pixels_tested and pixels_filled. Disjoint row windows touch disjoint
/// pixels, and a pixel's coverage and depth never depend on the window, so
/// any split of the rows reproduces the single whole-framebuffer pass bit
/// for bit.
void raster_triangle_rows(Framebuffer& fb, const Viewport& vp,
                          const ScreenTriangle& t, int row_begin, int row_end,
                          RasterStats* stats = nullptr);

/// Draw one triangle given in clip space (pre-multiplied by
/// projection * view * model): setup_triangle_clip, then
/// raster_triangle_rows over the whole framebuffer. Near-plane clipping may
/// emit up to two screen triangles.
void draw_triangle_clip(Framebuffer& fb, const Viewport& vp, Vec4 c0, Vec4 c1,
                        Vec4 c2, Color col, RasterStats* stats = nullptr);

}  // namespace sccpipe
