#include "sccpipe/render/rasterizer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "lanes.hpp"
#include "pixel_bound.hpp"
#include "sccpipe/support/check.hpp"

namespace sccpipe {

Framebuffer::Framebuffer(int width, int height)
    : color_(width, height, kClearColor),
      depth_(static_cast<std::size_t>(width) * static_cast<std::size_t>(height),
             1.0f) {}

void Framebuffer::clear(Color c, float depth) {
  color_ = Image(color_.width(), color_.height(), c);
  std::fill(depth_.begin(), depth_.end(), depth);
}

float Framebuffer::depth(int x, int y) const {
  return depth_[static_cast<std::size_t>(y) *
                    static_cast<std::size_t>(color_.width()) +
                static_cast<std::size_t>(x)];
}

void Framebuffer::set_pixel(int x, int y, float z, Color c) {
  depth_[static_cast<std::size_t>(y) * static_cast<std::size_t>(color_.width()) +
         static_cast<std::size_t>(x)] = z;
  color_.set(x, y, c);
}

namespace {

using lanes::F4;
using lanes::I4;
using lanes::select;

/// Viewport coordinates plus NDC depth.
struct ScreenVertex {
  float x = 0.0f, y = 0.0f, z = 0.0f;
};

/// One near-clipped, projected, counter-clockwise triangle.
struct ScreenTriangle {
  ScreenVertex v0, v1, v2;
  float inv_area = 0.0f;
  Color color;
  /// Pixel bounding box in virtual-viewport coordinates, not yet clamped
  /// to any framebuffer.
  int min_x = 0, max_x = 0, min_y = 0, max_y = 0;
};

float edge(const ScreenVertex& a, const ScreenVertex& b,
           const ScreenVertex& c) {
  return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
}

/// Orients and bounds one projected triangle; false when it has no area.
bool setup_screen_triangle(ScreenVertex v0, ScreenVertex v1, ScreenVertex v2,
                           Color col, ScreenTriangle& out) {
  // Ensure counter-clockwise orientation for a positive area (no face
  // culling: CAD models are not consistently wound).
  float area = edge(v0, v1, v2);
  if (area == 0.0f) return false;
  if (area < 0.0f) {
    std::swap(v1, v2);
    area = -area;
  }
  out.v0 = v0;
  out.v1 = v1;
  out.v2 = v2;
  out.inv_area = 1.0f / area;
  out.color = col;
  out.min_x = pixel_bound(std::floor(std::min({v0.x, v1.x, v2.x})));
  out.max_x = pixel_bound(std::ceil(std::max({v0.x, v1.x, v2.x})));
  out.min_y = pixel_bound(std::floor(std::min({v0.y, v1.y, v2.y})));
  out.max_y = pixel_bound(std::ceil(std::max({v0.y, v1.y, v2.y})));
  return true;
}

ScreenVertex to_screen(Vec4 clip, const Viewport& vp) {
  const float inv_w = 1.0f / clip.w;
  const float ndc_x = clip.x * inv_w;
  const float ndc_y = clip.y * inv_w;
  const float ndc_z = clip.z * inv_w;
  return ScreenVertex{
      (ndc_x * 0.5f + 0.5f) * static_cast<float>(vp.width),
      // NDC +y is up; virtual row 0 is the top of the full frame.
      (0.5f - ndc_y * 0.5f) * static_cast<float>(vp.height), ndc_z};
}

/// Clips against the near plane, projects onto \p vp and orients. Writes
/// 0..2 screen triangles to \p out (none when clipped away or degenerate)
/// and returns how many. Counts triangles_submitted and
/// triangles_clipped_away.
int setup_triangle_clip(const Viewport& vp, Vec4 c0, Vec4 c1, Vec4 c2,
                        Color col, ScreenTriangle out[2],
                        RasterStats* stats) {
  if (stats) ++stats->triangles_submitted;

  // Clip against the near plane w > epsilon (points behind the eye cannot
  // be projected). Sutherland–Hodgman on the single plane w = kNearW.
  constexpr float kNearW = 1e-4f;
  Vec4 in[3] = {c0, c1, c2};
  Vec4 clipped[4];
  int clipped_n = 0;
  for (int i = 0; i < 3; ++i) {
    const Vec4 a = in[i];
    const Vec4 b = in[(i + 1) % 3];
    const bool a_in = a.w > kNearW;
    const bool b_in = b.w > kNearW;
    if (a_in) clipped[clipped_n++] = a;
    if (a_in != b_in) {
      const float t = (kNearW - a.w) / (b.w - a.w);
      clipped[clipped_n++] = lerp(a, b, t);
    }
  }
  if (clipped_n < 3) {
    if (stats) ++stats->triangles_clipped_away;
    return 0;
  }

  int n = 0;
  const ScreenVertex s0 = to_screen(clipped[0], vp);
  for (int i = 1; i + 1 < clipped_n; ++i) {
    if (setup_screen_triangle(s0, to_screen(clipped[i], vp),
                              to_screen(clipped[i + 1], vp), col, out[n])) {
      ++n;
    }
  }
  return n;
}

/// Fills the part of \p t that lies in the framebuffer's rows, i.e.
/// virtual rows [vp.y_offset, vp.y_offset + fb.height()). Counts
/// pixels_tested (the whole clamped bounding box) and pixels_filled.
void raster_triangle(Framebuffer& fb, const Viewport& vp,
                     const ScreenTriangle& t, RasterStats* stats) {
  // Pixel coordinates run over the *virtual* viewport.
  const int min_x = std::max(0, t.min_x);
  const int max_x = std::min(fb.width() - 1, t.max_x);
  const int min_y = std::max(vp.y_offset, t.min_y);
  const int max_y = std::min(vp.y_offset + fb.height() - 1, t.max_y);
  if (min_x > max_x || min_y > max_y) return;

  // Locals, not loads through \p t: the pixel stores below could otherwise
  // alias the triangle and force reloads in the inner loop.
  const ScreenVertex v0 = t.v0, v1 = t.v1, v2 = t.v2;
  const float inv_area = t.inv_area;
  const Color col = t.color;
  // Incremental edge evaluation: each edge function
  //   edge(a, b, p) = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
  // splits into a row-invariant first product (hoisted out of the x loop)
  // minus a per-pixel second product; the factors and the final subtraction
  // are the exact operations the per-pixel edge() calls performed, so every
  // coverage/z decision is bit-identical. True forward-differencing
  // (w += step) would drift and is deliberately avoided.
  const float e0dx = v2.x - v1.x, e0dy = v2.y - v1.y;
  const float e1dx = v0.x - v2.x, e1dy = v0.y - v2.y;
  const float e2dx = v1.x - v0.x, e2dy = v1.y - v0.y;
  // One RGBA pixel as one 32-bit lane, bytes in memory order.
  const I4 rgba = I4{} + std::bit_cast<std::int32_t>(col);
  const I4 lane_offset{0, 1, 2, 3};
  I4 filled_lanes{};
  std::uint64_t filled = 0;
  Image& color = fb.color();
  for (int y = min_y; y <= max_y; ++y) {
    const float py = static_cast<float>(y) + 0.5f;
    const float t0 = e0dx * (py - v1.y);
    const float t1 = e1dx * (py - v2.y);
    const float t2 = e2dx * (py - v0.y);
    const int row = y - vp.y_offset;
    float* drow = fb.depth_row(row);
    std::uint8_t* crow = color.row(row);
    int x = min_x;
    // Four pixels at a time. Each lane does the scalar tail's operations
    // in the same order, and the masks are the negated reject tests, not
    // the accept tests, so a NaN edge value or depth takes the scalar
    // path's branch too. Rejected lanes store back what they loaded.
    for (; x <= max_x - 3; x += 4) {
      const F4 px =
          __builtin_convertvector(I4{} + x + lane_offset, F4) + 0.5f;
      const F4 w0 = t0 - e0dy * (px - v1.x);
      const F4 w1 = t1 - e1dy * (px - v2.x);
      const F4 w2 = t2 - e2dy * (px - v0.x);
      const I4 covered = ~((w0 < 0.0f) | (w1 < 0.0f) | (w2 < 0.0f));
      const F4 z = (w0 * v0.z + w1 * v1.z + w2 * v2.z) * inv_area;
      F4 depth;
      std::memcpy(&depth, drow + x, sizeof depth);
      const I4 write = covered & ~((z < -1.0f) | (z > 1.0f) | (z >= depth));
      depth = select(write, z, depth);
      std::memcpy(drow + x, &depth, sizeof depth);
      std::uint8_t* p = crow + static_cast<std::size_t>(x) * 4;
      I4 pixels;
      std::memcpy(&pixels, p, sizeof pixels);
      pixels = select(write, rgba, pixels);
      std::memcpy(p, &pixels, sizeof pixels);
      filled_lanes -= write;
    }
    for (; x <= max_x; ++x) {
      const float px = static_cast<float>(x) + 0.5f;
      const float w0 = t0 - e0dy * (px - v1.x);
      const float w1 = t1 - e1dy * (px - v2.x);
      const float w2 = t2 - e2dy * (px - v0.x);
      if (w0 < 0.0f || w1 < 0.0f || w2 < 0.0f) continue;
      const float z = (w0 * v0.z + w1 * v1.z + w2 * v2.z) * inv_area;
      if (z < -1.0f || z > 1.0f) continue;
      if (z >= drow[x]) continue;
      drow[x] = z;
      std::uint8_t* p = crow + static_cast<std::size_t>(x) * 4;
      p[0] = col.r;
      p[1] = col.g;
      p[2] = col.b;
      p[3] = col.a;
      ++filled;
    }
  }
  if (stats) {
    stats->pixels_tested += static_cast<std::uint64_t>(max_x - min_x + 1) *
                            static_cast<std::uint64_t>(max_y - min_y + 1);
    stats->pixels_filled +=
        filled + static_cast<std::uint64_t>(filled_lanes[0]) +
        static_cast<std::uint64_t>(filled_lanes[1]) +
        static_cast<std::uint64_t>(filled_lanes[2]) +
        static_cast<std::uint64_t>(filled_lanes[3]);
  }
}

}  // namespace

Viewport Viewport::full(const Framebuffer& fb) {
  return Viewport{fb.width(), fb.height(), 0};
}

void draw_triangle_clip(Framebuffer& fb, const Viewport& vp, Vec4 c0, Vec4 c1,
                        Vec4 c2, Color col, RasterStats* stats) {
  ScreenTriangle tris[2];
  const int n = setup_triangle_clip(vp, c0, c1, c2, col, tris, stats);
  for (int i = 0; i < n; ++i) raster_triangle(fb, vp, tris[i], stats);
}

}  // namespace sccpipe
