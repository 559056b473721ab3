#include "sccpipe/render/reference.hpp"

#include <algorithm>
#include <cmath>

#include "pixel_bound.hpp"
#include "sccpipe/support/check.hpp"

namespace sccpipe::reference {

namespace {

struct ScreenVertex {
  float x, y, z;  // viewport coordinates + NDC depth
};

float edge(const ScreenVertex& a, const ScreenVertex& b,
           const ScreenVertex& c) {
  return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
}

void raster_screen_triangle(Framebuffer& fb, const Viewport& vp,
                            ScreenVertex v0, ScreenVertex v1, ScreenVertex v2,
                            Color col, RasterStats* stats) {
  float area = edge(v0, v1, v2);
  if (area == 0.0f) return;
  if (area < 0.0f) {
    std::swap(v1, v2);
    area = -area;
  }

  const int w = fb.width();
  const int min_x =
      std::max(0, pixel_bound(std::floor(std::min({v0.x, v1.x, v2.x}))));
  const int max_x =
      std::min(w - 1, pixel_bound(std::ceil(std::max({v0.x, v1.x, v2.x}))));
  const int min_y = std::max(
      vp.y_offset, pixel_bound(std::floor(std::min({v0.y, v1.y, v2.y}))));
  const int max_y =
      std::min(vp.y_offset + fb.height() - 1,
               pixel_bound(std::ceil(std::max({v0.y, v1.y, v2.y}))));
  if (min_x > max_x || min_y > max_y) return;

  const float inv_area = 1.0f / area;
  for (int y = min_y; y <= max_y; ++y) {
    for (int x = min_x; x <= max_x; ++x) {
      const ScreenVertex p{static_cast<float>(x) + 0.5f,
                           static_cast<float>(y) + 0.5f, 0.0f};
      const float w0 = edge(v1, v2, p);
      const float w1 = edge(v2, v0, p);
      const float w2 = edge(v0, v1, p);
      if (stats) ++stats->pixels_tested;
      if (w0 < 0.0f || w1 < 0.0f || w2 < 0.0f) continue;
      const float z = (w0 * v0.z + w1 * v1.z + w2 * v2.z) * inv_area;
      if (z < -1.0f || z > 1.0f) continue;
      const int row = y - vp.y_offset;
      if (z >= fb.depth(x, row)) continue;
      fb.set_pixel(x, row, z, col);
      if (stats) ++stats->pixels_filled;
    }
  }
}

ScreenVertex to_screen(Vec4 clip, const Viewport& vp) {
  const float inv_w = 1.0f / clip.w;
  const float ndc_x = clip.x * inv_w;
  const float ndc_y = clip.y * inv_w;
  const float ndc_z = clip.z * inv_w;
  return ScreenVertex{
      (ndc_x * 0.5f + 0.5f) * static_cast<float>(vp.width),
      (0.5f - ndc_y * 0.5f) * static_cast<float>(vp.height), ndc_z};
}

}  // namespace

void draw_triangle_clip(Framebuffer& fb, const Viewport& vp, Vec4 c0, Vec4 c1,
                        Vec4 c2, Color col, RasterStats* stats) {
  if (stats) ++stats->triangles_submitted;

  constexpr float kNearW = 1e-4f;
  Vec4 in[3] = {c0, c1, c2};
  Vec4 out[4];
  int out_n = 0;
  for (int i = 0; i < 3; ++i) {
    const Vec4 a = in[i];
    const Vec4 b = in[(i + 1) % 3];
    const bool a_in = a.w > kNearW;
    const bool b_in = b.w > kNearW;
    if (a_in) out[out_n++] = a;
    if (a_in != b_in) {
      const float t = (kNearW - a.w) / (b.w - a.w);
      out[out_n++] = lerp(a, b, t);
    }
  }
  if (out_n < 3) {
    if (stats) ++stats->triangles_clipped_away;
    return;
  }

  const ScreenVertex s0 = to_screen(out[0], vp);
  for (int i = 1; i + 1 < out_n; ++i) {
    raster_screen_triangle(fb, vp, s0, to_screen(out[i], vp),
                           to_screen(out[i + 1], vp), col, stats);
  }
}

Color shade(const Triangle& t, const LightingConfig& lighting) {
  if (!lighting.enabled) return t.color;
  // Two-sided flat Lambert: CAD geometry is not consistently wound.
  const Vec3 n = normalize(cross(t.v1 - t.v0, t.v2 - t.v0));
  const float lambert = std::fabs(dot(n, normalize(lighting.direction)));
  const float f =
      clamp01(lighting.ambient + (1.0f - lighting.ambient) * lambert);
  auto scale = [f](std::uint8_t c) {
    return static_cast<std::uint8_t>(std::lround(static_cast<float>(c) * f));
  };
  return Color{scale(t.color.r), scale(t.color.g), scale(t.color.b),
               t.color.a};
}

RenderStats estimate_strip(const Renderer& renderer, const Mat4& view,
                           StripRange strip) {
  const int width = renderer.frame_width();
  const int height = renderer.frame_height();
  RenderStats stats;
  const Mat4 proj = strip_projection(renderer.camera(), width, height, strip);
  const Mat4 vp = proj * view;
  const Frustum frustum(vp);

  std::vector<std::uint32_t> visible;
  renderer.octree().cull(frustum, visible, &stats.cull);

  const double strip_pixels =
      static_cast<double>(width) * static_cast<double>(strip.rows);
  const auto& tris = renderer.mesh().triangles();
  double area = 0.0;
  for (const std::uint32_t ti : visible) {
    const Triangle& t = tris[ti];
    const Vec4 c0 = vp * Vec4{t.v0, 1.0f};
    const Vec4 c1 = vp * Vec4{t.v1, 1.0f};
    const Vec4 c2 = vp * Vec4{t.v2, 1.0f};
    ++stats.triangles_transformed;
    ++stats.raster.triangles_submitted;
    if (c0.w <= 1e-4f && c1.w <= 1e-4f && c2.w <= 1e-4f) {
      ++stats.raster.triangles_clipped_away;
      continue;
    }
    // Screen-space area of the projection (vertices behind the eye are
    // clamped to a small positive w — good enough for a workload count).
    auto sx = [&](Vec4 c) {
      const float w = std::max(c.w, 1e-2f);
      return Vec2{(c.x / w * 0.5f + 0.5f) * static_cast<float>(width),
                  (0.5f - c.y / w * 0.5f) * static_cast<float>(strip.rows)};
    };
    const Vec2 p0 = sx(c0), p1 = sx(c1), p2 = sx(c2);
    const double tri_area = 0.5 * std::fabs(
        static_cast<double>((p1.x - p0.x) * (p2.y - p0.y) -
                            (p1.y - p0.y) * (p2.x - p0.x)));
    // A triangle cannot cover more than the strip.
    area += std::min(tri_area, strip_pixels);
  }
  // Overdraw discounted: roughly half of drawn area survives the z-test in
  // depth-complex city scenes, and total coverage is bounded by the strip.
  stats.projected_pixels = std::min(area, 2.5 * strip_pixels);
  return stats;
}

}  // namespace sccpipe::reference
