#include "sccpipe/render/renderer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "sccpipe/support/check.hpp"

namespace sccpipe {

Renderer::Renderer(const Mesh& mesh, const Octree& octree, CameraConfig camera,
                   int frame_width, int frame_height, LightingConfig lighting)
    : mesh_(mesh),
      octree_(octree),
      camera_(camera),
      width_(frame_width),
      height_(frame_height),
      lighting_(lighting),
      light_dir_(normalize(lighting.direction)) {
  SCCPIPE_CHECK(frame_width > 0 && frame_height > 0);
  SCCPIPE_CHECK(octree.built());
}

Color Renderer::shade(const Triangle& t) const {
  if (!lighting_.enabled) return t.color;
  // Two-sided flat Lambert: CAD geometry is not consistently wound.
  const Vec3 n = normalize(cross(t.v1 - t.v0, t.v2 - t.v0));
  const float lambert = std::fabs(dot(n, light_dir_));
  const float f = clamp01(lighting_.ambient + (1.0f - lighting_.ambient) * lambert);
  auto scale = [f](std::uint8_t c) {
    return static_cast<std::uint8_t>(std::lround(static_cast<float>(c) * f));
  };
  return Color{scale(t.color.r), scale(t.color.g), scale(t.color.b),
               t.color.a};
}

Image Renderer::render_strip(const Mat4& view, StripRange strip,
                             RenderStats* stats) const {
  // Cull with the strip-adjusted frustum (the sort-first "adjust the
  // viewing frustum" step of §V)...
  const Mat4 strip_vp = strip_projection(camera_, width_, height_, strip) * view;
  const Frustum frustum(strip_vp);

  std::vector<std::uint32_t> visible;
  octree_.cull(frustum, visible, stats ? &stats->cull : nullptr);

  // ...but rasterise in full-frame screen coordinates with a row window,
  // so strips assemble into exactly the whole-frame image.
  const Mat4 full_vp =
      strip_projection(camera_, width_, height_, StripRange{0, height_}) *
      view;
  const Viewport vp{width_, height_, strip.y0};
  Framebuffer fb(width_, strip.rows);
  fb.clear();
  const auto& tris = mesh_.triangles();
  for (const std::uint32_t ti : visible) {
    const Triangle& t = tris[ti];
    if (stats) ++stats->triangles_transformed;
    draw_triangle_clip(fb, vp, full_vp * Vec4{t.v0, 1.0f},
                       full_vp * Vec4{t.v1, 1.0f}, full_vp * Vec4{t.v2, 1.0f},
                       shade(t), stats ? &stats->raster : nullptr);
  }
  return std::move(fb.color());
}

Image Renderer::render(const Mat4& view, RenderStats* stats) const {
  return render_strip(view, StripRange{0, height_}, stats);
}

namespace {

/// Row \p r of \p m: the coefficients of clip coordinate r.
Vec4 clip_row(const Mat4& m, int r) {
  return Vec4{m.m[0][r], m.m[1][r], m.m[2][r], m.m[3][r]};
}

/// Clip coordinate of the point \p p (w = 1) through one matrix row, with
/// the products and summation order of Mat4 * Vec4: bit-equal to that
/// component of the full transform.
float clip_coord(Vec4 row, Vec3 p) {
  return row.x * p.x + row.y * p.y + row.z * p.z + row.w;
}

bool bit_equal(Vec4 a, Vec4 b) {
  using Bits = std::array<std::uint32_t, 4>;
  return std::bit_cast<Bits>(a) == std::bit_cast<Bits>(b);
}

/// One strip's share of an estimate pass.
struct StripPass {
  Vec4 y_row;  ///< row 1 of the strip's view-projection
  float rows = 0.0f;
  double strip_pixels = 0.0;
  double area = 0.0;
  std::uint64_t clipped_away = 0;
};

}  // namespace

void Renderer::estimate_strips(const Mat4& view,
                               std::span<const StripRange> strips,
                               std::span<RenderStats> out) const {
  SCCPIPE_CHECK(out.size() == strips.size());
  if (strips.empty()) return;
  // strip_projection() adjusts only the y row, so clip x and w are the
  // same floats for every strip of the view: one transform serves them all.
  const Mat4 first_vp =
      strip_projection(camera_, width_, height_, strips[0]) * view;
  const Vec4 x_row = clip_row(first_vp, 0);
  const Vec4 w_row = clip_row(first_vp, 3);
  const float width = static_cast<float>(width_);
  const auto& tris = mesh_.triangles();

  std::vector<Frustum> frusta;
  std::vector<StripPass> pass;
  std::vector<CullStats> cull;
  // Called per accepted node in pre-order, so each strip sums its
  // triangles' areas in the order a cull of its own visits them.
  const Octree::MultiVisit estimate_node =
      [&](std::span<const std::uint32_t> node_tris, std::uint64_t mask) {
    for (const std::uint32_t ti : node_tris) {
      const Triangle& t = tris[ti];
      const Vec3 v[3] = {t.v0, t.v1, t.v2};
      float w[3];
      for (int c = 0; c < 3; ++c) w[c] = clip_coord(w_row, v[c]);
      if (w[0] <= 1e-4f && w[1] <= 1e-4f && w[2] <= 1e-4f) {
        for (std::uint64_t m = mask; m != 0; m &= m - 1) {
          ++pass[static_cast<std::size_t>(std::countr_zero(m))].clipped_away;
        }
        continue;
      }
      // Screen-space area of the projection (vertices behind the eye are
      // clamped to a small positive w — good enough for a workload count).
      float x[3];
      for (int c = 0; c < 3; ++c) {
        w[c] = std::max(w[c], 1e-2f);
        x[c] = (clip_coord(x_row, v[c]) / w[c] * 0.5f + 0.5f) * width;
      }
      for (std::uint64_t m = mask; m != 0; m &= m - 1) {
        StripPass& p = pass[static_cast<std::size_t>(std::countr_zero(m))];
        float y[3];
        for (int c = 0; c < 3; ++c) {
          y[c] = (0.5f - clip_coord(p.y_row, v[c]) / w[c] * 0.5f) * p.rows;
        }
        const double tri_area = 0.5 * std::fabs(static_cast<double>(
                                          (x[1] - x[0]) * (y[2] - y[0]) -
                                          (y[1] - y[0]) * (x[2] - x[0])));
        // A triangle cannot cover more than the strip.
        p.area += std::min(tri_area, p.strip_pixels);
      }
    }
  };
  for (std::size_t first = 0; first < strips.size();
       first += Octree::kMaxMultiFrusta) {
    const std::size_t n =
        std::min(Octree::kMaxMultiFrusta, strips.size() - first);
    frusta.clear();
    pass.clear();
    for (std::size_t i = first; i < first + n; ++i) {
      const StripRange strip = strips[i];
      const Mat4 vp = strip_projection(camera_, width_, height_, strip) * view;
      SCCPIPE_CHECK_MSG(bit_equal(clip_row(vp, 0), x_row) &&
                            bit_equal(clip_row(vp, 3), w_row),
                        "strip at row " << strip.y0
                                        << " changes the clip x or w row");
      frusta.emplace_back(vp);
      pass.push_back(StripPass{clip_row(vp, 1), static_cast<float>(strip.rows),
                               static_cast<double>(width_) *
                                   static_cast<double>(strip.rows)});
    }
    cull.resize(n);
    octree_.cull_multi(frusta, estimate_node, cull);

    for (std::size_t i = 0; i < n; ++i) {
      RenderStats& st = out[first + i];
      st = RenderStats{};
      st.cull = cull[i];
      // Every accepted triangle is transformed and submitted once.
      st.triangles_transformed = cull[i].tris_accepted;
      st.raster.triangles_submitted = cull[i].tris_accepted;
      st.raster.triangles_clipped_away = pass[i].clipped_away;
      // Overdraw discounted: roughly half of drawn area survives the
      // z-test in depth-complex city scenes, and total coverage is bounded
      // by the strip.
      st.projected_pixels =
          std::min(pass[i].area, 2.5 * pass[i].strip_pixels);
    }
  }
}

RenderStats Renderer::estimate_strip(const Mat4& view,
                                     StripRange strip) const {
  RenderStats stats;
  estimate_strips(view, std::span<const StripRange>(&strip, 1),
                  std::span<RenderStats>(&stats, 1));
  return stats;
}

}  // namespace sccpipe
