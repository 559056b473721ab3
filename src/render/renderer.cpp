#include "sccpipe/render/renderer.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "sccpipe/support/check.hpp"
#include "sccpipe/support/parallel.hpp"

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
  // so strips assemble into exactly the whole-frame image. Each triangle is
  // transformed, near-clipped and projected once, in draw order...
  const Mat4 full_vp =
      strip_projection(camera_, width_, height_, StripRange{0, height_}) *
      view;
  const Viewport vp{width_, height_, strip.y0};
  // Shared: a band's losing run may outlive this call (see below).
  const auto screen = std::make_shared<std::vector<ScreenTriangle>>();
  screen->reserve(visible.size());
  const auto& tris = mesh_.triangles();
  for (const std::uint32_t ti : visible) {
    const Triangle& t = tris[ti];
    const Vec4 c0 = full_vp * Vec4{t.v0, 1.0f};
    const Vec4 c1 = full_vp * Vec4{t.v1, 1.0f};
    const Vec4 c2 = full_vp * Vec4{t.v2, 1.0f};
    if (stats) ++stats->triangles_transformed;
    ScreenTriangle fan[2];
    const int n = setup_triangle_clip(vp, c0, c1, c2, shade(t), fan,
                                      stats ? &stats->raster : nullptr);
    screen->insert(screen->end(), fan, fan + n);
  }

  // ...then fixed row bands rasterise the list concurrently, each into a
  // framebuffer of its own rows that the winning run copies out. Every
  // pixel sees the same triangles in the same order as one whole-strip
  // pass, so the strip is bit-identical whatever the thread count.
  Image out(width_, strip.rows);
  std::vector<RasterStats> band_stats(band_count(strip.rows));
  for_each_row_band_replicated(
      strip.rows, [screen, vp, dst = &out, slots = band_stats.data()](
                      int row_begin, int row_end, BandCommit& commit) {
        Framebuffer fb(vp.width, row_end - row_begin);
        fb.clear();
        const Viewport band_vp{vp.width, vp.height, vp.y_offset + row_begin};
        const int first = band_vp.y_offset;
        const int last = band_vp.y_offset + fb.height() - 1;
        RasterStats band;
        std::size_t drawn = 0;
        for (const ScreenTriangle& t : *screen) {
          if (t.max_y < first || t.min_y > last) continue;
          raster_triangle_rows(fb, band_vp, t, 0, fb.height(), &band);
          if (++drawn % 256 == 0 && commit.taken()) return;
        }
        if (!commit.commit()) return;
        std::copy_n(fb.color().data(), fb.color().byte_size(),
                    dst->row(row_begin));
        slots[static_cast<std::size_t>(row_begin / kBandRows)] = band;
      });
  if (stats) {
    for (const RasterStats& band : band_stats) {
      stats->raster.pixels_tested += band.pixels_tested;
      stats->raster.pixels_filled += band.pixels_filled;
    }
  }
  return out;
}

Image Renderer::render(const Mat4& view, RenderStats* stats) const {
  return render_strip(view, StripRange{0, height_}, stats);
}

RenderStats Renderer::estimate_strip(const Mat4& view,
                                     StripRange strip) const {
  RenderStats stats;
  const Mat4 proj = strip_projection(camera_, width_, height_, strip);
  const Mat4 vp = proj * view;
  const Frustum frustum(vp);

  std::vector<std::uint32_t> visible;
  octree_.cull(frustum, visible, &stats.cull);

  const double strip_pixels =
      static_cast<double>(width_) * static_cast<double>(strip.rows);
  const auto& tris = mesh_.triangles();
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
      return Vec2{(c.x / w * 0.5f + 0.5f) * static_cast<float>(width_),
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

}  // namespace sccpipe
