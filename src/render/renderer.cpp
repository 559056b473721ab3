#include "sccpipe/render/renderer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "lanes.hpp"
#include "sccpipe/render/reference.hpp"
#include "sccpipe/support/check.hpp"

namespace sccpipe {

Renderer::Renderer(const Mesh& mesh, const Octree& octree, CameraConfig camera,
                   int frame_width, int frame_height, LightingConfig lighting)
    : mesh_(mesh),
      octree_(octree),
      camera_(camera),
      width_(frame_width),
      height_(frame_height) {
  SCCPIPE_CHECK(frame_width > 0 && frame_height > 0);
  SCCPIPE_CHECK(octree.built());
  // Flat shading depends on the triangle and the light only, never on the
  // view: every triangle is shaded once here, not once per strip drawn.
  shaded_.reserve(mesh.triangles().size());
  for (const Triangle& t : mesh.triangles()) {
    shaded_.push_back(reference::shade(t, lighting));
  }
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
  const auto& tris = mesh_.triangles();
  for (const std::uint32_t ti : visible) {
    const Triangle& t = tris[ti];
    if (stats) ++stats->triangles_transformed;
    draw_triangle_clip(fb, vp, full_vp * Vec4{t.v0, 1.0f},
                       full_vp * Vec4{t.v1, 1.0f}, full_vp * Vec4{t.v2, 1.0f},
                       shaded_[ti], stats ? &stats->raster : nullptr);
  }
  return std::move(fb.color());
}

Image Renderer::render(const Mat4& view, RenderStats* stats) const {
  return render_strip(view, StripRange{0, height_}, stats);
}

namespace {

using lanes::F4;
using lanes::I4;
using lanes::select;
using lanes::splat;

/// Row \p r of \p m: the coefficients of clip coordinate r.
Vec4 clip_row(const Mat4& m, int r) {
  return Vec4{m.m[0][r], m.m[1][r], m.m[2][r], m.m[3][r]};
}

bool bit_equal(Vec4 a, Vec4 b) {
  using Bits = std::array<std::uint32_t, 4>;
  return std::bit_cast<Bits>(a) == std::bit_cast<Bits>(b);
}

/// The clip coordinate \p row gives each lane's point (w = 1), with the
/// products and summation order of Mat4 * Vec4: bit-equal to that component
/// of the full transform.
F4 clip_coord(Vec4 row, F4 x, F4 y, F4 z) {
  return row.x * x + row.y * y + row.z * z + row.w;
}

/// Triangles per block: the SoA scratch of one block lives on the stack
/// (8 KB), so no node, however large, allocates.
constexpr std::size_t kBlock = 128;
constexpr std::size_t kGroups = kBlock / 4;

/// One block of an accepted node's triangles, one vector per four
/// triangles. Lanes past the block's last triangle hold zeros.
struct Block {
  F4 v[3][3][kGroups];  ///< [vertex][coordinate]: object-space positions
  F4 w[3][kGroups];     ///< clip w clamped to >= 1e-2
  F4 x[3][kGroups];     ///< screen x
  I4 kept[kGroups];     ///< all ones for a real triangle not clipped away
};

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
  const F4 width = splat(static_cast<float>(width_));
  const auto& tris = mesh_.triangles();

  std::vector<Frustum> frusta;
  std::vector<StripPass> pass;
  std::vector<CullStats> cull;
  Block b{};
  // Estimates one block of a node's triangles for every strip in \p mask.
  const auto estimate_block = [&](std::span<const std::uint32_t> block,
                                  std::uint64_t mask) {
    const std::size_t n = block.size();
    const std::size_t groups = (n + 3) / 4;
    const auto put = [&](std::size_t i, int c, Vec3 p) {
      b.v[c][0][i / 4][i % 4] = p.x;
      b.v[c][1][i / 4][i % 4] = p.y;
      b.v[c][2][i / 4][i % 4] = p.z;
    };
    for (std::size_t i = 0; i < n; ++i) {
      const Triangle& t = tris[block[i]];
      put(i, 0, t.v0);
      put(i, 1, t.v1);
      put(i, 2, t.v2);
    }
    for (std::size_t i = n; i < groups * 4; ++i) {
      for (int c = 0; c < 3; ++c) put(i, c, Vec3{});
    }
    // Clip w (and the clipped-away test on it, unclamped) and screen x,
    // which no strip adjustment changes.
    const I4 lane_index{0, 1, 2, 3};
    I4 clipped_lanes{};
    for (std::size_t g = 0; g < groups; ++g) {
      const I4 real = lane_index < static_cast<std::int32_t>(n - g * 4);
      I4 clipped = real;
      for (int c = 0; c < 3; ++c) {
        const F4 v[3] = {b.v[c][0][g], b.v[c][1][g], b.v[c][2][g]};
        const F4 w = clip_coord(w_row, v[0], v[1], v[2]);
        clipped &= w <= 1e-4f;
        // Screen-space area of the projection (vertices behind the eye are
        // clamped to a small positive w — good enough for a workload
        // count); the clamp is std::max(w, 1e-2f), NaN and ties included.
        b.w[c][g] = select(w < 1e-2f, splat(1e-2f), w);
        b.x[c][g] =
            (clip_coord(x_row, v[0], v[1], v[2]) / b.w[c][g] * 0.5f + 0.5f) *
            width;
      }
      b.kept[g] = real & ~clipped;
      clipped_lanes -= clipped;
    }
    const auto clipped_away = static_cast<std::uint64_t>(
        clipped_lanes[0] + clipped_lanes[1] + clipped_lanes[2] +
        clipped_lanes[3]);
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
      StripPass& p = pass[static_cast<std::size_t>(std::countr_zero(m))];
      p.clipped_away += clipped_away;
      const F4 rows = splat(p.rows);
      for (std::size_t g = 0; g < groups; ++g) {
        const auto y = [&](int c) {
          return (0.5f - clip_coord(p.y_row, b.v[c][0][g], b.v[c][1][g],
                                    b.v[c][2][g]) /
                             b.w[c][g] * 0.5f) *
                 rows;
        };
        const F4 x0 = b.x[0][g], x1 = b.x[1][g], x2 = b.x[2][g];
        const F4 y0 = y(0), y1 = y(1), y2 = y(2);
        // Clipped triangles and pad lanes add +0.0, which leaves a sum of
        // non-negative terms bit for bit unchanged.
        const F4 area = select(
            b.kept[g], (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0), F4{});
        // The double sum stays scalar, in cull pre-order; its add chain
        // overlaps the next group's vector work.
        for (int lane = 0; lane < 4; ++lane) {
          const double tri_area =
              0.5 * std::fabs(static_cast<double>(area[lane]));
          // A triangle cannot cover more than the strip.
          p.area += std::min(tri_area, p.strip_pixels);
        }
      }
    }
  };
  // Called per accepted node in pre-order, so each strip sums its
  // triangles' areas in the order a cull of its own visits them.
  const Octree::MultiVisit estimate_node =
      [&](std::span<const std::uint32_t> node_tris, std::uint64_t mask) {
    for (std::size_t first = 0; first < node_tris.size(); first += kBlock) {
      estimate_block(
          node_tris.subspan(first, std::min(kBlock, node_tris.size() - first)),
          mask);
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
