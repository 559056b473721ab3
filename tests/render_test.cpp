#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sccpipe/render/reference.hpp"
#include "sccpipe/render/renderer.hpp"
#include "sccpipe/scene/city.hpp"

namespace sccpipe {
namespace {

// -------------------------------------------------------------- Framebuffer

TEST(Framebuffer, ClearSetsColorAndDepth) {
  Framebuffer fb(4, 4);
  fb.clear(Color{9, 9, 9, 255}, 1.0f);
  EXPECT_EQ(fb.color().get(2, 2), (Color{9, 9, 9, 255}));
  EXPECT_FLOAT_EQ(fb.depth(2, 2), 1.0f);
  fb.set_pixel(1, 1, 0.25f, Color{1, 2, 3, 255});
  EXPECT_FLOAT_EQ(fb.depth(1, 1), 0.25f);
  EXPECT_EQ(fb.color().get(1, 1).g, 2);
}

TEST(Framebuffer, ConstructionClears) {
  // A new buffer is already what clear() leaves, so a strip render fills
  // it once.
  const Framebuffer fresh(5, 3);
  Framebuffer cleared(5, 3);
  cleared.set_pixel(4, 2, -0.5f, Color{1, 2, 3, 4});
  cleared.clear();
  EXPECT_EQ(fresh.color(), cleared.color());
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 5; ++x) {
      EXPECT_EQ(fresh.depth(x, y), cleared.depth(x, y)) << x << "," << y;
    }
  }
}

// --------------------------------------------------------------- Rasterizer

/// Clip-space helper: place a triangle directly in NDC (w = 1).
Vec4 ndc(float x, float y, float z = 0.0f) { return Vec4{x, y, z, 1.0f}; }

TEST(Rasterizer, FillsCoveringTriangle) {
  Framebuffer fb(16, 16);
  fb.clear();
  RasterStats stats;
  // Huge triangle covering the whole NDC square.
  draw_triangle_clip(fb, Viewport::full(fb), ndc(-4, -4), ndc(4, -4), ndc(0, 6),
                     Color{200, 0, 0, 255}, &stats);
  EXPECT_EQ(stats.pixels_filled, 16u * 16u);
  EXPECT_EQ(fb.color().get(8, 8).r, 200);
}

TEST(Rasterizer, WindingOrderDoesNotMatter) {
  Framebuffer a(8, 8), b(8, 8);
  a.clear();
  b.clear();
  draw_triangle_clip(a, Viewport::full(a), ndc(-2, -2), ndc(2, -2), ndc(0, 3), Color{5, 6, 7, 255});
  draw_triangle_clip(b, Viewport::full(b), ndc(0, 3), ndc(2, -2), ndc(-2, -2), Color{5, 6, 7, 255});
  EXPECT_EQ(a.color(), b.color());
}

TEST(Rasterizer, ZBufferKeepsNearest) {
  Framebuffer fb(8, 8);
  fb.clear();
  draw_triangle_clip(fb, Viewport::full(fb), ndc(-2, -2, 0.5f), ndc(2, -2, 0.5f), ndc(0, 3, 0.5f),
                     Color{10, 0, 0, 255});
  // A farther triangle must not overwrite.
  draw_triangle_clip(fb, Viewport::full(fb), ndc(-2, -2, 0.8f), ndc(2, -2, 0.8f), ndc(0, 3, 0.8f),
                     Color{20, 0, 0, 255});
  EXPECT_EQ(fb.color().get(4, 4).r, 10);
  // A nearer one does.
  draw_triangle_clip(fb, Viewport::full(fb), ndc(-2, -2, 0.1f), ndc(2, -2, 0.1f), ndc(0, 3, 0.1f),
                     Color{30, 0, 0, 255});
  EXPECT_EQ(fb.color().get(4, 4).r, 30);
}

TEST(Rasterizer, FullyBehindEyeIsClipped) {
  Framebuffer fb(8, 8);
  fb.clear();
  RasterStats stats;
  draw_triangle_clip(fb, Viewport::full(fb), Vec4{0, 0, 0, -1}, Vec4{1, 0, 0, -1},
                     Vec4{0, 1, 0, -2}, Color{255, 0, 0, 255}, &stats);
  EXPECT_EQ(stats.triangles_clipped_away, 1u);
  EXPECT_EQ(stats.pixels_filled, 0u);
}

TEST(Rasterizer, PartialClipStillDraws) {
  Framebuffer fb(16, 16);
  fb.clear();
  RasterStats stats;
  // One vertex behind the eye; the clipper must emit geometry.
  draw_triangle_clip(fb, Viewport::full(fb), Vec4{0, -8, 0, 8}, Vec4{8, 8, 0, 8},
                     Vec4{-2, 0, 0, -1}, Color{99, 0, 0, 255}, &stats);
  EXPECT_EQ(stats.triangles_clipped_away, 0u);
  EXPECT_GT(stats.pixels_filled, 0u);
}

TEST(Rasterizer, DegenerateTriangleDrawsNothing) {
  Framebuffer fb(8, 8);
  fb.clear();
  RasterStats stats;
  draw_triangle_clip(fb, Viewport::full(fb), ndc(0, 0), ndc(1, 1), ndc(0.5f, 0.5f),
                     Color{1, 1, 1, 255}, &stats);
  EXPECT_EQ(stats.pixels_filled, 0u);
}

TEST(Rasterizer, TopRowOfNdcIsRowZero) {
  Framebuffer fb(4, 4);
  fb.clear(Color{0, 0, 0, 255});
  // Small triangle near NDC y = +1 (top).
  draw_triangle_clip(fb, Viewport::full(fb), ndc(-1, 1.0f), ndc(1, 1.0f), ndc(0, 0.4f),
                     Color{77, 0, 0, 255});
  EXPECT_EQ(fb.color().get(1, 0).r, 77);   // top row hit
  EXPECT_EQ(fb.color().get(1, 3).r, 0);    // bottom row untouched
}

// ----------------------------------------------------------------- Renderer

struct RendererFixture : ::testing::Test {
  static CityParams params() {
    CityParams p;
    p.blocks_x = 5;
    p.blocks_z = 5;
    return p;
  }
  Mesh city = generate_city(params());
  Octree octree{city};
  CameraConfig cam;
  Renderer renderer{city, octree, cam, 120, 120};
  WalkthroughPath path{city.bounds(), 40};
};

TEST_F(RendererFixture, ProducesNonTrivialImage) {
  RenderStats stats;
  const Image img = renderer.render(path.view(0), &stats);
  EXPECT_EQ(img.width(), 120);
  EXPECT_EQ(img.height(), 120);
  EXPECT_GT(stats.raster.pixels_filled, 100u);
  EXPECT_GT(stats.cull.tris_accepted, 10u);
  // Image is not a single flat colour.
  const Color c0 = img.get(0, 0);
  bool varied = false;
  for (int y = 0; y < 120 && !varied; y += 7) {
    for (int x = 0; x < 120 && !varied; x += 7) {
      varied = !(img.get(x, y) == c0);
    }
  }
  EXPECT_TRUE(varied);
}

TEST_F(RendererFixture, StripsAssembleToFullFrame) {
  // Sort-first correctness: rendering each strip with its adjusted frustum
  // and pasting the strips reproduces the full-frame rendering exactly.
  const Mat4 view = path.view(7);
  const Image whole = renderer.render(view);
  for (const int k : {2, 3, 5}) {
    Image assembled(120, 120);
    for (const StripRange& s : divide_rows(120, k)) {
      assembled.paste(renderer.render_strip(view, s), s.y0);
    }
    EXPECT_EQ(assembled, whole) << "k=" << k;
  }
}

TEST_F(RendererFixture, DeterministicAcrossCalls) {
  const Mat4 view = path.view(3);
  EXPECT_EQ(renderer.render(view), renderer.render(view));
}

TEST_F(RendererFixture, EstimateTracksRasterWorkload) {
  const Mat4 view = path.view(11);
  RenderStats real;
  renderer.render(view, &real);
  const RenderStats est = renderer.estimate_strip(view, {0, 120});
  // Same culling.
  EXPECT_EQ(est.cull.tris_accepted, real.cull.tris_accepted);
  EXPECT_EQ(est.cull.nodes_visited, real.cull.nodes_visited);
  // Pixel estimate within the same order of magnitude as filled pixels.
  EXPECT_GT(est.projected_pixels, 0.2 * static_cast<double>(real.raster.pixels_filled));
}

TEST_F(RendererFixture, EstimateIsCappedByStripArea) {
  const RenderStats est = renderer.estimate_strip(path.view(1), {0, 120});
  EXPECT_LE(est.projected_pixels, 2.5 * 120.0 * 120.0 + 1.0);
}

TEST_F(RendererFixture, StripWorkloadsShrinkWithK) {
  const Mat4 view = path.view(5);
  const RenderStats whole = renderer.estimate_strip(view, {0, 120});
  double strip_sum_pixels = 0.0;
  for (const StripRange& s : divide_rows(120, 4)) {
    const RenderStats st = renderer.estimate_strip(view, s);
    EXPECT_LE(st.cull.tris_accepted, whole.cull.tris_accepted);
    strip_sum_pixels += st.projected_pixels;
  }
  EXPECT_GT(strip_sum_pixels, 0.0);
}

// ------------------------------------------------ render_strip vs reference

/// Field-for-field RenderStats equality.
void expect_stats_equal(const RenderStats& got, const RenderStats& want,
                        const std::string& where) {
  EXPECT_EQ(got.cull.nodes_visited, want.cull.nodes_visited) << where;
  EXPECT_EQ(got.cull.tris_accepted, want.cull.tris_accepted) << where;
  EXPECT_EQ(got.cull.nodes_total, want.cull.nodes_total) << where;
  EXPECT_EQ(got.raster.triangles_submitted, want.raster.triangles_submitted)
      << where;
  EXPECT_EQ(got.raster.triangles_clipped_away,
            want.raster.triangles_clipped_away)
      << where;
  EXPECT_EQ(got.raster.pixels_filled, want.raster.pixels_filled) << where;
  EXPECT_EQ(got.raster.pixels_tested, want.raster.pixels_tested) << where;
  EXPECT_EQ(got.triangles_transformed, want.triangles_transformed) << where;
  EXPECT_EQ(got.projected_pixels, want.projected_pixels) << where;
}

/// An unlit renderer (each triangle in its own colour) and a lit one, tall
/// enough for a 400-row strip at a non-zero y0.
struct StripRenderFixture : ::testing::Test {
  static constexpr int kWidth = 96;
  static constexpr int kHeight = 512;
  static LightingConfig unlit() {
    LightingConfig l;
    l.enabled = false;
    return l;
  }
  Mesh city = generate_city(RendererFixture::params());
  Octree octree{city};
  CameraConfig cam;
  Renderer renderer{city, octree, cam, kWidth, kHeight, unlit()};
  Renderer lit_renderer{city, octree, cam, kWidth, kHeight, LightingConfig{}};
  WalkthroughPath path{city.bounds(), 40};

  /// The serial oracle: render_strip's cull and transform, then every
  /// visible triangle shaded by reference::shade under \p lighting and
  /// drawn over the whole strip through the reference rasterizer in one
  /// framebuffer.
  Image reference_strip(const Mat4& view, StripRange strip,
                        const LightingConfig& lighting,
                        RenderStats& stats) const {
    const Frustum frustum(strip_projection(cam, kWidth, kHeight, strip) * view);
    std::vector<std::uint32_t> visible;
    octree.cull(frustum, visible, &stats.cull);
    const Mat4 full_vp =
        strip_projection(cam, kWidth, kHeight, StripRange{0, kHeight}) * view;
    Framebuffer fb(kWidth, strip.rows);
    fb.clear();
    const Viewport vp{kWidth, kHeight, strip.y0};
    for (const std::uint32_t ti : visible) {
      const Triangle& t = city.triangles()[ti];
      ++stats.triangles_transformed;
      reference::draw_triangle_clip(fb, vp, full_vp * Vec4{t.v0, 1.0f},
                                    full_vp * Vec4{t.v1, 1.0f},
                                    full_vp * Vec4{t.v2, 1.0f},
                                    reference::shade(t, lighting),
                                    &stats.raster);
    }
    return std::move(fb.color());
  }

  /// Strips from one row to 400 rows, at y0 values from the top of the
  /// frame to deep inside it, against the oracle.
  void expect_every_strip_shape_matches(const Renderer& r,
                                        const LightingConfig& lighting) const {
    for (const int frame : {2, 19}) {
      const Mat4 view = path.view(frame);
      for (const int rows : {1, 15, 16, 17, 100, 400}) {
        for (const int y0 : {0, 7, 16, 111}) {
          const StripRange strip{y0, rows};
          const std::string where = "frame " + std::to_string(frame) +
                                    " y0 " + std::to_string(y0) + " rows " +
                                    std::to_string(rows);
          RenderStats got, want;
          const Image strip_image = r.render_strip(view, strip, &got);
          const Image reference = reference_strip(view, strip, lighting, want);
          EXPECT_EQ(strip_image, reference) << where;
          expect_stats_equal(got, want, where);
        }
      }
    }
  }
};

TEST_F(StripRenderFixture, MatchesWholeStripReferenceAtEveryStripShape) {
  expect_every_strip_shape_matches(renderer, unlit());
}

TEST_F(StripRenderFixture, LitMatchesReferenceShadingAtEveryStripShape) {
  expect_every_strip_shape_matches(lit_renderer, LightingConfig{});
}

TEST_F(StripRenderFixture, ShadeCacheMatchesReferenceShade) {
  // Every city triangle's cached colour is reference::shade's, lit and
  // unlit, and lighting does change the colours.
  const auto& tris = city.triangles();
  std::size_t relit = 0;
  for (std::uint32_t i = 0; i < tris.size(); ++i) {
    ASSERT_EQ(lit_renderer.shade(i), reference::shade(tris[i], {}))
        << "triangle " << i;
    ASSERT_EQ(renderer.shade(i), tris[i].color) << "triangle " << i;
    if (!(lit_renderer.shade(i) == tris[i].color)) ++relit;
  }
  EXPECT_GT(relit, tris.size() / 2);
}

TEST_F(StripRenderFixture, ReferenceOracleSeesGeometry) {
  // Guard against a vacuous comparison above: the strips do fill pixels.
  RenderStats stats;
  reference_strip(path.view(2), StripRange{111, 400}, unlit(), stats);
  EXPECT_GT(stats.raster.pixels_filled, 1000u);
  EXPECT_GT(stats.triangles_transformed, 100u);
}

}  // namespace
}  // namespace sccpipe
