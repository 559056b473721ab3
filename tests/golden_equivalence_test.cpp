// Golden-equivalence tests: the optimised kernels in filters.cpp and
// rasterizer.cpp must be BIT-identical to the naive reference
// transcriptions of the paper's §IV formulas — not approximately equal.
// Seeded random images over a size grid that includes every degenerate
// shape (1x1, single row, single column, odd sizes) so the edge-clamp
// paths of the running-sum blur and the row hoisting of the rasterizer are
// all exercised.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sccpipe/filters/filters.hpp"
#include "sccpipe/filters/reference.hpp"
#include "sccpipe/render/rasterizer.hpp"
#include "sccpipe/render/reference.hpp"
#include "sccpipe/support/rng.hpp"

namespace sccpipe {
namespace {

Image random_image(Rng& rng, int w, int h) {
  Image img(w, h);
  std::uint8_t* d = img.data();
  for (std::size_t i = 0; i < img.byte_size(); ++i) {
    d[i] = static_cast<std::uint8_t>(rng.below(256));
  }
  return img;
}

// Sizes covering the degenerate shapes: the blur's horizontal window
// collapses at w=1, its vertical window at h=1, and odd sizes leave a
// non-empty interior plus both edge columns.
const std::vector<std::pair<int, int>> kSizes = {
    {1, 1}, {1, 7}, {7, 1}, {2, 2}, {3, 3}, {2, 5},
    {5, 2}, {17, 13}, {64, 48}, {101, 37}};

void expect_images_equal(const Image& got, const Image& want, int w, int h,
                         const char* what) {
  ASSERT_EQ(got.width(), want.width());
  ASSERT_EQ(got.height(), want.height());
  EXPECT_EQ(got, want) << what << " diverged from reference on " << w << 'x'
                       << h;
}

TEST(GoldenFilters, SepiaBitIdentical) {
  Rng rng{0x5e91a001};
  for (const auto& [w, h] : kSizes) {
    Image opt = random_image(rng, w, h);
    Image ref = opt;
    apply_sepia(opt);
    reference::apply_sepia(ref);
    expect_images_equal(opt, ref, w, h, "sepia");
  }
}

TEST(GoldenFilters, BlurBitIdentical) {
  Rng rng{0xb10b1002};
  for (const auto& [w, h] : kSizes) {
    Image opt = random_image(rng, w, h);
    Image ref = opt;
    apply_blur(opt);
    reference::apply_blur(ref);
    expect_images_equal(opt, ref, w, h, "blur");
  }
}

TEST(GoldenFilters, BlurRepeatedApplicationsStayIdentical) {
  // The in-place ring must keep reading original rows; applying the filter
  // several times amplifies any stale-row mistake into a visible diff.
  Rng rng{0xb10b1003};
  Image opt = random_image(rng, 33, 21);
  Image ref = opt;
  for (int i = 0; i < 4; ++i) {
    apply_blur(opt);
    reference::apply_blur(ref);
    ASSERT_EQ(opt, ref) << "pass " << i;
  }
}

TEST(GoldenFilters, ScratchesBitIdentical) {
  Rng rng{0x5c8a7c03};
  for (const auto& [w, h] : kSizes) {
    Image opt = random_image(rng, w, h);
    Image ref = opt;
    const ScratchParams p = scratch_params_for_frame(0xfeed, 7, w);
    apply_scratches(opt, p);
    reference::apply_scratches(ref, p);
    expect_images_equal(opt, ref, w, h, "scratches");
  }
}

TEST(GoldenFilters, FlickerBitIdentical) {
  Rng rng{0xf11c4004};
  for (const auto& [w, h] : kSizes) {
    Image opt = random_image(rng, w, h);
    Image ref = opt;
    const FlickerParams p = flicker_params_for_frame(0xfeed, 11);
    apply_flicker(opt, p);
    reference::apply_flicker(ref, p);
    expect_images_equal(opt, ref, w, h, "flicker");
  }
}

TEST(GoldenFilters, OrientedScratchesBitIdentical) {
  Rng rng{0x0513a005};
  for (const auto& [w, h] : kSizes) {
    for (const int strip_y0 : {0, 3}) {
      Image opt = random_image(rng, w, h);
      Image ref = opt;
      const OrientedScratchParams p =
          oriented_scratch_params_for_frame(0xfeed, 3, w, h * 2);
      apply_oriented_scratches(opt, p, strip_y0);
      reference::apply_oriented_scratches(ref, p, strip_y0);
      expect_images_equal(opt, ref, w, h, "oriented scratches");
    }
  }
}

TEST(GoldenFilters, VflipBitIdentical) {
  Rng rng{0x0f11b006};
  for (const auto& [w, h] : kSizes) {
    Image opt = random_image(rng, w, h);
    Image ref = opt;
    apply_vflip(opt);
    reference::apply_vflip(ref);
    expect_images_equal(opt, ref, w, h, "vflip");
  }
}

TEST(GoldenFilters, FullPipelineBitIdentical) {
  // The five stages composed, as the walkthrough applies them.
  Rng rng{0x91e11007};
  Image opt = random_image(rng, 57, 43);
  Image ref = opt;
  const ScratchParams sp = scratch_params_for_frame(1, 2, 57);
  const FlickerParams fp = flicker_params_for_frame(1, 2);
  apply_sepia(opt);
  apply_blur(opt);
  apply_scratches(opt, sp);
  apply_flicker(opt, fp);
  apply_vflip(opt);
  reference::apply_sepia(ref);
  reference::apply_blur(ref);
  reference::apply_scratches(ref, sp);
  reference::apply_flicker(ref, fp);
  reference::apply_vflip(ref);
  EXPECT_EQ(opt, ref);
}

// One 256x256 tile per red value, pixel (x, y) = (blue, green), covers all
// 2^24 RGB inputs; the tiles cycle through a few alpha values.
TEST(GoldenSepia, EveryRgbTriple) {
  constexpr std::uint8_t kAlphas[] = {0, 1, 128, 255};
  Image opt(256, 256);
  Image ref;
  for (int r = 0; r < 256; ++r) {
    const std::uint8_t alpha = kAlphas[r % 4];
    for (int g = 0; g < 256; ++g) {
      std::uint8_t* p = opt.row(g);
      for (int b = 0; b < 256; ++b, p += 4) {
        p[0] = static_cast<std::uint8_t>(r);
        p[1] = static_cast<std::uint8_t>(g);
        p[2] = static_cast<std::uint8_t>(b);
        p[3] = alpha;
      }
    }
    ref = opt;
    apply_sepia(opt);
    reference::apply_sepia(ref);
    for (int g = 0; g < 256; ++g) {
      for (int b = 0; b < 256; ++b) {
        const Color got = opt.get(b, g);
        ASSERT_EQ(got, ref.get(b, g)) << "sepia of rgb (" << r << ", " << g
                                      << ", " << b << ")";
        ASSERT_EQ(got.a, alpha) << "alpha of rgb (" << r << ", " << g << ", "
                                << b << ")";
      }
    }
  }
}

// ------------------------------------------------------------ rasterizer

Vec4 random_clip_vertex(Rng& rng) {
  // Mostly in front of the eye, some behind to exercise near clipping.
  const float w = static_cast<float>(rng.uniform(-0.5, 4.0));
  return Vec4{static_cast<float>(rng.uniform(-2.0, 2.0)) * w,
              static_cast<float>(rng.uniform(-2.0, 2.0)) * w,
              static_cast<float>(rng.uniform(-1.5, 1.5)) * w, w};
}

struct ClipTriangle {
  Vec4 v[3];
  Color color;
};

Color random_color(Rng& rng) {
  return Color{static_cast<std::uint8_t>(rng.below(256)),
               static_cast<std::uint8_t>(rng.below(256)),
               static_cast<std::uint8_t>(rng.below(256)), 255};
}

/// A triangle whose clip coordinates hold NaN, +-inf or ~1e30. Vertex 0
/// stays finite and in front of the eye, so it is the first screen vertex;
/// the bounding box's std::min/std::max skip a NaN that is not first, so
/// the box stays finite (HugeFirstVertexBoxIsDefined covers a first vertex
/// far off screen). Hence NaN
/// reaches x and y of vertices 1 and 2 only (NaN edge values: the coverage
/// test), any special value reaches z (a NaN depth passes every reject test
/// and is written), and w is made +-inf, NaN or 1e30, or a vertex is
/// scaled by 1e30, only with every vertex in front of the eye: a near-plane
/// intersection with such a vertex can land on w = 0.
ClipTriangle hostile_triangle(Rng& rng) {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  ClipTriangle t{{random_clip_vertex(rng), random_clip_vertex(rng),
                  random_clip_vertex(rng)},
                 random_color(rng)};
  t.v[0].w = static_cast<float>(rng.uniform(0.5, 4.0));
  const auto all_in_front = [&] {
    for (Vec4& v : t.v) v.w = static_cast<float>(rng.uniform(0.5, 4.0));
  };
  const std::size_t i = rng.below(3);
  Vec4& v = t.v[i];
  switch (rng.below(i == 0 ? 2 : 5)) {
    case 0: {
      constexpr float kZ[] = {kNan, kInf, -kInf, 1e30f, -1e30f};
      v.z = kZ[rng.below(5)];
      break;
    }
    case 1:
      all_in_front();
      v = v * 1e30f;
      break;
    case 2:
      (rng.below(2) == 0 ? v.x : v.y) = kNan;
      break;
    case 3: {
      constexpr float kW[] = {kNan, kInf, -kInf, 1e30f};
      all_in_front();
      v.w = kW[rng.below(4)];
      break;
    }
    default:
      v.x = v.y = v.z = kNan;
      break;
  }
  return t;
}

std::uint32_t depth_bits(const Framebuffer& fb, int x, int y) {
  return std::bit_cast<std::uint32_t>(fb.depth(x, y));
}

/// Draws \p tris with both rasterizers into a \p rows-row window at virtual
/// row \p y0 of a \p w x \p h viewport, then compares colour, depth (bit
/// for bit, NaN included) and all four RasterStats counters.
void expect_raster_equal(int w, int h, int y0, int rows,
                         const std::vector<ClipTriangle>& tris) {
  const std::string where = std::to_string(w) + 'x' + std::to_string(h) +
                            " rows [" + std::to_string(y0) + ", " +
                            std::to_string(y0 + rows) + ")";
  Framebuffer fb_opt(w, rows);
  Framebuffer fb_ref(w, rows);
  RasterStats st_opt, st_ref;
  const Viewport vp{w, h, y0};
  for (const ClipTriangle& t : tris) {
    draw_triangle_clip(fb_opt, vp, t.v[0], t.v[1], t.v[2], t.color, &st_opt);
    reference::draw_triangle_clip(fb_ref, vp, t.v[0], t.v[1], t.v[2], t.color,
                                  &st_ref);
  }
  EXPECT_EQ(fb_opt.color(), fb_ref.color()) << where;
  for (int y = 0; y < rows; ++y) {
    for (int x = 0; x < w; ++x) {
      ASSERT_EQ(depth_bits(fb_opt, x, y), depth_bits(fb_ref, x, y))
          << "depth (" << x << ',' << y << ") on " << where;
    }
  }
  EXPECT_EQ(st_opt.pixels_tested, st_ref.pixels_tested) << where;
  EXPECT_EQ(st_opt.pixels_filled, st_ref.pixels_filled) << where;
  EXPECT_EQ(st_opt.triangles_submitted, st_ref.triangles_submitted) << where;
  EXPECT_EQ(st_opt.triangles_clipped_away, st_ref.triangles_clipped_away)
      << where;
}

// Widths 1-9 leave every remainder mod 4 for the scalar row tail, with and
// without a full four-pixel group before it; 31, 64 and 400 run long
// vector rows. Each width is drawn whole and through two row windows.
const std::vector<int> kRasterWidths = {1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 64, 400};

/// {y0, rows} of the whole frame and of two windows below its top row.
std::vector<std::pair<int, int>> raster_windows(int h) {
  return {{0, h}, {5, h - 9}, {h - 3, 3}};
}

/// Further {w, h} viewports drawn whole only: single-row (min_y == max_y)
/// and single-column frames, and square ones.
const std::vector<std::pair<int, int>> kFullFrames = {
    {1, 1}, {9, 1}, {1, 9}, {31, 17}, {64, 64}};

/// 90 random triangles, every third holding NaN, +-inf or ~1e30 clip
/// coordinates.
std::vector<ClipTriangle> raster_batch(Rng& rng) {
  std::vector<ClipTriangle> tris;
  for (int i = 0; i < 90; ++i) {
    tris.push_back(i % 3 == 2 ? hostile_triangle(rng)
                              : ClipTriangle{{random_clip_vertex(rng),
                                              random_clip_vertex(rng),
                                              random_clip_vertex(rng)},
                                             random_color(rng)});
  }
  return tris;
}

TEST(GoldenRaster, TriangleBatchBitIdentical) {
  Rng rng{0x7a57e008};
  for (const int w : kRasterWidths) {
    const int h = w == 400 ? 48 : 23;
    const std::vector<ClipTriangle> tris = raster_batch(rng);
    for (const auto& [y0, rows] : raster_windows(h)) {
      expect_raster_equal(w, h, y0, rows, tris);
    }
  }
  for (const auto& [w, h] : kFullFrames) {
    expect_raster_equal(w, h, 0, h, raster_batch(rng));
  }
}

TEST(GoldenRaster, HugeFirstVertexBoxIsDefined) {
  // A first clip vertex at x = +-1e30 puts the screen bounding box far
  // outside int: both rasterizers must bound it without an undefined
  // float-to-int cast (a -fsanitize=float-cast-overflow build checks
  // that), agree bit for bit, and draw nothing past the +1e30 edge.
  Rng rng{0xb16b0c5};
  for (const float x : {1e30f, -1e30f}) {
    std::vector<ClipTriangle> tris;
    for (int i = 0; i < 8; ++i) {
      ClipTriangle t{{random_clip_vertex(rng), random_clip_vertex(rng),
                      random_clip_vertex(rng)},
                     random_color(rng)};
      t.v[0] = Vec4{x, 0.25f, 0.5f, 1.0f};
      tris.push_back(t);
    }
    expect_raster_equal(31, 17, 0, 17, tris);
    if (x > 0.0f) {
      Framebuffer fb(31, 17);
      RasterStats st;
      for (const ClipTriangle& t : tris) {
        draw_triangle_clip(fb, Viewport::full(fb), t.v[0], t.v[1], t.v[2],
                           t.color, &st);
      }
      EXPECT_EQ(st.pixels_filled, 0u);
    }
  }
}

TEST(GoldenRaster, StripWindowBitIdentical) {
  // Sort-first strip rendering: a strip viewport with y_offset must paint
  // the same rows the full-frame pass paints.
  Rng rng{0x57e1b009};
  constexpr int kW = 40, kH = 30, kStripY0 = 10, kStripRows = 8;
  Framebuffer full_opt(kW, kH);
  Framebuffer strip_ref(kW, kStripRows);
  const Viewport vp_full = Viewport::full(full_opt);
  const Viewport vp_strip{kW, kH, kStripY0};
  for (int i = 0; i < 40; ++i) {
    const Vec4 a = random_clip_vertex(rng);
    const Vec4 b = random_clip_vertex(rng);
    const Vec4 c = random_clip_vertex(rng);
    const Color col{static_cast<std::uint8_t>(rng.below(256)), 100, 50, 255};
    draw_triangle_clip(full_opt, vp_full, a, b, c, col);
    reference::draw_triangle_clip(strip_ref, vp_strip, a, b, c, col);
  }
  EXPECT_EQ(full_opt.color().strip(StripRange{kStripY0, kStripRows}),
            strip_ref.color());
}

}  // namespace
}  // namespace sccpipe
