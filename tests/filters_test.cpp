#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "sccpipe/filters/filters.hpp"
#include "sccpipe/filters/image.hpp"
#include "sccpipe/filters/reference.hpp"
#include "sccpipe/support/rng.hpp"
#include "sccpipe/support/check.hpp"

namespace sccpipe {
namespace {

// -------------------------------------------------------------------- Image

TEST(Image, ConstructionAndFill) {
  Image img(4, 3, Color{10, 20, 30, 255});
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.byte_size(), 4u * 3u * 4u);
  EXPECT_EQ(img.get(2, 1), (Color{10, 20, 30, 255}));
}

TEST(Image, SetGetRoundTrip) {
  Image img(8, 8);
  img.set(3, 5, Color{1, 2, 3, 4});
  EXPECT_EQ(img.get(3, 5), (Color{1, 2, 3, 4}));
}

TEST(Image, OutOfBoundsThrows) {
  Image img(4, 4);
  EXPECT_THROW(img.get(4, 0), CheckError);
  EXPECT_THROW(img.get(0, -1), CheckError);
  EXPECT_THROW(img.set(0, 4, {}), CheckError);
}

TEST(Image, StripAndPasteRoundTrip) {
  Image img(4, 6);
  for (int y = 0; y < 6; ++y) {
    for (int x = 0; x < 4; ++x) {
      img.set(x, y, Color{static_cast<std::uint8_t>(x),
                          static_cast<std::uint8_t>(y), 0, 255});
    }
  }
  const Image strip = img.strip({2, 3});
  EXPECT_EQ(strip.height(), 3);
  EXPECT_EQ(strip.get(1, 0), img.get(1, 2));

  Image copy(4, 6);
  copy.paste(img.strip({0, 2}), 0);
  copy.paste(img.strip({2, 3}), 2);
  copy.paste(img.strip({5, 1}), 5);
  EXPECT_EQ(copy, img);
}

TEST(Image, PasteRejectsMismatch) {
  Image img(4, 4);
  Image other(5, 2);
  EXPECT_THROW(img.paste(other, 0), CheckError);
  Image tall(4, 3);
  EXPECT_THROW(img.paste(tall, 2), CheckError);
}

TEST(Image, PpmEncoding) {
  Image img(2, 1);
  img.set(0, 0, Color{255, 0, 0, 255});
  img.set(1, 0, Color{0, 255, 0, 255});
  const std::string ppm = img.to_ppm();
  EXPECT_EQ(ppm.substr(0, 2), "P6");
  EXPECT_NE(ppm.find("2 1"), std::string::npos);
  // 6 payload bytes after the header.
  EXPECT_EQ(ppm.size(), ppm.find("255\n") + 4 + 6);
}

TEST(Image, WritePpmToDisk) {
  const std::string path = "/tmp/sccpipe_test_image.ppm";
  Image img(3, 3, Color{1, 2, 3, 255});
  img.write_ppm(path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_GT(std::filesystem::file_size(path), 9u * 3u);
  std::filesystem::remove(path);
}

// -------------------------------------------------------------- divide_rows

TEST(DivideRows, EvenSplit) {
  const auto strips = divide_rows(400, 4);
  ASSERT_EQ(strips.size(), 4u);
  for (const StripRange& s : strips) EXPECT_EQ(s.rows, 100);
  EXPECT_EQ(strips[3].y0, 300);
}

TEST(DivideRows, RemainderGoesToEarlierStrips) {
  const auto strips = divide_rows(10, 3);
  EXPECT_EQ(strips[0].rows, 4);
  EXPECT_EQ(strips[1].rows, 3);
  EXPECT_EQ(strips[2].rows, 3);
}

TEST(DivideRows, PropertyCoversExactlyOnce) {
  for (int height : {7, 100, 400, 399}) {
    for (int k = 1; k <= 8 && k <= height; ++k) {
      const auto strips = divide_rows(height, k);
      int y = 0;
      for (const StripRange& s : strips) {
        EXPECT_EQ(s.y0, y);
        EXPECT_GT(s.rows, 0);
        y += s.rows;
      }
      EXPECT_EQ(y, height);
    }
  }
}

TEST(DivideRows, RejectsBadArguments) {
  EXPECT_THROW(divide_rows(0, 1), CheckError);
  EXPECT_THROW(divide_rows(4, 0), CheckError);
  EXPECT_THROW(divide_rows(4, 5), CheckError);
}

// -------------------------------------------------------------------- Sepia

TEST(Sepia, MatchesPaperFormula) {
  // One mid-grey pixel: r=g=b=0.5 -> mix = 0.5 -> rgb = S1*0.5 + S2*0.5.
  Image img(1, 1, Color{128, 128, 128, 255});
  apply_sepia(img);
  const Color c = img.get(0, 0);
  const float mix = 0.5019608f;  // 128/255
  EXPECT_NEAR(c.r / 255.0f, 0.2f * (1 - mix) + 1.0f * mix, 0.01f);
  EXPECT_NEAR(c.g / 255.0f, 0.05f * (1 - mix) + 0.9f * mix, 0.01f);
  EXPECT_NEAR(c.b / 255.0f, 0.0f * (1 - mix) + 0.5f * mix, 0.01f);
}

TEST(Sepia, BlackAndWhiteEndpoints) {
  Image img(2, 1);
  img.set(0, 0, Color{0, 0, 0, 255});
  img.set(1, 0, Color{255, 255, 255, 255});
  apply_sepia(img);
  // Black -> S1, white -> S2 (clamped).
  EXPECT_NEAR(img.get(0, 0).r / 255.0f, 0.2f, 0.01f);
  EXPECT_NEAR(img.get(0, 0).g / 255.0f, 0.05f, 0.01f);
  EXPECT_EQ(img.get(0, 0).b, 0);
  EXPECT_EQ(img.get(1, 0).r, 255);
  EXPECT_NEAR(img.get(1, 0).g / 255.0f, 0.9f, 0.01f);
  EXPECT_NEAR(img.get(1, 0).b / 255.0f, 0.5f, 0.01f);
}

TEST(Sepia, PreservesAlphaAndIsIdempotentOnStripDecomposition) {
  Image whole(8, 8, Color{50, 100, 150, 77});
  Image parts = whole;
  apply_sepia(whole);
  EXPECT_EQ(whole.get(3, 3).a, 77);
  // Strip-wise application equals whole-image application (pixel-local op).
  Image assembled(8, 8);
  for (const StripRange& s : divide_rows(8, 3)) {
    Image strip = parts.strip(s);
    apply_sepia(strip);
    assembled.paste(strip, s.y0);
  }
  EXPECT_EQ(assembled, whole);
}

// --------------------------------------------------------------------- Blur

TEST(Blur, UniformImageUnchanged) {
  Image img(6, 6, Color{90, 120, 150, 255});
  const Image before = img;
  apply_blur(img);
  EXPECT_EQ(img, before);
}

TEST(Blur, AveragesNeighbourhood) {
  Image img(3, 3, Color{0, 0, 0, 255});
  img.set(1, 1, Color{90, 90, 90, 255});
  apply_blur(img);
  // Centre: average of 9 pixels = 10.
  EXPECT_EQ(img.get(1, 1).r, 10);
  // Corner: average of its 4 pixels = 90/4 = 22 (integer division).
  EXPECT_EQ(img.get(0, 0).r, 22);
}

TEST(Blur, ReadsFromOriginalNotInPlace) {
  // A horizontal gradient must stay symmetric after blurring; in-place
  // blurring would smear it to one side.
  Image img(5, 1);
  for (int x = 0; x < 5; ++x) {
    img.set(x, 0, Color{static_cast<std::uint8_t>(x * 50), 0, 0, 255});
  }
  apply_blur(img);
  // Pixel 2 averages pixels 1..3 = (50+100+150)/3 = 100.
  EXPECT_EQ(img.get(2, 0).r, 100);
}

TEST(Blur, ReducesContrast) {
  Image img(8, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      img.set(x, y, ((x + y) % 2) ? Color{255, 255, 255, 255}
                                  : Color{0, 0, 0, 255});
    }
  }
  apply_blur(img);
  int lo = 255, hi = 0;
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      lo = std::min<int>(lo, img.get(x, y).r);
      hi = std::max<int>(hi, img.get(x, y).r);
    }
  }
  EXPECT_GT(lo, 0);
  EXPECT_LT(hi, 255);
}

// ------------------------------------------------------------------ Scratch

TEST(Scratch, DrawsDeterministically) {
  Rng a{10}, b{10};
  const ScratchParams pa = ScratchParams::draw(a, 100);
  const ScratchParams pb = ScratchParams::draw(b, 100);
  EXPECT_EQ(pa.count, pb.count);
  EXPECT_EQ(pa.columns, pb.columns);
  EXPECT_EQ(pa.color, pb.color);
}

TEST(Scratch, CountWithinBounds) {
  Rng rng{11};
  for (int i = 0; i < 100; ++i) {
    const ScratchParams p = ScratchParams::draw(rng, 100, 12);
    EXPECT_GE(p.count, 0);
    EXPECT_LE(p.count, 12);
    EXPECT_EQ(p.columns.size(), static_cast<std::size_t>(p.count));
    for (const int x : p.columns) {
      EXPECT_GE(x, 0);
      EXPECT_LT(x, 100);
    }
  }
}

TEST(Scratch, PaintsFullColumns) {
  Image img(10, 10, Color{0, 0, 0, 255});
  ScratchParams p;
  p.count = 1;
  p.color = Color{200, 200, 200, 255};
  p.columns = {4};
  apply_scratches(img, p);
  for (int y = 0; y < 10; ++y) {
    EXPECT_EQ(img.get(4, y).r, 200);
    EXPECT_EQ(img.get(5, y).r, 0);
  }
}

TEST(Scratch, IgnoresOutOfRangeColumns) {
  Image img(4, 4, Color{0, 0, 0, 255});
  ScratchParams p;
  p.color = Color{255, 255, 255, 255};
  p.columns = {-1, 7};
  EXPECT_NO_THROW(apply_scratches(img, p));
  EXPECT_EQ(img.get(0, 0).r, 0);
}

TEST(Scratch, FramePersistentParamsAreStripInvariant) {
  const ScratchParams a = scratch_params_for_frame(42, 7, 400);
  const ScratchParams b = scratch_params_for_frame(42, 7, 400);
  EXPECT_EQ(a.columns, b.columns);
  const ScratchParams c = scratch_params_for_frame(42, 8, 400);
  // Different frames draw different scratches (overwhelmingly likely).
  EXPECT_TRUE(a.count != c.count || a.columns != c.columns ||
              !(a.color == c.color));
}

TEST(Scratch, CountForFrameIsTheFirstDrawOfTheParamsStream) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 0x9e3779b97f4a7c15ULL}) {
    for (const int max_scratches : {0, 1, 12}) {
      for (int frame = 0; frame < 1000; ++frame) {
        ASSERT_EQ(scratch_count_for_frame(seed, frame, max_scratches),
                  scratch_params_for_frame(seed, frame, 400, max_scratches)
                      .count)
            << "seed " << seed << " frame " << frame << " max "
            << max_scratches;
      }
    }
  }
  EXPECT_THROW(scratch_count_for_frame(1, 0, -1), CheckError);
}

// ------------------------------------------------------------------ Flicker

TEST(Flicker, DeltaWithinPaperInterval) {
  Rng rng{13};
  for (int i = 0; i < 200; ++i) {
    const FlickerParams p = FlickerParams::draw(rng);
    EXPECT_GE(p.delta, -0.1f);
    EXPECT_LT(p.delta, 0.1f);
  }
}

TEST(Flicker, ShiftsBrightness) {
  Image img(2, 2, Color{128, 128, 128, 9});
  apply_flicker(img, FlickerParams{0.1f});
  EXPECT_NEAR(img.get(0, 0).r, 128 + 25, 2);
  EXPECT_EQ(img.get(0, 0).a, 9);  // alpha untouched
  apply_flicker(img, FlickerParams{-0.2f});
  EXPECT_NEAR(img.get(0, 0).r, 128 + 25 - 51, 3);
}

TEST(Flicker, ClampsAtBounds) {
  Image bright(1, 1, Color{250, 5, 128, 255});
  apply_flicker(bright, FlickerParams{0.1f});
  EXPECT_EQ(bright.get(0, 0).r, 255);  // 250 + 25 clamps at 255
  Image dark(1, 1, Color{250, 5, 128, 255});
  apply_flicker(dark, FlickerParams{-0.1f});
  EXPECT_EQ(dark.get(0, 0).g, 0);  // 5 - 25 clamps at 0
}

// --------------------------------------------------------------------- Swap

TEST(Swap, FlipsVertically) {
  Image img(2, 4);
  for (int y = 0; y < 4; ++y) {
    img.set(0, y, Color{static_cast<std::uint8_t>(y), 0, 0, 255});
  }
  apply_vflip(img);
  for (int y = 0; y < 4; ++y) {
    EXPECT_EQ(img.get(0, y).r, 3 - y);
  }
}

TEST(Swap, IsAnInvolution) {
  Image img(7, 5);
  Rng rng{19};
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 7; ++x) {
      img.set(x, y, Color{static_cast<std::uint8_t>(rng.below(256)),
                          static_cast<std::uint8_t>(rng.below(256)),
                          static_cast<std::uint8_t>(rng.below(256)), 255});
    }
  }
  const Image before = img;
  apply_vflip(img);
  EXPECT_NE(img, before);
  apply_vflip(img);
  EXPECT_EQ(img, before);
}

TEST(Swap, OddHeightKeepsMiddleRow) {
  Image img(1, 3);
  img.set(0, 0, Color{1, 0, 0, 255});
  img.set(0, 1, Color{2, 0, 0, 255});
  img.set(0, 2, Color{3, 0, 0, 255});
  apply_vflip(img);
  EXPECT_EQ(img.get(0, 0).r, 3);
  EXPECT_EQ(img.get(0, 1).r, 2);
  EXPECT_EQ(img.get(0, 2).r, 1);
}

// ---------------------------------------------------------- height sweeps
//
// Sepia, blur and flicker must stay bit-identical to the naive reference
// over a sweep of image heights (every height up to 40 rows, then 100 and
// 400) and the widths where the blur's horizontal window degenerates. The
// blur's three-row ring runs in place, so the short heights pin its edges.

Image noise_image(Rng& rng, int w, int h) {
  Image img(w, h);
  std::uint8_t* d = img.data();
  for (std::size_t i = 0; i < img.byte_size(); ++i) {
    d[i] = static_cast<std::uint8_t>(rng.below(256));
  }
  return img;
}

std::vector<int> test_heights() {
  std::vector<int> heights;
  for (int h = 1; h <= 40; ++h) heights.push_back(h);
  heights.push_back(100);
  heights.push_back(400);
  return heights;
}

template <typename Opt, typename Ref>
void expect_matches_reference(std::uint64_t seed, Opt opt, Ref ref,
                              const char* what) {
  Rng rng{seed};
  for (const int w : {1, 2, 3, 400}) {
    for (const int h : test_heights()) {
      Image got = noise_image(rng, w, h);
      Image want = got;
      opt(got);
      ref(want);
      ASSERT_EQ(got, want) << what << " diverged on " << w << 'x' << h;
    }
  }
}

TEST(RowBands, SepiaMatchesReference) {
  expect_matches_reference(
      0x5e9a0b01, [](Image& img) { apply_sepia(img); },
      [](Image& img) { reference::apply_sepia(img); }, "sepia");
}

TEST(RowBands, BlurMatchesReference) {
  expect_matches_reference(
      0xb10b0b02, [](Image& img) { apply_blur(img); },
      [](Image& img) { reference::apply_blur(img); }, "blur");
}

TEST(RowBands, FlickerMatchesReference) {
  for (const float delta : {-0.1f, 0.037f, 0.1f}) {
    const FlickerParams params{delta};
    expect_matches_reference(
        0xf11c0b03, [&](Image& img) { apply_flicker(img, params); },
        [&](Image& img) { reference::apply_flicker(img, params); }, "flicker");
  }
}

}  // namespace
}  // namespace sccpipe
