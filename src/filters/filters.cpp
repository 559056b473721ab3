#include "sccpipe/filters/filters.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <type_traits>
#include <vector>

#include "sccpipe/geom/vec.hpp"
#include "sccpipe/support/check.hpp"

namespace sccpipe {

namespace {

float to_unit(std::uint8_t v) { return static_cast<float>(v) / 255.0f; }

/// std::lround(clamp01(v) * 255.0f) without the libm call: x is a float in
/// [0, 255], so double(x) + 0.5 is exact and truncating it rounds half away
/// from zero, as lround does.
std::uint8_t to_byte(float v) {
  return static_cast<std::uint8_t>(
      static_cast<int>(static_cast<double>(clamp01(v) * 255.0f) + 0.5));
}

/// The paper's sepia mix products 0.3*(v/255), 0.59*(v/255), 0.11*(v/255)
/// for every byte value.
struct SepiaTables {
  float r[256], g[256], b[256];
  SepiaTables() {
    for (int v = 0; v < 256; ++v) {
      const float u = to_unit(static_cast<std::uint8_t>(v));
      r[v] = 0.3f * u;
      g[v] = 0.59f * u;
      b[v] = 0.11f * u;
    }
  }
};

/// Horizontal 3-tap sums of one RGBA row of width \p w (clamped at the
/// edges), three channels per pixel.
void horizontal_sums(const std::uint8_t* src, int w, std::uint16_t* hs) {
  if (w == 1) {
    hs[0] = src[0];
    hs[1] = src[1];
    hs[2] = src[2];
    return;
  }
  hs[0] = static_cast<std::uint16_t>(src[0] + src[4]);
  hs[1] = static_cast<std::uint16_t>(src[1] + src[5]);
  hs[2] = static_cast<std::uint16_t>(src[2] + src[6]);
  for (int x = 1; x < w - 1; ++x) {
    const std::uint8_t* p = src + 4 * (x - 1);
    std::uint16_t* o = hs + 3 * x;
    o[0] = static_cast<std::uint16_t>(p[0] + p[4] + p[8]);
    o[1] = static_cast<std::uint16_t>(p[1] + p[5] + p[9]);
    o[2] = static_cast<std::uint16_t>(p[2] + p[6] + p[10]);
  }
  const std::uint8_t* p = src + 4 * (w - 2);
  std::uint16_t* o = hs + 3 * (w - 1);
  o[0] = static_cast<std::uint16_t>(p[0] + p[4]);
  o[1] = static_cast<std::uint16_t>(p[1] + p[5]);
  o[2] = static_cast<std::uint16_t>(p[2] + p[6]);
}

}  // namespace

void apply_sepia(Image& img) {
  // Paper §IV (Sepia stage): constants and formula verbatim — the mix
  // weights are (0.3, 0.59, 0.11), the tone ramp S1=(0.2,0.05,0),
  // S2=(1,0.9,0.5). The per-byte products are tabulated once; summing the
  // table entries left-to-right performs the same two products-then-adds
  // the scalar expression did, so the result is bit-identical (the build
  // never contracts into FMA), while the hot loop loses its three
  // divisions and the per-pixel bounds-checked get/set round trips.
  static const SepiaTables lut;
  std::uint8_t* const data = img.data();
  for (std::size_t i = 0; i < img.byte_size(); i += 4) {
    std::uint8_t* p = data + i;
    const float mix = clamp01(lut.r[p[0]] + lut.g[p[1]] + lut.b[p[2]]);
    const float omix = 1.0f - mix;
    p[0] = to_byte(0.2f * omix + 1.0f * mix);
    p[1] = to_byte(0.05f * omix + 0.9f * mix);
    p[2] = to_byte(0.0f * omix + 0.5f * mix);
    // alpha byte untouched
  }
}

void apply_blur(Image& img) {
  // 3x3 box average over the original data (paper §IV, Blur stage). The
  // naive form re-reads nine neighbours per pixel; here each source row's
  // horizontal window sums are computed once into a three-row ring (max
  // 3*255 fits uint16), and each output pixel folds three vertical taps
  // over them. Every pixel's sum and divisor cover exactly the clamped
  // window the naive loop visited — integer arithmetic, so restructuring
  // is exact. Row y + 1 is summed before row y is written, so the ring
  // always holds original data and the blur runs in place.
  const int w = img.width();
  const int h = img.height();
  if (w == 0 || h == 0) return;
  const std::size_t row_sums = static_cast<std::size_t>(w) * 3;
  const std::vector<std::uint16_t> zeros(row_sums, 0);  // off-image rows
  std::vector<std::uint16_t> ring(3 * row_sums);
  const auto ring_row = [&](int y) {
    return ring.data() + static_cast<std::size_t>(y % 3) * row_sums;
  };
  horizontal_sums(img.row(0), w, ring_row(0));
  for (int y = 0; y < h; ++y) {
    if (y + 1 < h) horizontal_sums(img.row(y + 1), w, ring_row(y + 1));
    const std::uint16_t* above = y > 0 ? ring_row(y - 1) : zeros.data();
    const std::uint16_t* cur = ring_row(y);
    const std::uint16_t* below = y + 1 < h ? ring_row(y + 1) : zeros.data();
    const int wy = 1 + (y > 0 ? 1 : 0) + (y + 1 < h ? 1 : 0);
    std::uint8_t* dst = img.row(y);
    const auto emit = [&](int x, auto n) {
      const int i = 3 * x;
      std::uint8_t* o = dst + 4 * x;
      o[0] = static_cast<std::uint8_t>((above[i] + cur[i] + below[i]) / n);
      o[1] = static_cast<std::uint8_t>(
          (above[i + 1] + cur[i + 1] + below[i + 1]) / n);
      o[2] = static_cast<std::uint8_t>(
          (above[i + 2] + cur[i + 2] + below[i + 2]) / n);
      // alpha byte untouched
    };
    emit(0, wy * (w > 1 ? 2 : 1));
    // Interior fast path: a full-width window, whose divisor (3 per row of
    // the window) is a compile-time constant, so the divisions become
    // multiplies.
    const auto interior = [&](auto n3) {
      for (int x = 1; x < w - 1; ++x) emit(x, n3);
    };
    if (wy == 3) {
      interior(std::integral_constant<int, 9>{});
    } else if (wy == 2) {
      interior(std::integral_constant<int, 6>{});
    } else {
      interior(std::integral_constant<int, 3>{});
    }
    if (w > 1) emit(w - 1, wy * 2);
  }
}

ScratchParams ScratchParams::draw(Rng& rng, int image_width,
                                  int max_scratches) {
  SCCPIPE_CHECK(image_width > 0);
  SCCPIPE_CHECK(max_scratches >= 0);
  ScratchParams p;
  p.count = static_cast<int>(rng.below(static_cast<std::uint64_t>(max_scratches) + 1));
  const auto shade = static_cast<std::uint8_t>(rng.below(256));
  p.color = Color{shade, shade, shade, 255};
  p.columns.reserve(static_cast<std::size_t>(p.count));
  for (int i = 0; i < p.count; ++i) {
    p.columns.push_back(
        static_cast<int>(rng.below(static_cast<std::uint64_t>(image_width))));
  }
  return p;
}

void apply_scratches(Image& img, const ScratchParams& params) {
  for (const int x : params.columns) {
    if (x < 0 || x >= img.width()) continue;
    const std::size_t off = static_cast<std::size_t>(x) * 4;
    for (int y = 0; y < img.height(); ++y) {
      std::uint8_t* p = img.row(y) + off;
      p[0] = params.color.r;
      p[1] = params.color.g;
      p[2] = params.color.b;
      // alpha byte untouched
    }
  }
}

FlickerParams FlickerParams::draw(Rng& rng) {
  return FlickerParams{static_cast<float>(rng.uniform(-0.1, 0.1))};
}

void apply_flicker(Image& img, FlickerParams params) {
  // One brightness delta for the whole frame: the 256 possible outputs are
  // tabulated through the exact per-pixel expression, then applied as byte
  // lookups.
  std::array<std::uint8_t, 256> lut{};
  for (int v = 0; v < 256; ++v) {
    lut[static_cast<std::size_t>(v)] =
        to_byte(to_unit(static_cast<std::uint8_t>(v)) + params.delta);
  }
  std::uint8_t* const data = img.data();
  for (std::size_t i = 0; i < img.byte_size(); i += 4) {
    std::uint8_t* p = data + i;
    p[0] = lut[p[0]];
    p[1] = lut[p[1]];
    p[2] = lut[p[2]];
    // alpha byte untouched
  }
}

ScratchParams scratch_params_for_frame(std::uint64_t seed, int frame,
                                       int image_width, int max_scratches) {
  Rng rng{seed ^ (0x5c2a7c00ULL + static_cast<std::uint64_t>(frame))};
  return ScratchParams::draw(rng, image_width, max_scratches);
}

int scratch_count_for_frame(std::uint64_t seed, int frame,
                            int max_scratches) {
  SCCPIPE_CHECK(max_scratches >= 0);
  // The first draw of scratch_params_for_frame's stream.
  Rng rng{seed ^ (0x5c2a7c00ULL + static_cast<std::uint64_t>(frame))};
  return static_cast<int>(
      rng.below(static_cast<std::uint64_t>(max_scratches) + 1));
}

FlickerParams flicker_params_for_frame(std::uint64_t seed, int frame) {
  Rng rng{seed ^ (0xf11c4e00ULL + static_cast<std::uint64_t>(frame))};
  return FlickerParams::draw(rng);
}

OrientedScratchParams OrientedScratchParams::draw(Rng& rng, int width,
                                                  int height,
                                                  int max_scratches) {
  SCCPIPE_CHECK(width > 0 && height > 0);
  SCCPIPE_CHECK(max_scratches >= 0);
  OrientedScratchParams p;
  const int count =
      static_cast<int>(rng.below(static_cast<std::uint64_t>(max_scratches) + 1));
  const auto shade = static_cast<std::uint8_t>(rng.below(256));
  const float diag = std::sqrt(static_cast<float>(width) * width +
                               static_cast<float>(height) * height);
  p.scratches.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    OrientedScratch s;
    s.x0 = static_cast<float>(rng.uniform(0.0, width));
    s.y0 = static_cast<float>(rng.uniform(0.0, height));
    const float angle = static_cast<float>(rng.uniform(0.0, 6.2831853));
    const float len = static_cast<float>(rng.uniform(0.1, 0.5)) * diag;
    s.x1 = s.x0 + len * std::cos(angle);
    s.y1 = s.y0 + len * std::sin(angle);
    s.color = Color{shade, shade, shade, 255};
    p.scratches.push_back(s);
  }
  return p;
}

OrientedScratchParams oriented_scratch_params_for_frame(std::uint64_t seed,
                                                        int frame, int width,
                                                        int height,
                                                        int max_scratches) {
  Rng rng{seed ^ (0x0513a7c4e000ULL + static_cast<std::uint64_t>(frame))};
  return OrientedScratchParams::draw(rng, width, height, max_scratches);
}

void apply_oriented_scratches(Image& img, const OrientedScratchParams& params,
                              int strip_y0) {
  SCCPIPE_CHECK(strip_y0 >= 0);
  // Integer DDA over full-frame coordinates; the pixel rounding depends
  // only on the segment, never on the strip window, so strip-wise and
  // whole-frame application paint identical pixels.
  for (const OrientedScratch& s : params.scratches) {
    const float dx = s.x1 - s.x0;
    const float dy = s.y1 - s.y0;
    const int steps =
        1 + static_cast<int>(std::max(std::fabs(dx), std::fabs(dy)));
    for (int i = 0; i <= steps; ++i) {
      const float t = static_cast<float>(i) / static_cast<float>(steps);
      const int x = static_cast<int>(std::lround(s.x0 + t * dx));
      const int y = static_cast<int>(std::lround(s.y0 + t * dy));
      const int row = y - strip_y0;
      if (x < 0 || x >= img.width() || row < 0 || row >= img.height()) {
        continue;
      }
      std::uint8_t* p = img.row(row) + static_cast<std::size_t>(x) * 4;
      p[0] = s.color.r;
      p[1] = s.color.g;
      p[2] = s.color.b;
      // alpha byte untouched
    }
  }
}

void apply_vflip(Image& img) {
  // Line-buffer swap, exactly the paper's three-copy scheme.
  const int h = img.height();
  const std::size_t row_bytes = img.row_bytes();
  std::vector<std::uint8_t> line(row_bytes);
  for (int i = 0; i < h / 2; ++i) {
    std::uint8_t* row_i = img.row(i);
    std::uint8_t* row_j = img.row(h - 1 - i);
    std::copy_n(row_i, row_bytes, line.data());
    std::copy_n(row_j, row_bytes, row_i);
    std::copy_n(line.data(), row_bytes, row_j);
  }
}

}  // namespace sccpipe
