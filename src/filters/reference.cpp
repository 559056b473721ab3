#include "sccpipe/filters/reference.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "sccpipe/geom/vec.hpp"

namespace sccpipe::reference {

namespace {

float to_unit(std::uint8_t v) { return static_cast<float>(v) / 255.0f; }

std::uint8_t to_byte(float v) {
  return static_cast<std::uint8_t>(std::lround(clamp01(v) * 255.0f));
}

}  // namespace

void apply_sepia(Image& img) {
  constexpr Vec3 kS1{0.2f, 0.05f, 0.0f};
  constexpr Vec3 kS2{1.0f, 0.9f, 0.5f};
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      const Color c = img.get(x, y);
      const float r = to_unit(c.r);
      const float g = to_unit(c.g);
      const float b = to_unit(c.b);
      const float mix = clamp01(0.3f * r + 0.59f * g + 0.11f * b);
      const Vec3 rgb = kS1 * (1.0f - mix) + kS2 * mix;
      img.set(x, y, Color{to_byte(rgb.x), to_byte(rgb.y), to_byte(rgb.z), c.a});
    }
  }
}

void apply_blur(Image& img) {
  const Image src = img;
  apply_blur(src.data(), img.data(), img.width(), img.height());
}

void apply_blur(const std::uint8_t* src, std::uint8_t* dst, int w, int h) {
  const auto at = [w](int x, int y) {
    return (static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
            static_cast<std::size_t>(x)) *
           4;
  };
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      int sum_r = 0, sum_g = 0, sum_b = 0, n = 0;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int nx = x + dx;
          const int ny = y + dy;
          if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
          const std::uint8_t* c = src + at(nx, ny);
          sum_r += c[0];
          sum_g += c[1];
          sum_b += c[2];
          ++n;
        }
      }
      std::uint8_t* out = dst + at(x, y);
      out[0] = static_cast<std::uint8_t>(sum_r / n);
      out[1] = static_cast<std::uint8_t>(sum_g / n);
      out[2] = static_cast<std::uint8_t>(sum_b / n);
      out[3] = src[at(x, y) + 3];
    }
  }
}

void apply_scratches(Image& img, const ScratchParams& params) {
  for (const int x : params.columns) {
    if (x < 0 || x >= img.width()) continue;
    for (int y = 0; y < img.height(); ++y) {
      const Color c = img.get(x, y);
      img.set(x, y, Color{params.color.r, params.color.g, params.color.b, c.a});
    }
  }
}

void apply_flicker(Image& img, FlickerParams params) {
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      const Color c = img.get(x, y);
      img.set(x, y, Color{to_byte(to_unit(c.r) + params.delta),
                          to_byte(to_unit(c.g) + params.delta),
                          to_byte(to_unit(c.b) + params.delta), c.a});
    }
  }
}

void apply_oriented_scratches(Image& img, const OrientedScratchParams& params,
                              int strip_y0) {
  SCCPIPE_CHECK(strip_y0 >= 0);
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
      const Color prev = img.get(x, row);
      img.set(x, row, Color{s.color.r, s.color.g, s.color.b, prev.a});
    }
  }
}

void apply_vflip(Image& img) {
  const int w = img.width();
  const int h = img.height();
  const std::size_t row_bytes = static_cast<std::size_t>(w) * 4;
  std::vector<std::uint8_t> line(row_bytes);
  std::uint8_t* data = img.data();
  for (int i = 0; i < h / 2; ++i) {
    const int j = h - 1 - i;
    std::uint8_t* row_i = data + static_cast<std::size_t>(i) * row_bytes;
    std::uint8_t* row_j = data + static_cast<std::size_t>(j) * row_bytes;
    std::copy_n(row_i, row_bytes, line.data());
    std::copy_n(row_j, row_bytes, row_i);
    std::copy_n(line.data(), row_bytes, row_j);
  }
}

}  // namespace sccpipe::reference
