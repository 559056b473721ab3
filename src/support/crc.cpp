#include "sccpipe/support/crc.hpp"

#include <array>

#include "sccpipe/support/reference.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SCCPIPE_CRC_CLMUL 1
#endif

namespace sccpipe {

namespace {

/// Byte-at-a-time table for the reflected IEEE polynomial, generated once.
const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

/// Advances the (pre-inverted) CRC register one byte at a time.
std::uint32_t advance_bytes(std::uint32_t state, const unsigned char* p,
                            std::size_t size) {
  const auto& table = crc_table();
  for (std::size_t i = 0; i < size; ++i) {
    state = table[(state ^ p[i]) & 0xffu] ^ (state >> 8);
  }
  return state;
}

#ifdef SCCPIPE_CRC_CLMUL

/// The fold starts from four 16-byte lanes; shorter buffers take the loop.
constexpr std::size_t kClmulMinBytes = 64;

#define SCCPIPE_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

SCCPIPE_CLMUL_TARGET inline __m128i load(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// x.lo * k.lo ^ x.hi * k.hi ^ next: one 128-bit lane moved forward.
SCCPIPE_CLMUL_TARGET inline __m128i fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Folds \p size bytes (>= 64, a multiple of 16) into the CRC register with
/// carry-less multiplies: four 128-bit lanes fold 64 bytes per step, then
/// collapse to one lane, fold the 16-byte remainder, and Barrett-reduce to
/// 32 bits. Constants are x^n mod P for the bit-reflected polynomial, from
/// Gopal et al., "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ Instruction" (Intel, 2009).
SCCPIPE_CLMUL_TARGET std::uint32_t fold_clmul(std::uint32_t state,
                                              const unsigned char* p,
                                              std::size_t size) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);  // mu, P'
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  size -= 64;
  for (; size >= 64; p += 64, size -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; size >= 16; p += 16, size -= 16) x1 = fold(x1, k3k4, load(p));

  // 128 -> 64 bits, then 64 -> 32 via k5, then the Barrett reduction.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_srli_si128(x1, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

/// Chosen once, at first use: the thread-safe static makes concurrent
/// first calls agree.
bool clmul_supported() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return supported;
}

/// Long buffers: fold the 16-byte multiple, finish the tail on the byte
/// loop.
[[gnu::noinline]] void advance_long(std::uint32_t& state,
                                   const unsigned char* p, std::size_t size) {
  if (!clmul_supported()) {
    state = advance_bytes(state, p, size);
    return;
  }
  const std::size_t folded = size & ~std::size_t{15};
  state = advance_bytes(fold_clmul(state, p, folded), p + folded,
                        size - folded);
}

#endif  // SCCPIPE_CRC_CLMUL

/// Advances the CRC register in place. The long path is out of line and
/// the register goes by reference so that a short buffer (every token
/// header) costs the byte loop plus one compare, with no register saves.
void advance(std::uint32_t& state, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
#ifdef SCCPIPE_CRC_CLMUL
  if (size >= kClmulMinBytes) return advance_long(state, p, size);
#endif
  state = advance_bytes(state, p, size);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  std::uint32_t state = seed ^ 0xffffffffu;
  advance(state, data, size);
  return state ^ 0xffffffffu;
}

void Crc32::update(const void* data, std::size_t size) {
  advance(state_, data, size);
}

std::uint32_t reference::crc32(const void* data, std::size_t size,
                               std::uint32_t seed) {
  return advance_bytes(seed ^ 0xffffffffu,
                       static_cast<const unsigned char*>(data), size) ^
         0xffffffffu;
}

}  // namespace sccpipe
