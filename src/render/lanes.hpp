#pragma once

// Four-lane generic vectors (GCC/Clang) shared by the render kernels:
// baseline SSE2 on x86-64 at -O2 and -O3 alike, where the autovectorizer
// leaves plain loops scalar at -O2. No intrinsics, runtime dispatch or
// -march. A kernel written on them performs, in each lane, its scalar
// expression's operations in the same order, with true division and no
// contraction, so every lane is bit-equal to the scalar result.

#include <bit>
#include <cstdint>

namespace sccpipe::lanes {

using F4 = float __attribute__((vector_size(16)));
using I4 = std::int32_t __attribute__((vector_size(16)));

inline F4 splat(float v) { return F4{v, v, v, v}; }

/// Lane-wise \p m ? \p a : \p b for an all-ones/all-zeros lane mask.
inline F4 select(I4 m, F4 a, F4 b) {
  return std::bit_cast<F4>((m & std::bit_cast<I4>(a)) |
                           (~m & std::bit_cast<I4>(b)));
}

inline I4 select(I4 m, I4 a, I4 b) { return (m & a) | (~m & b); }

}  // namespace sccpipe::lanes
