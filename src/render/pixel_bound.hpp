#pragma once

/// \file pixel_bound.hpp
/// Private to src/render: the one float-to-int cast of a triangle's pixel
/// bounding box, shared by the rasterizer and its reference.

#include <climits>

namespace sccpipe {

/// int(v) for a floor- or ceil-rounded screen coordinate, or INT_MIN when
/// v is NaN or outside int's range. INT_MIN is what x86's truncating
/// conversion already yields there, so such a box draws what it drew
/// before, without the undefined cast.
inline int pixel_bound(float v) {
  constexpr float kLimit = 2147483648.0f;  // 2^31
  return v >= -kLimit && v < kLimit ? static_cast<int>(v) : INT_MIN;
}

}  // namespace sccpipe
