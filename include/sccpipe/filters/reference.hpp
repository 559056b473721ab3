#pragma once

/// \file reference.hpp
/// Naive reference implementations of the filter kernels — the
/// straightforward per-pixel get/set forms the optimised kernels in
/// filters.cpp replaced. They are kept compiled (not #ifdef'd out) for two
/// jobs:
///
///  * golden-equivalence tests assert the optimised kernels are
///    bit-identical to these on seeded random images;
///  * bench/perf_baseline measures optimised-vs-reference speedups on the
///    same machine, which is the machine-independent ratio the CI perf
///    gate checks.
///
/// Do not "fix" or speed these up: their value is being the obviously
/// correct transcription of the paper's §IV formulas.

#include <cstdint>

#include "sccpipe/filters/filters.hpp"

namespace sccpipe::reference {

void apply_sepia(Image& img);
void apply_blur(Image& img);
/// apply_blur's kernel on raw RGBA pixels: \p dst becomes the 3x3 box blur
/// of \p src (w x h, 4 bytes per pixel, no overlap). apply_blur(img) runs
/// it from a fresh copy of img; bench/perf_baseline runs it on fixed
/// buffers so its speed does not depend on where a copy lands.
void apply_blur(const std::uint8_t* src, std::uint8_t* dst, int w, int h);
void apply_scratches(Image& img, const ScratchParams& params);
void apply_flicker(Image& img, FlickerParams params);
void apply_oriented_scratches(Image& img, const OrientedScratchParams& params,
                              int strip_y0 = 0);
void apply_vflip(Image& img);

}  // namespace sccpipe::reference
