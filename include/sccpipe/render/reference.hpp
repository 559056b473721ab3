#pragma once

/// \file reference.hpp
/// Naive reference rasterizer — the per-pixel edge-function form the
/// optimised inner loop in rasterizer.cpp replaced — and the one-strip
/// workload estimate that Renderer::estimate_strips replaced. Kept compiled
/// for the equivalence tests (bit-identical framebuffers on seeded random
/// triangle batches, bit-identical strip estimates) and the perf baseline's
/// optimised-vs-reference ratios. See filters/reference.hpp for the
/// rationale; the same "do not optimise this" rule applies.

#include "sccpipe/render/rasterizer.hpp"
#include "sccpipe/render/renderer.hpp"

namespace sccpipe::reference {

void draw_triangle_clip(Framebuffer& fb, const Viewport& vp, Vec4 c0, Vec4 c1,
                        Vec4 c2, Color col, RasterStats* stats = nullptr);

/// One strip's workload estimate as its own octree cull and a full
/// Mat4 * Vec4 transform of every accepted triangle.
RenderStats estimate_strip(const Renderer& renderer, const Mat4& view,
                           StripRange strip);

}  // namespace sccpipe::reference
