#pragma once

/// \file reference.hpp
/// Naive reference rasterizer — the per-pixel edge-function form the
/// optimised inner loop in rasterizer.cpp replaced — the one-strip
/// workload estimate that Renderer::estimate_strips replaced, and the
/// flat shading formula, which the Renderer calls once per triangle to fill
/// its colour cache. Kept compiled for the equivalence tests (bit-identical
/// framebuffers on seeded random triangle batches, bit-identical strip
/// estimates) and the perf baseline's optimised-vs-reference ratios. See
/// filters/reference.hpp for the rationale; the same "do not optimise this"
/// rule applies.

#include "sccpipe/render/rasterizer.hpp"
#include "sccpipe/render/renderer.hpp"

namespace sccpipe::reference {

void draw_triangle_clip(Framebuffer& fb, const Viewport& vp, Vec4 c0, Vec4 c1,
                        Vec4 c2, Color col, RasterStats* stats = nullptr);

/// \p t's flat (two-sided Lambert) colour under \p lighting, the light
/// direction normalised on every call; \p t's own colour when lighting is
/// disabled.
Color shade(const Triangle& t, const LightingConfig& lighting);

/// One strip's workload estimate as its own octree cull and a full
/// Mat4 * Vec4 transform of every accepted triangle.
RenderStats estimate_strip(const Renderer& renderer, const Mat4& view,
                           StripRange strip);

}  // namespace sccpipe::reference
