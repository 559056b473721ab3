#pragma once

/// \file renderer.hpp
/// The render stage's engine: frustum-cull the octree, transform the
/// surviving triangles, rasterize into a strip-sized frame buffer. Also
/// provides the cheap workload *estimation* path the timed benches use —
/// identical culling, but projected-area accounting instead of per-pixel
/// rasterization (the discrete-event model only needs the counts).

#include <cstdint>
#include <span>
#include <vector>

#include "sccpipe/render/rasterizer.hpp"
#include "sccpipe/scene/camera.hpp"
#include "sccpipe/scene/octree.hpp"

namespace sccpipe {

struct RenderStats {
  CullStats cull;
  RasterStats raster;
  std::uint64_t triangles_transformed = 0;
  /// Estimated covered pixels (estimation path; == pixels_filled order of
  /// magnitude on the raster path).
  double projected_pixels = 0.0;
};

/// Flat (per-face Lambert) shading — gives the CAD boxes visible faces.
struct LightingConfig {
  bool enabled = true;
  Vec3 direction{0.45f, 0.8f, 0.35f};  ///< towards the light, normalised on use
  float ambient = 0.45f;
};

class Renderer {
 public:
  /// References must outlive the renderer.
  Renderer(const Mesh& mesh, const Octree& octree, CameraConfig camera,
           int frame_width, int frame_height, LightingConfig lighting = {});

  int frame_width() const { return width_; }
  int frame_height() const { return height_; }
  const CameraConfig& camera() const { return camera_; }

  /// Render the rows [strip.y0, strip.y0+rows) of the full frame for the
  /// given view matrix. The returned image has strip.rows rows.
  Image render_strip(const Mat4& view, StripRange strip,
                     RenderStats* stats = nullptr) const;

  /// Full frame convenience.
  Image render(const Mat4& view, RenderStats* stats = nullptr) const;

  /// Workload estimation without rasterization for many strips of one
  /// view: per strip, the same culling and transform counts as a cull with
  /// that strip's adjusted frustum, and projected pixel area instead of
  /// filled pixels. out[i] receives the stats of strips[i]. Strips are
  /// estimated in groups of up to Octree::kMaxMultiFrusta, one octree pass
  /// per group; each accepted triangle's clip x and w (which no strip
  /// adjustment changes) are computed once per pass, leaving only the y row
  /// per strip. An accepted node's triangles are gathered in stack blocks
  /// of up to 128, one float row per vertex coordinate, and transformed
  /// four at a time on generic 4-lane vectors (SSE2 on x86-64); each strip
  /// then sums its triangles' areas in scalar double, in cull order.
  /// Bit-identical to estimating each strip on its own
  /// (reference::estimate_strip).
  void estimate_strips(const Mat4& view, std::span<const StripRange> strips,
                       std::span<RenderStats> out) const;

  /// One-strip estimate_strips().
  RenderStats estimate_strip(const Mat4& view, StripRange strip) const;

  const Mesh& mesh() const { return mesh_; }
  const Octree& octree() const { return octree_; }

  /// The flat-shaded colour mesh triangle \p triangle is drawn in, computed
  /// once at construction by reference::shade under this renderer's
  /// lighting. render_strip reads the cache directly; this accessor is for
  /// the tests that check the cache's indexing.
  Color shade(std::uint32_t triangle) const { return shaded_[triangle]; }

 private:
  const Mesh& mesh_;
  const Octree& octree_;
  CameraConfig camera_;
  int width_;
  int height_;
  std::vector<Color> shaded_;  ///< per mesh triangle
};

}  // namespace sccpipe
