#pragma once

/// \file renderer.hpp
/// The render stage's engine: frustum-cull the octree, transform the
/// surviving triangles, rasterize into a strip-sized frame buffer. Also
/// provides the cheap workload *estimation* path the timed benches use —
/// identical culling, but projected-area accounting instead of per-pixel
/// rasterization (the discrete-event model only needs the counts).

#include <cstdint>
#include <span>

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
  /// per strip. Bit-identical to estimating each strip on its own
  /// (reference::estimate_strip).
  void estimate_strips(const Mat4& view, std::span<const StripRange> strips,
                       std::span<RenderStats> out) const;

  /// One-strip estimate_strips().
  RenderStats estimate_strip(const Mat4& view, StripRange strip) const;

  const Mesh& mesh() const { return mesh_; }
  const Octree& octree() const { return octree_; }

 private:
  Color shade(const Triangle& t) const;

  const Mesh& mesh_;
  const Octree& octree_;
  CameraConfig camera_;
  int width_;
  int height_;
  LightingConfig lighting_;
  Vec3 light_dir_;  ///< normalised lighting_.direction
};

}  // namespace sccpipe
