#pragma once

/// \file workload.hpp
/// Scene construction and the per-frame/per-strip workload trace. The timed
/// benches never rasterize: the trace carries the octree-cull statistics
/// and projected coverage for every frame at each strip count it was built
/// for, measured once by the real culling code, and the discrete-event
/// model prices them.

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "sccpipe/core/stage.hpp"
#include "sccpipe/render/renderer.hpp"
#include "sccpipe/scene/camera.hpp"
#include "sccpipe/scene/city.hpp"
#include "sccpipe/scene/octree.hpp"

namespace sccpipe {

/// Owns the scene and everything derived from it. Build once, share across
/// runs (immutable afterwards).
class SceneBundle {
 public:
  SceneBundle(CityParams city, CameraConfig camera, int image_side,
              int frame_count);

  const Mesh& mesh() const { return mesh_; }
  const Octree& octree() const { return octree_; }
  const Renderer& renderer() const { return renderer_; }
  const WalkthroughPath& path() const { return path_; }
  const CameraConfig& camera() const { return camera_; }
  const CityParams& city() const { return city_; }
  int image_side() const { return side_; }
  int frame_count() const { return frames_; }
  double frame_bytes() const {
    return static_cast<double>(side_) * side_ * 4.0;
  }

 private:
  CityParams city_;
  CameraConfig camera_;
  int side_;
  int frames_;
  Mesh mesh_;
  Octree octree_;
  Renderer renderer_;
  WalkthroughPath path_;
};

/// A set of strip counts k, 1 <= k <= kMax, kept as a bitmask (bit k).
class StripCounts {
 public:
  static constexpr int kMax = 31;

  StripCounts() = default;
  explicit StripCounts(std::initializer_list<int> ks);
  /// {1, 2, ..., max_k}: the all-k set the paper grids read.
  static StripCounts up_to(int max_k);

  /// CHECKs 1 <= k <= kMax.
  void insert(int k);
  bool contains(int k) const {
    return k >= 1 && k <= kMax && (mask_ >> k & 1u) != 0;
  }
  int max() const;                  ///< 0 for the empty set
  std::vector<int> values() const;  ///< ascending
  std::string to_string() const;    ///< "{1,4}"

  friend bool operator==(const StripCounts&, const StripCounts&) = default;

 private:
  std::uint32_t mask_ = 0;
};

/// Render workload for every (frame, strip) pair at each strip count of a
/// StripCounts set. Reading a strip count the trace was not built for is a
/// CheckError.
class WorkloadTrace {
 public:
  /// Optional parallelism hook for build(): invoked as for_each(n, fn) and
  /// must call fn(i) exactly once for every i in [0, n) before returning
  /// (any order, any thread — frames write disjoint slices, and the result
  /// is bit-identical to a serial build). exec::trace_runner() adapts the
  /// parallel executor to this shape; core itself stays thread-free.
  using ForEachFrame =
      std::function<void(std::size_t, const std::function<void(std::size_t)>&)>;

  /// Runs the estimation pass of the real renderer for every k in
  /// \p strip_counts: one Renderer::estimate_strips call per frame over
  /// all (sum of the k in the set) strips, which walks the octree once per
  /// 64 strips and transforms each accepted triangle's x and w once per
  /// walk. {1, 7} estimates 8 strips per frame in one walk, 1..7 28.
  static WorkloadTrace build(const SceneBundle& scene,
                             const StripCounts& strip_counts,
                             const ForEachFrame& for_each = {});
  /// All strip counts 1..max_k.
  static WorkloadTrace build(const SceneBundle& scene, int max_k,
                             const ForEachFrame& for_each = {}) {
    return build(scene, StripCounts::up_to(max_k), for_each);
  }

  int frame_count() const { return frames_; }
  const StripCounts& strip_counts() const { return counts_; }
  /// Largest strip count built.
  int max_k() const { return counts_.max(); }

  /// Workload of strip \p strip (0-based) when the frame is divided into
  /// \p k strips; \p k must be one of strip_counts().
  const RenderLoad& load(int frame, int k, int strip) const;

  /// Whole-frame workload (k = 1).
  const RenderLoad& whole(int frame) const { return load(frame, 1, 0); }

 private:
  WorkloadTrace(int frames, const StripCounts& strip_counts);
  std::size_t index(int frame, int k, int strip) const;

  int frames_;
  StripCounts counts_;
  std::size_t per_frame_ = 0;
  // frame-major, then ascending built k, then strip
  std::vector<RenderLoad> loads_;
  std::vector<std::size_t> k_offset_;  // indexed by k; valid for built k
};

}  // namespace sccpipe
