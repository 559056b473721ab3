#pragma once

/// \file octree.hpp
/// Hierarchical spatial index over the scene triangles (paper §IV: "it
/// loads the scene and organizes the different objects in a hierarchical
/// data structure known as an octree ... it performs a frustum culling. By
/// doing this the octree is traversed, causing significant memory
/// accesses"). The traversal statistics feed the render stage's
/// latency-bound memory cost in the timed model.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sccpipe/geom/frustum.hpp"
#include "sccpipe/scene/mesh.hpp"

namespace sccpipe {

struct OctreeConfig {
  int max_depth = 10;
  int max_tris_per_leaf = 24;
};

struct CullStats {
  std::uint32_t nodes_visited = 0;
  std::uint32_t tris_accepted = 0;
  std::uint32_t nodes_total = 0;
};

class Octree {
 public:
  Octree() = default;
  Octree(const Mesh& mesh, OctreeConfig cfg = {});

  bool built() const { return !nodes_.empty(); }
  std::size_t node_count() const { return nodes_.size(); }
  int depth() const { return depth_; }
  const Aabb& bounds() const;

  /// Indices of triangles whose nodes intersect the frustum, appended to
  /// \p out (may contain conservative extras, never misses a visible one).
  void cull(const Frustum& frustum, std::vector<std::uint32_t>& out,
            CullStats* stats = nullptr) const;

  /// Most frusta one cull_multi() pass takes (one bit of a 64-bit mask each).
  static constexpr std::size_t kMaxMultiFrusta = 64;

  /// cull_multi()'s visitor: the resident triangles of one accepted node
  /// and the set of frusta accepting it (bit i = frusta[i]).
  using MultiVisit =
      std::function<void(std::span<const std::uint32_t>, std::uint64_t)>;

  /// cull() for 1..kMaxMultiFrusta frusta in one traversal. Each frustum is
  /// classified on its own, with per-node masks of the frusta still live
  /// and of those wholly containing the node; nodes are visited in cull()'s
  /// pre-order. So the triangles \p visit reports with bit i set, in call
  /// order, are exactly what cull(frusta[i]) appends, and \p stats[i] (one
  /// per frustum, overwritten) is exactly its CullStats.
  void cull_multi(std::span<const Frustum> frusta, const MultiVisit& visit,
                  std::span<CullStats> stats) const;

  /// Sum of triangle references across all nodes (>= mesh size; duplicates
  /// impossible since each triangle lives in exactly one node).
  std::size_t stored_triangles() const;

 private:
  struct Node {
    Aabb box;
    std::int32_t children[8] = {-1, -1, -1, -1, -1, -1, -1, -1};
    std::vector<std::uint32_t> tris;  // triangles resident at this node
    bool is_leaf = true;
  };

  void build(const Mesh& mesh, std::int32_t node_index,
             std::vector<std::uint32_t> tris, int depth);
  void cull_node(std::int32_t node_index, const Frustum& frustum,
                 bool fully_inside, std::vector<std::uint32_t>& out,
                 CullStats* stats) const;
  void cull_node_multi(std::int32_t node_index,
                       std::span<const Frustum> frusta, std::uint64_t live,
                       std::uint64_t inside, const MultiVisit& visit,
                       std::span<CullStats> stats) const;
  static Aabb octant_box(const Aabb& parent, Vec3 center, int oct);

  OctreeConfig cfg_;
  std::vector<Node> nodes_;
  std::vector<Aabb> tri_bounds_;  // scratch during build only
  int depth_ = 0;
};

}  // namespace sccpipe
