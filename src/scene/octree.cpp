#include "sccpipe/scene/octree.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "sccpipe/support/check.hpp"

namespace sccpipe {

Octree::Octree(const Mesh& mesh, OctreeConfig cfg) : cfg_(cfg) {
  SCCPIPE_CHECK_MSG(!mesh.empty(), "octree over empty mesh");
  SCCPIPE_CHECK(cfg_.max_depth >= 0 && cfg_.max_tris_per_leaf > 0);
  nodes_.emplace_back();
  nodes_[0].box = mesh.bounds();
  std::vector<std::uint32_t> all(mesh.size());
  std::iota(all.begin(), all.end(), 0u);
  // Keep a copy of triangle bounds to avoid re-deriving them per split.
  tri_bounds_.reserve(mesh.size());
  for (const Triangle& t : mesh.triangles()) tri_bounds_.push_back(t.bounds());
  build(mesh, 0, std::move(all), 0);
  tri_bounds_.clear();
  tri_bounds_.shrink_to_fit();
}

const Aabb& Octree::bounds() const {
  SCCPIPE_CHECK(built());
  return nodes_[0].box;
}

void Octree::build(const Mesh& mesh, std::int32_t node_index,
                   std::vector<std::uint32_t> tris, int depth) {
  depth_ = std::max(depth_, depth);
  Node& node = nodes_[static_cast<std::size_t>(node_index)];
  if (depth >= cfg_.max_depth ||
      tris.size() <= static_cast<std::size_t>(cfg_.max_tris_per_leaf)) {
    node.tris = std::move(tris);
    node.is_leaf = true;
    return;
  }

  const Vec3 c = node.box.center();
  const Aabb box = node.box;
  std::vector<std::uint32_t> child_tris[8];
  std::vector<std::uint32_t> straddlers;
  for (const std::uint32_t ti : tris) {
    const Aabb& tb = tri_bounds_[ti];
    // Which octant does the triangle's box fall into entirely?
    const Vec3 tc = tb.center();
    const int ox = tc.x >= c.x ? 1 : 0;
    const int oy = tc.y >= c.y ? 1 : 0;
    const int oz = tc.z >= c.z ? 1 : 0;
    const int oct = ox | (oy << 1) | (oz << 2);
    // A triangle goes down only if it fits its octant; otherwise it stays
    // resident here (each triangle is referenced exactly once).
    const Aabb ob = octant_box(box, c, oct);
    if (ob.lo.x <= tb.lo.x && ob.lo.y <= tb.lo.y && ob.lo.z <= tb.lo.z &&
        ob.hi.x >= tb.hi.x && ob.hi.y >= tb.hi.y && ob.hi.z >= tb.hi.z) {
      child_tris[oct].push_back(ti);
    } else {
      straddlers.push_back(ti);
    }
  }

  // Degenerate split (everything straddles or lands in one octant):
  // terminate to avoid useless depth.
  std::size_t moved = 0;
  for (const auto& ct : child_tris) moved += ct.size();
  if (moved == 0) {
    node.tris = std::move(tris);
    node.is_leaf = true;
    return;
  }

  node.tris = std::move(straddlers);
  node.is_leaf = false;
  for (int oct = 0; oct < 8; ++oct) {
    if (child_tris[oct].empty()) continue;
    const auto child_index = static_cast<std::int32_t>(nodes_.size());
    // Note: `node` reference may dangle after emplace_back; use indices.
    nodes_[static_cast<std::size_t>(node_index)].children[oct] = child_index;
    Node child;
    child.box = octant_box(box, c, oct);
    nodes_.push_back(std::move(child));
    build(mesh, child_index, std::move(child_tris[oct]), depth + 1);
  }
}

Aabb Octree::octant_box(const Aabb& parent, Vec3 center, int oct) {
  Aabb b;
  b.lo.x = (oct & 1) ? center.x : parent.lo.x;
  b.hi.x = (oct & 1) ? parent.hi.x : center.x;
  b.lo.y = (oct & 2) ? center.y : parent.lo.y;
  b.hi.y = (oct & 2) ? parent.hi.y : center.y;
  b.lo.z = (oct & 4) ? center.z : parent.lo.z;
  b.hi.z = (oct & 4) ? parent.hi.z : center.z;
  return b;
}

void Octree::cull(const Frustum& frustum, std::vector<std::uint32_t>& out,
                  CullStats* stats) const {
  SCCPIPE_CHECK(built());
  if (stats) stats->nodes_total = static_cast<std::uint32_t>(nodes_.size());
  cull_node(0, frustum, false, out, stats);
}

void Octree::cull_node(std::int32_t node_index, const Frustum& frustum,
                       bool fully_inside, std::vector<std::uint32_t>& out,
                       CullStats* stats) const {
  const Node& node = nodes_[static_cast<std::size_t>(node_index)];
  if (stats) ++stats->nodes_visited;
  if (!fully_inside) {
    const CullResult r = frustum.classify(node.box);
    if (r == CullResult::Outside) return;
    fully_inside = (r == CullResult::Inside);
  }
  out.insert(out.end(), node.tris.begin(), node.tris.end());
  if (stats) stats->tris_accepted += static_cast<std::uint32_t>(node.tris.size());
  if (node.is_leaf) return;
  for (const std::int32_t child : node.children) {
    if (child >= 0) cull_node(child, frustum, fully_inside, out, stats);
  }
}

void Octree::cull_multi(std::span<const Frustum> frusta,
                        const MultiVisit& visit,
                        std::span<CullStats> stats) const {
  SCCPIPE_CHECK(built());
  SCCPIPE_CHECK_MSG(!frusta.empty() && frusta.size() <= kMaxMultiFrusta,
                    frusta.size() << " frusta; a pass takes 1.."
                                  << kMaxMultiFrusta);
  SCCPIPE_CHECK(stats.size() == frusta.size());
  for (CullStats& s : stats) {
    s = CullStats{};
    s.nodes_total = static_cast<std::uint32_t>(nodes_.size());
  }
  const std::uint64_t all = frusta.size() == kMaxMultiFrusta
                                ? ~std::uint64_t{0}
                                : (std::uint64_t{1} << frusta.size()) - 1;
  cull_node_multi(0, frusta, all, 0, visit, stats);
}

void Octree::cull_node_multi(std::int32_t node_index,
                             std::span<const Frustum> frusta,
                             std::uint64_t live, std::uint64_t inside,
                             const MultiVisit& visit,
                             std::span<CullStats> stats) const {
  const Node& node = nodes_[static_cast<std::size_t>(node_index)];
  // Every frustum that reached this node visits it, as in cull_node()...
  for (std::uint64_t m = live; m != 0; m &= m - 1) {
    ++stats[static_cast<std::size_t>(std::countr_zero(m))].nodes_visited;
  }
  // ...and those not yet known to contain it classify its box.
  for (std::uint64_t m = live & ~inside; m != 0; m &= m - 1) {
    const int i = std::countr_zero(m);
    const CullResult r = frusta[static_cast<std::size_t>(i)].classify(node.box);
    if (r == CullResult::Outside) live &= ~(std::uint64_t{1} << i);
    if (r == CullResult::Inside) inside |= std::uint64_t{1} << i;
  }
  if (live == 0) return;
  const auto resident = static_cast<std::uint32_t>(node.tris.size());
  for (std::uint64_t m = live; m != 0; m &= m - 1) {
    stats[static_cast<std::size_t>(std::countr_zero(m))].tris_accepted +=
        resident;
  }
  if (resident > 0) visit(node.tris, live);
  if (node.is_leaf) return;
  for (const std::int32_t child : node.children) {
    if (child >= 0) {
      cull_node_multi(child, frusta, live, inside, visit, stats);
    }
  }
}

std::size_t Octree::stored_triangles() const {
  std::size_t n = 0;
  for (const Node& node : nodes_) n += node.tris.size();
  return n;
}

}  // namespace sccpipe
