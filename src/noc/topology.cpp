#include "sccpipe/noc/topology.hpp"

#include <cstdlib>

namespace sccpipe {

MeshTopology::MeshTopology(MeshLayout layout) : layout_(std::move(layout)) {
  SCCPIPE_CHECK(layout_.width > 0 && layout_.height > 0);
  SCCPIPE_CHECK(layout_.cores_per_tile > 0);
  SCCPIPE_CHECK(!layout_.mc_positions.empty());
  for (const TileCoord& mc : layout_.mc_positions) {
    SCCPIPE_CHECK_MSG(mc.x >= 0 && mc.x < layout_.width && mc.y >= 0 &&
                          mc.y < layout_.height,
                      "MC position (" << mc.x << ',' << mc.y
                                      << ") outside mesh");
  }
  const auto n_tiles = static_cast<std::size_t>(tile_count());
  tile_home_mc_.reserve(n_tiles);
  tile_home_hops_.reserve(n_tiles);
  for (TileId t = 0; t < tile_count(); ++t) {
    const TileCoord c = coord_of(t);
    McId best = 0;
    int best_dist = hop_distance(c, layout_.mc_positions[0]);
    for (McId m = 1; m < mc_count(); ++m) {
      const int d =
          hop_distance(c, layout_.mc_positions[static_cast<std::size_t>(m)]);
      if (d < best_dist) {
        best = m;
        best_dist = d;
      }
    }
    tile_home_mc_.push_back(best);
    tile_home_hops_.push_back(best_dist);
  }
}

void MeshTopology::check_core(CoreId core) const {
  SCCPIPE_CHECK_MSG(valid_core(core), "core " << core);
}

TileCoord MeshTopology::mc_position(McId mc) const {
  SCCPIPE_CHECK(mc >= 0 && mc < mc_count());
  return layout_.mc_positions[static_cast<std::size_t>(mc)];
}

McId MeshTopology::home_mc(CoreId core) const {
  return tile_home_mc_[static_cast<std::size_t>(tile_of(core))];
}

int MeshTopology::home_mc_hops(CoreId core) const {
  return tile_home_hops_[static_cast<std::size_t>(tile_of(core))];
}

int MeshTopology::hop_distance(TileCoord a, TileCoord b) const {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

std::vector<LinkId> MeshTopology::route(TileCoord from, TileCoord to) const {
  std::vector<LinkId> links;
  links.reserve(static_cast<std::size_t>(hop_distance(from, to)));
  TileCoord cur = from;
  while (cur.x != to.x) {
    const Direction d = cur.x < to.x ? Direction::East : Direction::West;
    links.push_back(LinkId{cur, d});
    cur.x += cur.x < to.x ? 1 : -1;
  }
  while (cur.y != to.y) {
    const Direction d = cur.y < to.y ? Direction::South : Direction::North;
    links.push_back(LinkId{cur, d});
    cur.y += cur.y < to.y ? 1 : -1;
  }
  return links;
}

int MeshTopology::link_index(const LinkId& link) const {
  const TileId tile = tile_at(link.from);
  return tile * 4 + static_cast<int>(link.dir);
}

}  // namespace sccpipe
