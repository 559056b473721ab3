#include "sccpipe/noc/fabric.hpp"

#include "sccpipe/support/check.hpp"

namespace sccpipe {

MeshFabric::MeshFabric(Simulator& sim, const MeshLayout& layout,
                       SimTime hop_latency)
    : sim_(sim) {
  SCCPIPE_CHECK_MSG(hop_latency > SimTime::zero(),
                    "fabric needs a positive hop latency");
  const MeshTopology topo(layout);
  tiles_ = topo.tile_count();
  bridge_ = topo.tile_at(TileCoord{0, layout.height - 1});
  transit_.reserve(static_cast<std::size_t>(tiles_) *
                   static_cast<std::size_t>(tiles_));
  for (TileId from = 0; from < tiles_; ++from) {
    for (TileId to = 0; to < tiles_; ++to) {
      transit_.push_back(
          hop_latency *
          static_cast<double>(
              topo.hop_distance(topo.coord_of(from), topo.coord_of(to))));
    }
  }
  for (CoreId core = 0; core < topo.core_count(); ++core) {
    core_tile_.push_back(topo.tile_of(core));
    home_mc_tile_.push_back(
        topo.tile_at(topo.mc_position(topo.home_mc(core))));
  }
}

void MeshFabric::check_post(TileId from, TileId to, SimTime when) const {
  SCCPIPE_CHECK_MSG(when >= now() + transit(from, to),
                    "post_at(" << when.to_string()
                               << ") undercuts the transit time from site "
                               << from << " to " << to);
}

}  // namespace sccpipe
