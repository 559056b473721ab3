#include "sccpipe/noc/fabric.hpp"

#include "sccpipe/support/check.hpp"

namespace sccpipe {

MeshFabric::MeshFabric(Simulator& sim, const MeshLayout& layout,
                       SimTime hop_latency)
    : sim_(sim), topo_(layout), hop_latency_(hop_latency) {
  SCCPIPE_CHECK_MSG(hop_latency > SimTime::zero(),
                    "fabric needs a positive hop latency");
  bridge_ = topo_.tile_at(TileCoord{0, layout.height - 1});
}

SimTime MeshFabric::transit(TileId from, TileId to) const {
  return hop_latency_ *
         static_cast<double>(
             topo_.hop_distance(topo_.coord_of(from), topo_.coord_of(to)));
}

void MeshFabric::check_post(TileId from, TileId to, SimTime when) const {
  SCCPIPE_CHECK_MSG(when >= now() + transit(from, to),
                    "post_at(" << when.to_string()
                               << ") undercuts the transit time from site "
                               << from << " to " << to);
}

}  // namespace sccpipe
