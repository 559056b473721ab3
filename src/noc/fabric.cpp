#include "sccpipe/noc/fabric.hpp"

#include <utility>

#include "sccpipe/support/check.hpp"

namespace sccpipe {

MeshFabric::MeshFabric(Simulator& sim, const MeshLayout& layout,
                       SimTime hop_latency)
    : sim_(sim), topo_(layout), hop_latency_(hop_latency) {
  SCCPIPE_CHECK_MSG(hop_latency > SimTime::zero(),
                    "fabric needs a positive hop latency");
  bridge_ = topo_.tile_at(TileCoord{0, layout.height - 1});
  site_ = bridge_;
}

SimTime MeshFabric::transit(TileId from, TileId to) const {
  return hop_latency_ *
         static_cast<double>(
             topo_.hop_distance(topo_.coord_of(from), topo_.coord_of(to)));
}

void MeshFabric::schedule(TileId site, SimTime when, FabricCallback fn) {
  sim_.schedule_at(when, [this, site, f = std::move(fn)]() mutable {
    site_ = site;
    f();
    site_ = bridge_;
  });
}

void MeshFabric::hop(TileId to, FabricCallback fn) {
  schedule(to, now() + transit(current_site(), to), std::move(fn));
}

void MeshFabric::post_at(TileId to, SimTime when, FabricCallback fn) {
  SCCPIPE_CHECK_MSG(when >= now() + transit(current_site(), to),
                    "post_at(" << when.to_string()
                               << ") undercuts the transit time from site "
                               << current_site() << " to " << to);
  schedule(to, when, std::move(fn));
}

void MeshFabric::after(SimTime delay, FabricCallback fn) {
  schedule(current_site(), now() + delay, std::move(fn));
}

}  // namespace sccpipe
