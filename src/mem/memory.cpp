#include "sccpipe/mem/memory.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace sccpipe {

MemorySystem::MemorySystem(Simulator& sim, const MeshTopology& topo,
                           MeshModel& mesh, MeshFabric& fabric,
                           MemoryConfig cfg)
    : sim_(sim),
      topo_(topo),
      mesh_(mesh),
      fabric_(fabric),
      cfg_(cfg) {
  SCCPIPE_CHECK(cfg_.mc_bandwidth_bytes_per_sec > 0.0);
  const int n = topo_.mc_count();
  latency_streams_.assign(static_cast<std::size_t>(n), 0);
  stats_.resize(static_cast<std::size_t>(n));
  rebuild_mcs();
}

void MemorySystem::rebuild_mcs() {
  mcs_.clear();
  const int n = topo_.mc_count();
  mcs_.reserve(static_cast<std::size_t>(n));
  for (McId m = 0; m < n; ++m) {
    mcs_.push_back(std::make_unique<FairShareResource>(
        sim_, "mc" + std::to_string(m), cfg_.mc_bandwidth_bytes_per_sec));
  }
}

void MemorySystem::bulk(CoreId core, double bytes, double core_rate_cap,
                        BulkCallback on_done) {
  SCCPIPE_CHECK(topo_.valid_core(core));
  SCCPIPE_CHECK(bytes >= 0.0);
  SCCPIPE_CHECK(on_done != nullptr);
  // Located chain (caller executes at the issuing core's tile):
  //   1. hop to the host bridge — the mesh model is host-owned, so the
  //      route charge and the fault-layer admission decision happen there;
  //   2. located post to the controller's tile, delayed by the head
  //      latency (mesh contention + any MC outage window) plus transit —
  //      the flow then queues on the controller's fair-share queue;
  //   3. completion hops back to the core's tile, where on_done runs. The
  //      controller completes flows in plain events, which execute at the
  //      bridge, so that hop leaves from the bridge — except for a flow
  //      too small to queue, which completes at once at the controller.
  fabric_.hop(fabric_.core_tile(core), fabric_.bridge_site(),
              [this, core, bytes, core_rate_cap,
               cb = std::move(on_done)]() mutable {
    const McId mc = topo_.home_mc(core);
    McStats& st = stats_[static_cast<std::size_t>(mc)];
    st.bulk_bytes += bytes;
    ++st.bulk_flows;
    // Charge the mesh route between the core's tile and the controller;
    // this advances link horizons (contention) and yields the extra head
    // latency the stream pays before DRAM starts answering.
    const SimTime now = fabric_.now();
    const SimTime mesh_done = mesh_.transfer(now, topo_.core_coord(core),
                                             topo_.mc_position(mc), bytes);
    const SimTime mesh_extra = mesh_done - now;
    // Fault layer: a stalled controller admits the flow only once its
    // outage window ends; a degraded one serves it at a fraction of its
    // bandwidth (modelled as service-time inflation on this flow).
    double service_bytes = bytes;
    SimTime admit_at = now;
    if (fault_ != nullptr && fault_->enabled()) {
      admit_at = fault_->mc_available(mc, now);
      service_bytes = bytes * fault_->mc_slowdown(mc, admit_at);
    }
    const TileId mc_tile = fabric_.home_mc_tile(core);
    const SimTime start = max(now, admit_at) + mesh_extra +
                          fabric_.transit(fabric_.bridge_site(), mc_tile);
    const TileId done_from =
        FairShareResource::completes_at_once(service_bytes)
            ? mc_tile
            : fabric_.bridge_site();
    fabric_.post_at(fabric_.bridge_site(), mc_tile, start,
                    [this, core, done_from, service_bytes, core_rate_cap,
                     cb = std::move(cb)]() mutable {
      const auto mci = static_cast<std::size_t>(topo_.home_mc(core));
      mcs_[mci]->start_flow(
          service_bytes,
          [this, core, done_from, cb = std::move(cb)]() mutable {
            fabric_.hop(done_from, fabric_.core_tile(core), std::move(cb));
          },
          core_rate_cap);
    });
  });
}

SimTime MemorySystem::latency_bound(CoreId core, double n_accesses) const {
  SCCPIPE_CHECK(topo_.valid_core(core));
  SCCPIPE_CHECK(n_accesses >= 0.0);
  const McId mc = topo_.home_mc(core);
  const int hops = topo_.home_mc_hops(core);
  const double load = mc_load(mc);
  const double inflation = std::min(
      cfg_.latency_contention_cap,
      1.0 + cfg_.latency_contention_coeff * (load > 1.0 ? load - 1.0 : 0.0));
  SimTime per_access = cfg_.base_line_latency * inflation +
                       cfg_.per_hop_latency * static_cast<double>(hops);
  if (fault_ != nullptr && fault_->enabled()) {
    per_access = per_access * fault_->mc_slowdown(mc, sim_.now());
  }
  return per_access * n_accesses;
}

void MemorySystem::register_latency_stream(CoreId core) {
  const auto mc = static_cast<std::size_t>(topo_.home_mc(core));
  ++latency_streams_[mc];
  stats_[mc].latency_streams_peak =
      std::max<std::uint64_t>(stats_[mc].latency_streams_peak,
                              static_cast<std::uint64_t>(latency_streams_[mc]));
}

void MemorySystem::unregister_latency_stream(CoreId core) {
  const auto mc = static_cast<std::size_t>(topo_.home_mc(core));
  SCCPIPE_CHECK_MSG(latency_streams_[mc] > 0, "unbalanced unregister");
  --latency_streams_[mc];
}

double MemorySystem::mc_load(McId mc) const {
  const auto i = static_cast<std::size_t>(mc);
  SCCPIPE_CHECK(mc >= 0 && mc < topo_.mc_count());
  return static_cast<double>(mcs_[i]->active_flows()) +
         static_cast<double>(latency_streams_[i]);
}

const McStats& MemorySystem::stats(McId mc) const {
  SCCPIPE_CHECK(mc >= 0 && mc < topo_.mc_count());
  return stats_[static_cast<std::size_t>(mc)];
}

}  // namespace sccpipe
