#include "sccpipe/scc/chip.hpp"

#include <algorithm>
#include <memory>

#include "sccpipe/sim/fault.hpp"

namespace sccpipe {

ChipConfig ChipConfig::scc() { return ChipConfig{}; }

ChipConfig ChipConfig::mogon_node() {
  ChipConfig cfg;
  // 64 cores as 32 tiles in an 8x4 grid; the topology is a formality — the
  // links and memory are fast enough that they never bind.
  cfg.mesh_layout.width = 8;
  cfg.mesh_layout.height = 4;
  cfg.mesh_layout.mc_positions = {{0, 0}, {7, 0}, {0, 2}, {7, 2}};
  cfg.mesh_timing.router_latency = SimTime::ns(2);
  cfg.mesh_timing.link_bandwidth_bytes_per_sec = 4.0e10;
  cfg.memory.mc_bandwidth_bytes_per_sec = 2.0e10;
  cfg.memory.base_line_latency = SimTime::ns(8);  // big L3 + prefetchers
  cfg.memory.per_hop_latency = SimTime::ns(0);
  cfg.memory.latency_contention_coeff = 0.02;
  cfg.default_mhz = 1066;  // table level closest in spirit; speed comes from
                           // ipc_factor so the 2.1 GHz clock is folded in.
  cfg.ipc_factor = 4.4;    // 2.1 GHz / 1066 MHz * ~2.2 IPC vs P54C
  cfg.copy_rate_bytes_per_sec = 8.5e9;
  cfg.render_cycles_scale = 0.4;
  // Power: not reported for the cluster in the paper; rough server figures.
  cfg.power.chip_idle_watts = 120.0;
  cfg.power.uncore_active_watts = 30.0;
  cfg.power.core_dynamic_watts_ref = 2.5;
  cfg.power.ref_mhz = 1066;
  return cfg;
}

SccChip::SccChip(Simulator& sim, ChipConfig cfg)
    : sim_(sim),
      cfg_(cfg),
      topo_(cfg.mesh_layout),
      mesh_(topo_, cfg.mesh_timing),
      fabric_(sim, cfg.mesh_layout, cfg.mesh_timing.router_latency),
      mem_(sim, topo_, mesh_, fabric_, cfg.memory),
      power_model_(cfg.power),
      meter_(sim) {
  SCCPIPE_CHECK_MSG(dvfs_.allowed(cfg_.default_mhz),
                    "default frequency " << cfg_.default_mhz);
  tile_mhz_.assign(static_cast<std::size_t>(topo_.tile_count()),
                   cfg_.default_mhz);
  tile_mhz_live_ = tile_mhz_;
  tile_points_.assign(static_cast<std::size_t>(topo_.tile_count()),
                      dvfs_.point_for(cfg_.default_mhz));
  cores_.resize(static_cast<std::size_t>(topo_.core_count()));
  refresh_power();
}

int SccChip::voltage_domain_of(TileId tile) const {
  SCCPIPE_CHECK(tile >= 0 && tile < topo_.tile_count());
  const TileCoord c = topo_.coord_of(tile);
  const int domains_x = (topo_.layout().width + 1) / 2;
  return (c.y / 2) * domains_x + (c.x / 2);
}

void SccChip::set_tile_frequency(TileId tile, int mhz) {
  SCCPIPE_CHECK(tile >= 0 && tile < topo_.tile_count());
  SCCPIPE_CHECK(dvfs_.allowed(mhz));
  // Requested frequency, voltage domains and the power bill are host-side
  // bookkeeping and update synchronously. The tile's live clock is owned
  // by the tile: a mid-run DVFS command crosses the mesh from the bridge
  // (it is issued by host-side control logic) before compute() on that
  // tile sees the new speed.
  tile_mhz_[static_cast<std::size_t>(tile)] = mhz;
  refresh_voltages();
  refresh_power();
  if (fabric_.in_run()) {
    fabric_.hop(fabric_.bridge_site(), tile, [this, tile, mhz] {
      tile_mhz_live_[static_cast<std::size_t>(tile)] = mhz;
    });
  } else {
    tile_mhz_live_[static_cast<std::size_t>(tile)] = mhz;
  }
}

void SccChip::refresh_voltages() {
  // Every tile runs at its requested frequency; its voltage is either its
  // own requirement (PerTile) or the maximum requirement in its 2x2
  // domain (the SCC's real supply granularity).
  for (TileId t = 0; t < topo_.tile_count(); ++t) {
    const auto ti = static_cast<std::size_t>(t);
    OperatingPoint p = dvfs_.point_for(tile_mhz_[ti]);
    if (cfg_.voltage_granularity == VoltageGranularity::PerQuadTileDomain) {
      const int dom = voltage_domain_of(t);
      for (TileId o = 0; o < topo_.tile_count(); ++o) {
        if (voltage_domain_of(o) != dom) continue;
        p.volts = std::max(
            p.volts,
            dvfs_.point_for(tile_mhz_[static_cast<std::size_t>(o)]).volts);
      }
    }
    tile_points_[ti] = p;
  }
}

void SccChip::set_core_frequency(CoreId core, int mhz) {
  set_tile_frequency(topo_.tile_of(core), mhz);
}

OperatingPoint SccChip::operating_point(CoreId core) const {
  return tile_points_[static_cast<std::size_t>(topo_.tile_of(core))];
}

double SccChip::frequency_hz(CoreId core) const {
  return operating_point(core).mhz * 1e6;
}

double SccChip::effective_hz(CoreId core) const {
  return frequency_hz(core) * cfg_.ipc_factor;
}

double SccChip::effective_hz_live(CoreId core) const {
  const auto tile = static_cast<std::size_t>(topo_.tile_of(core));
  return tile_mhz_live_[tile] * 1e6 * cfg_.ipc_factor;
}

double SccChip::copy_rate(CoreId core) const {
  SCCPIPE_CHECK(topo_.valid_core(core));
  return cfg_.copy_rate_bytes_per_sec;
}

void SccChip::allocate_core(CoreId core) {
  SCCPIPE_CHECK(topo_.valid_core(core));
  CoreState& st = cores_[static_cast<std::size_t>(core)];
  SCCPIPE_CHECK_MSG(!st.allocated, "core " << core << " already allocated");
  st.allocated = true;
  refresh_power();
}

void SccChip::release_core(CoreId core) {
  SCCPIPE_CHECK(topo_.valid_core(core));
  CoreState& st = cores_[static_cast<std::size_t>(core)];
  SCCPIPE_CHECK(st.allocated);
  if (st.busy) set_core_busy(core, false);
  st.allocated = false;
  refresh_power();
}

bool SccChip::allocated(CoreId core) const {
  SCCPIPE_CHECK(topo_.valid_core(core));
  return cores_[static_cast<std::size_t>(core)].allocated;
}

int SccChip::allocated_count() const {
  int n = 0;
  for (const CoreState& st : cores_) n += st.allocated ? 1 : 0;
  return n;
}

void SccChip::set_core_busy(CoreId core, bool busy) {
  set_core_busy_at(core, busy, sim_.now());
}

void SccChip::set_core_busy_at(CoreId core, bool busy, SimTime now) {
  SCCPIPE_CHECK(topo_.valid_core(core));
  CoreState& st = cores_[static_cast<std::size_t>(core)];
  if (st.busy == busy) return;
  if (busy) {
    st.busy_since = now;
  } else {
    st.busy_total += now - st.busy_since;
  }
  st.busy = busy;
}

SimTime SccChip::core_busy_time(CoreId core) const {
  SCCPIPE_CHECK(topo_.valid_core(core));
  const CoreState& st = cores_[static_cast<std::size_t>(core)];
  SimTime t = st.busy_total;
  if (st.busy) t += sim_.now() - st.busy_since;
  return t;
}

bool SccChip::core_dead_at(CoreId core, SimTime now) const {
  return fault_ != nullptr && fault_->core_failed(core, now);
}

SimTime SccChip::gray_adjusted(CoreId core, SimTime dur, SimTime now) const {
  if (fault_ == nullptr) return dur;
  // An intermittent stall freezes the core: work arriving mid-window waits
  // the window out (deferred, never dropped), and the core reads as busy
  // for the wait — a frozen core with queued work is occupied, not idle.
  // The slow-core multiplier is sampled at the actual start instant.
  const SimTime start = fault_->core_available(core, now);
  return (start - now) + dur * fault_->core_slowdown(core, start);
}

void SccChip::compute(CoreId core, double ref_cycles,
                      StageCallback on_done) {
  SCCPIPE_CHECK(ref_cycles >= 0.0);
  SCCPIPE_CHECK(on_done != nullptr);
  // Hop from the bridge to the core's tile, run the work there, hop back.
  // A dead core starts nothing and returns nothing.
  fabric_.hop(fabric_.bridge_site(), topo_.tile_of(core),
              [this, core, ref_cycles, cb = std::move(on_done)]() mutable {
    if (core_dead_at(core, fabric_.now())) return;
    const SimTime dur = gray_adjusted(
        core, SimTime::sec(ref_cycles / effective_hz_live(core)),
        fabric_.now());
    set_core_busy_at(core, true, fabric_.now());
    fabric_.after(dur, [this, core, cb = std::move(cb)]() mutable {
      set_core_busy_at(core, false, fabric_.now());
      fabric_.hop(topo_.tile_of(core), fabric_.bridge_site(), std::move(cb));
    });
  });
}

void SccChip::memory_walk(CoreId core, double line_accesses,
                          StageCallback on_done) {
  SCCPIPE_CHECK(on_done != nullptr);
  // Split the walk into segments, re-sampling the controller load at each
  // boundary: a long traversal sees the average congestion over its
  // lifetime, not whatever happened to be in flight the instant it began.
  constexpr int kSegments = 4;
  // Busy accounting at the core's tile, then the dependent-miss segments
  // at the home controller's tile, where the walker registration and load
  // sampling execute.
  fabric_.hop(fabric_.bridge_site(), topo_.tile_of(core),
              [this, core, line_accesses, cb = std::move(on_done)]() mutable {
    if (core_dead_at(core, fabric_.now())) return;
    set_core_busy_at(core, true, fabric_.now());
    fabric_.hop(topo_.tile_of(core), home_mc_tile(core),
                [this, core, line_accesses, cb = std::move(cb)]() mutable {
      mem_.register_latency_stream(core);
      walk_step(WalkState{core, line_accesses / kSegments, kSegments,
                          std::move(cb)});
    });
  });
}

void SccChip::walk_step(WalkState st) {
  if (st.remaining == 0) {
    mem_.unregister_latency_stream(st.core);
    fabric_.hop(home_mc_tile(st.core), topo_.tile_of(st.core),
                [this, core = st.core, cb = std::move(st.on_done)]() mutable {
      set_core_busy_at(core, false, fabric_.now());
      fabric_.hop(topo_.tile_of(core), fabric_.bridge_site(), std::move(cb));
    });
    return;
  }
  --st.remaining;
  const SimTime dur = gray_adjusted(
      st.core, mem_.latency_bound(st.core, st.per_segment), fabric_.now());
  fabric_.after(dur, [this, st = std::move(st)]() mutable {
    walk_step(std::move(st));
  });
}

TileId SccChip::home_mc_tile(CoreId core) const {
  return topo_.tile_at(topo_.mc_position(topo_.home_mc(core)));
}

void SccChip::dram_stream(CoreId core, double bytes,
                          StageCallback on_done) {
  SCCPIPE_CHECK(on_done != nullptr);
  // The stream is issued from the core's tile (the memory system routes
  // it through the controller's tile and calls back at the core's tile),
  // then the continuation hops back to the bridge.
  fabric_.hop(fabric_.bridge_site(), topo_.tile_of(core),
              [this, core, bytes, cb = std::move(on_done)]() mutable {
    if (core_dead_at(core, fabric_.now())) return;
    set_core_busy_at(core, true, fabric_.now());
    mem_.bulk(core, bytes, copy_rate(core),
              [this, core, cb = std::move(cb)]() mutable {
                set_core_busy_at(core, false, fabric_.now());
                fabric_.hop(topo_.tile_of(core), fabric_.bridge_site(),
                            std::move(cb));
              });
  });
}

void SccChip::refresh_power() {
  double watts = power_model_.config().chip_idle_watts;
  if (allocated_count() > 0) {
    watts += power_model_.config().uncore_active_watts;
  }
  for (CoreId c = 0; c < topo_.core_count(); ++c) {
    if (cores_[static_cast<std::size_t>(c)].allocated) {
      watts += power_model_.core_dynamic_watts(operating_point(c));
    }
  }
  for (TileId t = 0; t < topo_.tile_count(); ++t) {
    watts +=
        power_model_.tile_static_watts(tile_points_[static_cast<std::size_t>(t)].volts);
  }
  meter_.set_power(watts);
}

}  // namespace sccpipe
