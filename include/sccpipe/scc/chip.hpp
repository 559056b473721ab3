#pragma once

/// \file chip.hpp
/// SccChip — the façade the communication library and pipeline framework
/// program against. Owns the mesh, the mesh fabric its timed work runs on,
/// the memory system, per-tile operating points, core allocation state,
/// and the power meter.
///
/// The same class models the Mogon cluster node of §VI (Fig. 13): a chip
/// with fast cores, a flat high-bandwidth "mesh" and effectively
/// uncontended memory — see ChipConfig::mogon_node().

#include <memory>
#include <vector>

#include "sccpipe/mem/memory.hpp"
#include "sccpipe/noc/fabric.hpp"
#include "sccpipe/noc/mesh.hpp"
#include "sccpipe/noc/topology.hpp"
#include "sccpipe/scc/dvfs.hpp"
#include "sccpipe/scc/power.hpp"
#include "sccpipe/sim/simulator.hpp"

namespace sccpipe {

class FaultInjector;

/// How finely the supply voltage can be set. Frequency is always per tile;
/// the SCC's silicon couples voltage across 2x2-tile domains (8 cores, six
/// domains per chip), while the paper reasons as if a single tile could be
/// raised alone (Fig. 18). Both are supported; the ablation bench compares
/// their §VI-D power bills.
enum class VoltageGranularity { PerTile, PerQuadTileDomain };

struct ChipConfig {
  MeshLayout mesh_layout{};
  MeshTimingConfig mesh_timing{};
  MemoryConfig memory{};
  PowerConfig power{};
  VoltageGranularity voltage_granularity = VoltageGranularity::PerTile;
  int default_mhz = 533;
  /// Instructions-per-cycle scaling relative to the P54C reference; >1 for
  /// modern cores (Mogon), 1 for the SCC.
  double ipc_factor = 1.0;
  /// Copy throughput of one core through its blocking cache misses (caps
  /// bulk DRAM streams). Frequency-independent: the P54C's copies are
  /// DRAM-latency-bound, so raising the core clock does not speed them —
  /// one reason the 800 MHz blur core gains less than the clock ratio
  /// (§VI-D).
  double copy_rate_bytes_per_sec = 133.0e6;
  /// Scaling of the render stage's raster cycle counts relative to the
  /// P54C reference. Modern cluster cores gain disproportionately on the
  /// SIMD-friendly transform/rasterise loop compared to the byte-wise
  /// filters (calibrated to the Fig. 13 "single renderer" floor).
  double render_cycles_scale = 1.0;

  /// The default: Intel SCC, 6x4 tiles, 48 cores.
  static ChipConfig scc();
  /// A Mogon HPC cluster node: 64 cores at 2.1 GHz, modern IPC, flat fast
  /// memory (no on-chip memory wall).
  static ChipConfig mogon_node();
};

class SccChip {
 public:
  SccChip(Simulator& sim, ChipConfig cfg = ChipConfig::scc());

  SccChip(const SccChip&) = delete;
  SccChip& operator=(const SccChip&) = delete;

  Simulator& sim() { return sim_; }
  const ChipConfig& config() const { return cfg_; }
  const MeshTopology& topology() const { return topo_; }
  MeshModel& mesh() { return mesh_; }
  /// The located-event fabric the timed primitives below run on, built
  /// from mesh_layout and mesh_timing.router_latency. Its owner brackets
  /// the event-loop drain with fabric().set_in_run().
  MeshFabric& fabric() { return fabric_; }
  MemorySystem& memory() { return mem_; }
  const DvfsTable& dvfs() const { return dvfs_; }

  int core_count() const { return topo_.core_count(); }

  // --- DVFS ------------------------------------------------------------
  /// Set a tile's frequency; the voltage follows the DVFS table. Affects
  /// both cores of the tile (§VI-D / Fig. 18). Under PerQuadTileDomain
  /// granularity the *voltage* additionally propagates to the tile's whole
  /// 2x2 domain (the domain runs at the maximum voltage any of its tiles
  /// requires). Voltages and power update at once. The clock compute()
  /// reads changes at once too, outside a run; while fabric().in_run(),
  /// the command crosses the mesh from the bridge first, so work reaching
  /// the tile before transit(bridge, tile) still runs at the old clock.
  void set_tile_frequency(TileId tile, int mhz);

  /// The 2x2-tile voltage domain a tile belongs to.
  int voltage_domain_of(TileId tile) const;
  /// Convenience: set the tile that hosts \p core.
  void set_core_frequency(CoreId core, int mhz);
  OperatingPoint operating_point(CoreId core) const;
  /// Core clock in Hz.
  double frequency_hz(CoreId core) const;
  /// Effective compute speed in "reference cycles" per second (clock * IPC
  /// factor): divide a P54C cycle count by this to get a duration.
  double effective_hz(CoreId core) const;
  /// Bulk copy bandwidth cap of the core (frequency-independent; see
  /// ChipConfig::copy_rate_bytes_per_sec).
  double copy_rate(CoreId core) const;

  // --- allocation & power ------------------------------------------------
  /// Mark a core as running pipeline work (allocated cores draw dynamic
  /// power continuously — RCCE waits are spin loops).
  void allocate_core(CoreId core);
  void release_core(CoreId core);
  bool allocated(CoreId core) const;
  int allocated_count() const;

  /// Busy/waiting accounting for metrics (does not change power).
  void set_core_busy(CoreId core, bool busy);
  SimTime core_busy_time(CoreId core) const;

  double current_watts() const { return meter_.current_watts(); }
  const PowerMeter& power_meter() const { return meter_; }
  const PowerModel& power_model() const { return power_model_; }

  // --- fail-stop faults ---------------------------------------------------
  /// Attach the fault layer so cores can fail-stop (FaultPlan core-fail).
  /// A dead core starts no new work: compute/memory_walk/dram_stream on it
  /// silently drop their continuation, so everything waiting on the core
  /// stalls — exactly the silence the Supervisor's heartbeat deadline is
  /// built to detect. Work already in flight at death completes (the
  /// schedule was committed); nullptr detaches.
  void set_fault_injector(const FaultInjector* fault) { fault_ = fault; }

  // --- timed execution ---------------------------------------------------
  // Each primitive is a located event chain on fabric(): it is issued at
  // the bridge site (host-side logic or a continuation of an earlier
  // operation), hops to the core's tile, does its work there (and, for
  // memory, at the controller's tile), and hops back, paying the mesh
  // transit of every leg. The fail-stop check, the gray adjustment and
  // the live clock are all read at the tile, after the inbound transit.

  /// Run \p ref_cycles of computation on \p core, then call \p on_done
  /// back at the bridge. The core is marked busy for the duration.
  void compute(CoreId core, double ref_cycles, StageCallback on_done);

  /// Run a latency-bound memory walk (octree traversal): \p line_accesses
  /// dependent misses under the load of the core's home controller,
  /// sampled at the controller's tile once per segment, then \p on_done.
  void memory_walk(CoreId core, double line_accesses,
                   StageCallback on_done);

  /// Stream \p bytes between the core and its DRAM partition (capped at
  /// the core's copy rate, contended at the MC; see MemorySystem::bulk),
  /// then \p on_done.
  void dram_stream(CoreId core, double bytes, StageCallback on_done);

 private:
  struct CoreState {
    bool allocated = false;
    bool busy = false;
    SimTime busy_since = SimTime::zero();
    SimTime busy_total = SimTime::zero();
  };

  struct WalkState {
    CoreId core;
    double per_segment;
    int remaining;
    StageCallback on_done;
  };

  /// One dependent-miss segment of a walk, at the home controller's tile.
  void walk_step(WalkState st);
  /// Tile of \p core's home memory controller.
  TileId home_mc_tile(CoreId core) const;
  void refresh_power();
  void refresh_voltages();
  /// Fault query / busy accounting against an explicit clock (the time of
  /// the fabric event executing at the core's tile).
  bool core_dead_at(CoreId core, SimTime now) const;
  void set_core_busy_at(CoreId core, bool busy, SimTime now);
  /// Compute speed from the tile's *live* clock — the tile-owned mirror of
  /// the requested frequency that a mid-run DVFS command updates via a
  /// located post (see set_tile_frequency).
  double effective_hz_live(CoreId core) const;
  /// Fail-slow adjustment of a work duration starting at \p now on \p core:
  /// an intermittent-stall window defers the start to its end, and a
  /// slow-core fate multiplies the service time. Identity when no fault
  /// layer is attached or no gray fate covers the instant. Called at the
  /// core's (or controller's) tile, so the sampled times include the
  /// transit to it.
  SimTime gray_adjusted(CoreId core, SimTime dur, SimTime now) const;

  Simulator& sim_;
  ChipConfig cfg_;
  MeshTopology topo_;
  MeshModel mesh_;
  MeshFabric fabric_;  ///< declared before mem_, which routes bulk() on it
  MemorySystem mem_;
  DvfsTable dvfs_;
  PowerModel power_model_;
  PowerMeter meter_;
  /// Requested frequency and effective operating point per tile. Host-
  /// owned: written only by host-side events (DVFS commands, setup), and
  /// read by the host-side power/voltage refresh and effective_hz().
  std::vector<int> tile_mhz_;
  std::vector<OperatingPoint> tile_points_;  ///< effective (freq, voltage)
  /// The tile-owned mirror of tile_mhz_: written by an event *at* the tile
  /// (a mid-run DVFS command hops across the mesh before taking effect),
  /// read by compute() at the tile. Equals tile_mhz_ except while such a
  /// command is in flight.
  std::vector<int> tile_mhz_live_;
  std::vector<CoreState> cores_;
  const FaultInjector* fault_ = nullptr;
};

}  // namespace sccpipe
