#pragma once

/// \file fabric.hpp
/// Located event chains: the timing bridge between the platform models
/// (scc/chip.hpp, mem/memory.hpp) and the Simulator they run on.
///
/// Every SccChip owns one fabric, built from its ChipConfig's mesh layout
/// and router latency, and every timed primitive of the chip and its
/// memory system is a chain of located events on it: "run this at tile T"
/// is scheduled on the Simulator after the calibrated transit time from
/// the tile the chain is at,
///
///   transit(a, b) = hop_latency * hop_distance(a, b)
///
/// so a chain pays the simulated mesh latency of every leg it crosses.
/// The constructor evaluates that expression once for every tile pair into
/// a tile x tile transit table, and tabulates each core's tile and its
/// home controller's tile, so a hop is a few bounds-checked loads rather
/// than a coordinate, distance and rounding computation.
///
/// Origins are explicit: each hop names the tile it leaves from, and the
/// fabric keeps no notion of a current site. Model code that runs outside
/// any located chain (host-side control logic, setup, collection, and the
/// plain events of the shared resources) executes at the bridge site, the
/// tile the host PCIe link attaches to. The fabric wraps nothing: the
/// caller's callable goes straight to the Simulator, which builds it once
/// in its event slot.

#include <utility>
#include <vector>

#include "sccpipe/noc/topology.hpp"
#include "sccpipe/sim/simulator.hpp"
#include "sccpipe/support/time.hpp"

namespace sccpipe {

class MeshFabric {
 public:
  /// Schedules on \p sim (which must outlive the fabric) across a mesh of
  /// \p layout, paying \p hop_latency per router hop.
  MeshFabric(Simulator& sim, const MeshLayout& layout, SimTime hop_latency);
  MeshFabric(const MeshFabric&) = delete;
  MeshFabric& operator=(const MeshFabric&) = delete;

  /// The tile the host link attaches to (south-west corner router). Events
  /// outside any located chain — host control logic, setup, collection —
  /// execute here.
  TileId bridge_site() const { return bridge_; }

  /// Calibrated transit delay between two sites: hop_latency x Manhattan
  /// router hops (zero for a == b), read from the table. A tile off the
  /// mesh is a CheckError.
  SimTime transit(TileId from, TileId to) const {
    SCCPIPE_CHECK(valid_tile(from) && valid_tile(to));
    return transit_[static_cast<std::size_t>(from * tiles_ + to)];
  }

  /// The tile of \p core and the tile of its home memory controller.
  TileId core_tile(CoreId core) const {
    SCCPIPE_CHECK(valid_core(core));
    return core_tile_[static_cast<std::size_t>(core)];
  }
  TileId home_mc_tile(CoreId core) const {
    SCCPIPE_CHECK(valid_core(core));
    return home_mc_tile_[static_cast<std::size_t>(core)];
  }

  /// Simulated time (the Simulator's now()).
  SimTime now() const { return sim_.now(); }

  /// True while the owner (the walkthrough, or a test) drains the event
  /// loop — for every event, host-side ones included — and false during
  /// setup and collection, and by default. A DVFS command issued in a run
  /// crosses the mesh before it takes effect; one issued at setup applies
  /// at once (SccChip::set_tile_frequency).
  bool in_run() const { return in_run_; }
  void set_in_run(bool in_run) { in_run_ = in_run; }

  /// Run \p fn at site \p to, at now() + transit(from, to).
  template <typename F>
  void hop(TileId from, TileId to, F&& fn) {
    sim_.schedule_at(now() + transit(from, to), std::forward<F>(fn));
  }

  /// Run \p fn at site \p to at the explicit instant \p when, which must
  /// be >= now() + transit(from, to) — for deferred admissions (e.g. a
  /// fault window's admit-at time).
  template <typename F>
  void post_at(TileId from, TileId to, SimTime when, F&& fn) {
    check_post(from, to, when);
    sim_.schedule_at(when, std::forward<F>(fn));
  }

  /// Run \p fn \p delay later at the same site (no mesh crossing).
  template <typename F>
  void after(SimTime delay, F&& fn) {
    sim_.schedule_after(delay, std::forward<F>(fn));
  }

 private:
  void check_post(TileId from, TileId to, SimTime when) const;
  bool valid_tile(TileId t) const { return t >= 0 && t < tiles_; }
  bool valid_core(CoreId c) const {
    return c >= 0 && static_cast<std::size_t>(c) < core_tile_.size();
  }

  Simulator& sim_;
  int tiles_ = 0;
  TileId bridge_ = 0;
  bool in_run_ = false;
  std::vector<SimTime> transit_;       ///< [from * tiles_ + to]
  std::vector<TileId> core_tile_;      ///< per core
  std::vector<TileId> home_mc_tile_;   ///< per core
};

}  // namespace sccpipe
