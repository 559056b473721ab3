#pragma once

/// \file fabric.hpp
/// Located event chains: the timing bridge between the platform models
/// (scc/chip.hpp, mem/memory.hpp) and the walkthrough's one Simulator.
///
/// Every timed primitive the chip runs through the fabric becomes a chain
/// of located events: "run this at tile T" is scheduled on the Simulator
/// after the calibrated transit time from the executing event's site,
///
///   transit(a, b) = hop_latency * hop_distance(a, b)
///
/// so a chain pays the simulated mesh latency of every leg it crosses.
///
/// The *current site* tracks which tile the executing event belongs to;
/// model code that runs outside any fabric-scheduled callback (host-side
/// control logic, setup, collection) executes at the bridge site, the tile
/// the host PCIe link attaches to.

#include "sccpipe/noc/topology.hpp"
#include "sccpipe/sim/callback.hpp"
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
  /// not scheduled by the fabric — host control logic, setup, collection —
  /// execute here.
  TileId bridge_site() const { return bridge_; }

  /// Site of the executing fabric-scheduled event, or bridge_site() when
  /// outside any.
  TileId current_site() const { return site_; }

  /// Calibrated transit delay between two sites: hop_latency x Manhattan
  /// router hops (zero for a == b).
  SimTime transit(TileId from, TileId to) const;

  /// Simulated time (the Simulator's now()).
  SimTime now() const { return sim_.now(); }

  /// True while the owner drains the event loop — for every event, host-
  /// side ones included — and false during setup and collection. A DVFS
  /// command issued in a run crosses the mesh before it takes effect; one
  /// issued at setup applies at once.
  bool in_run() const { return in_run_; }
  void set_in_run(bool in_run) { in_run_ = in_run; }

  /// Run \p fn at site \p to, at now() + transit(current_site(), to).
  void hop(TileId to, FabricCallback fn);

  /// Run \p fn at site \p to at the explicit instant \p when, which must
  /// be >= now() + transit(current_site(), to) — for deferred admissions
  /// (e.g. a fault window's admit-at time).
  void post_at(TileId to, SimTime when, FabricCallback fn);

  /// Run \p fn \p delay later at the *current* site (no mesh crossing).
  void after(SimTime delay, FabricCallback fn);

 private:
  void schedule(TileId site, SimTime when, FabricCallback fn);

  Simulator& sim_;
  MeshTopology topo_;
  SimTime hop_latency_;
  TileId bridge_ = 0;
  TileId site_ = 0;
  bool in_run_ = false;
};

}  // namespace sccpipe
