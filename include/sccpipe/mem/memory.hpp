#pragma once

/// \file memory.hpp
/// The four DDR3 memory controllers and the private-partition memory map.
/// Two access classes are modelled:
///
///  * bulk streams — a stage reading/writing its strip, or RCCE copying a
///    message through the receiver's partition. These share each MC's
///    bandwidth (fair-share fluid model) and are additionally capped by the
///    issuing core's copy rate — a 533 MHz P54C cannot saturate a DDR3-800
///    channel on its own, which is why per-core effective bandwidth on the
///    real SCC is two orders of magnitude below MC peak.
///
///  * latency-bound walks — octree traversal during frustum culling:
///    dependent loads, one outstanding miss at a time. Duration is
///    n_accesses * effective_latency, where the effective latency inflates
///    with the controller's instantaneous load. This is the mechanism that
///    penalises the "as many renderers as pipelines" scenario (§VI-A).

#include <cstdint>
#include <memory>
#include <vector>

#include "sccpipe/noc/fabric.hpp"
#include "sccpipe/noc/mesh.hpp"
#include "sccpipe/noc/topology.hpp"
#include "sccpipe/sim/fair_share.hpp"
#include "sccpipe/sim/fault.hpp"
#include "sccpipe/sim/simulator.hpp"

namespace sccpipe {

struct MemoryConfig {
  /// Effective sustained bandwidth per controller (DDR3-800 peak is
  /// 6.4 GB/s; sustained with the SCC's access pattern is far lower).
  double mc_bandwidth_bytes_per_sec = 2.5e9;
  /// Unloaded latency of one dependent line fetch as seen by the core
  /// (miss detection, mesh round trip, DRAM access).
  SimTime base_line_latency = SimTime::ns(220);
  /// Additional round-trip latency per mesh hop between core and its MC.
  SimTime per_hop_latency = SimTime::ns(8);
  /// Latency inflation per unit of concurrent MC load (queueing
  /// approximation): eff = base * min(cap, 1 + coeff * (load - 1)).
  double latency_contention_coeff = 0.6;
  /// Upper bound on the inflation factor: a heavily queued controller
  /// saturates rather than degrading without limit.
  double latency_contention_cap = 2.2;
};

/// Aggregate per-controller statistics for reports and tests.
struct McStats {
  double bulk_bytes = 0.0;
  std::uint64_t bulk_flows = 0;
  std::uint64_t latency_streams_peak = 0;
};

class MemorySystem {
 public:
  /// Streams run on \p fabric, which must schedule on \p sim across the
  /// layout of \p topo; all of them must outlive the system.
  MemorySystem(Simulator& sim, const MeshTopology& topo, MeshModel& mesh,
               MeshFabric& fabric, MemoryConfig cfg = {});

  const MemoryConfig& config() const { return cfg_; }
  const MeshTopology& topology() const { return topo_; }

  /// Stream \p bytes between \p core and its home MC's DRAM.
  /// \p core_rate_cap is the issuing core's copy bandwidth (bytes/s).
  /// \p on_done fires when the stream completes; mesh link contention along
  /// the core<->MC route is charged as well. A located event chain on the
  /// fabric: the mesh charge and the fault-layer admission happen at the
  /// host bridge, the flow queues at the controller's tile, and the
  /// completion hops to the issuing core's tile. Must be called from an
  /// event at the issuing core's tile; delivers \p on_done there.
  using BulkCallback = InplaceFunction<void(), kMemCallbackBytes>;
  void bulk(CoreId core, double bytes, double core_rate_cap,
            BulkCallback on_done);

  /// Duration of \p n_accesses dependent line fetches issued by \p core
  /// under the current load of its home controller. Pure query plus load
  /// sampling; the caller owns treating it as busy time.
  SimTime latency_bound(CoreId core, double n_accesses) const;

  /// Latency-bound streams register while active so concurrent walkers see
  /// each other's load (paired calls; see LatencyStreamScope).
  void register_latency_stream(CoreId core);
  void unregister_latency_stream(CoreId core);

  /// Instantaneous load units on a controller: active bulk flows plus
  /// active latency streams.
  double mc_load(McId mc) const;

  const McStats& stats(McId mc) const;
  McId home_mc(CoreId core) const { return topo_.home_mc(core); }

  /// Attach the deterministic fault layer: bulk streams wait out McStall
  /// windows and pay McDegrade service inflation; latency-bound walks see
  /// the inflation too. Must outlive the system; nullptr detaches.
  void set_fault_injector(const FaultInjector* fault) { fault_ = fault; }

 private:
  void rebuild_mcs();

  Simulator& sim_;
  const MeshTopology& topo_;
  MeshModel& mesh_;
  MeshFabric& fabric_;
  MemoryConfig cfg_;
  /// One fair-share queue per controller, all on sim_.
  std::vector<std::unique_ptr<FairShareResource>> mcs_;
  std::vector<int> latency_streams_;
  std::vector<McStats> stats_;
  const FaultInjector* fault_ = nullptr;
};

/// RAII registration of a latency-bound walker.
class LatencyStreamScope {
 public:
  LatencyStreamScope(MemorySystem& mem, CoreId core) : mem_(mem), core_(core) {
    mem_.register_latency_stream(core_);
  }
  ~LatencyStreamScope() { mem_.unregister_latency_stream(core_); }
  LatencyStreamScope(const LatencyStreamScope&) = delete;
  LatencyStreamScope& operator=(const LatencyStreamScope&) = delete;

 private:
  MemorySystem& mem_;
  CoreId core_;
};

}  // namespace sccpipe
