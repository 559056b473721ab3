#pragma once

/// \file fair_share.hpp
/// Processor-sharing bandwidth resource (fluid model). Concurrent bulk
/// transfers through a memory controller share its bandwidth equally; a
/// flow's completion time therefore stretches while competitors are active.
/// This is the mechanism behind the paper's observation that placing many
/// renderers on the SCC "increases the total number of memory accesses"
/// and slows the whole pipeline (§V, §VI-A).
///
/// Implementation: classic fluid queue. Active flows drain at
/// capacity / n_active bytes per second; on every arrival or departure the
/// remaining bytes of all flows are settled and the single "next
/// completion" event is rescheduled.

#include <cstdint>
#include <string>
#include <vector>

#include "sccpipe/sim/simulator.hpp"
#include "sccpipe/support/time.hpp"

namespace sccpipe {

class FairShareResource {
 public:
  /// Flow completions sit near the top of the callback tower: a
  /// completion may carry a whole memory-system continuation inline.
  using Callback = InplaceFunction<void(), kFlowCallbackBytes>;

  /// \p capacity_bytes_per_sec is the aggregate bandwidth shared by flows.
  FairShareResource(Simulator& sim, std::string name,
                    double capacity_bytes_per_sec);

  FairShareResource(const FairShareResource&) = delete;
  FairShareResource& operator=(const FairShareResource&) = delete;

  /// Begin a flow of \p bytes; \p on_done fires when it has fully drained.
  /// Zero-byte flows complete immediately (before returning).
  /// \p rate_cap bounds this flow's drain rate below its fair share (models
  /// an endpoint that cannot saturate the resource, e.g. a single P54C core
  /// copying through a memory controller); 0 means "no cap".
  void start_flow(double bytes, Callback on_done, double rate_cap = 0.0);

  /// True when start_flow(\p bytes, ...) calls its on_done before
  /// returning (a flow too small to queue); otherwise on_done runs in a
  /// later completion event of its own.
  static bool completes_at_once(double bytes) {
    return bytes <= kEpsilonBytes;
  }

  std::size_t active_flows() const { return flows_.size(); }
  double capacity() const { return capacity_; }
  const std::string& name() const { return name_; }

  /// Total bytes fully transferred so far.
  double bytes_completed() const { return bytes_completed_; }
  std::uint64_t flows_completed() const { return flows_completed_; }

 private:
  /// Flows with less than this many bytes left are considered finished;
  /// guards against floating-point residue keeping a flow alive forever.
  static constexpr double kEpsilonBytes = 1e-6;

  struct Flow {
    double remaining_bytes;
    double rate_cap;  // 0 = uncapped
    Callback on_done;
  };

  double flow_rate(const Flow& f) const;

  void settle();        // drain remaining bytes up to sim_.now()
  void reschedule();    // (re)arm the next-completion event
  void on_completion_event();

  Simulator& sim_;
  std::string name_;
  double capacity_;
  std::vector<Flow> flows_;
  std::vector<Callback> done_;  ///< completions being delivered
  SimTime last_settle_ = SimTime::zero();
  EventHandle pending_event_;
  double bytes_completed_ = 0.0;
  std::uint64_t flows_completed_ = 0;
};

}  // namespace sccpipe
