#pragma once

/// \file resource.hpp
/// Flow-level contention model. A FlowResource represents a serially shared
/// server (a mesh link, a memory controller port) as a "next free" horizon:
/// a request arriving at time t with service duration s occupies the server
/// over [max(t, horizon), max(t, horizon) + s].
///
/// Because the Simulator dispatches events in non-decreasing time order and
/// requests are issued from event callbacks, horizons only move forward —
/// this gives queueing-accurate completion times without simulating each
/// queue slot as its own event (orders of magnitude fewer events for the
/// same aggregate behaviour, which is what the paper-scale sweeps need).

#include <cstdint>
#include <string>

#include "sccpipe/support/time.hpp"

namespace sccpipe {

class FlowResource {
 public:
  explicit FlowResource(std::string name) : name_(std::move(name)) {}

  /// Reserve the server for \p service starting no earlier than \p at.
  /// Returns the completion time. \p at must be >= any previous request's
  /// arrival (enforced), matching event-order issue.
  SimTime acquire(SimTime at, SimTime service);

  /// When the server next becomes free (== last completion time).
  SimTime horizon() const { return horizon_; }

  const std::string& name() const { return name_; }

  /// Total time requests spent being served.
  SimTime busy_time() const { return busy_; }
  /// Total time requests spent waiting behind earlier requests.
  SimTime queue_delay() const { return queued_; }
  std::uint64_t request_count() const { return requests_; }

  /// Utilisation over [0, end] (for reports).
  double utilization(SimTime end) const {
    return end.is_zero() ? 0.0 : busy_ / end;
  }

 private:
  std::string name_;
  SimTime horizon_ = SimTime::zero();
  SimTime last_arrival_ = SimTime::zero();
  SimTime busy_ = SimTime::zero();
  SimTime queued_ = SimTime::zero();
  std::uint64_t requests_ = 0;
};

}  // namespace sccpipe
