#include "sccpipe/sim/resource.hpp"

#include "sccpipe/support/check.hpp"

namespace sccpipe {

SimTime FlowResource::acquire(SimTime at, SimTime service) {
  // Requests are served in *call* order, not arrival-time order: a message
  // crossing several mesh links has its downstream arrivals computed ahead
  // of simulated time, so a later call may carry an earlier timestamp.
  // First-come-first-served on call order is the intended flow semantics.
  SCCPIPE_CHECK_MSG(!service.is_negative(),
                    name_ << ": negative service " << service.to_string());
  last_arrival_ = max(last_arrival_, at);
  const SimTime start = max(at, horizon_);
  queued_ += start - at;
  busy_ += service;
  horizon_ = start + service;
  ++requests_;
  return horizon_;
}

}  // namespace sccpipe
