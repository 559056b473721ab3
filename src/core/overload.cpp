#include "sccpipe/core/overload.hpp"

#include <cstdio>

#include "sccpipe/support/check.hpp"

namespace sccpipe {

const char* breaker_state_name(BreakerState s) {
  switch (s) {
    case BreakerState::Closed: return "closed";
    case BreakerState::Open: return "open";
    case BreakerState::HalfOpen: return "half-open";
  }
  return "?";
}

void CircuitBreaker::move_to(BreakerState to, SimTime at) {
  if (state_ == to) return;
  transitions_.push_back(BreakerTransition{at, state_, to});
  if (to == BreakerState::Open) ++trips_;
  state_ = to;
}

bool CircuitBreaker::allow(SimTime now) {
  if (threshold_ <= 0) return true;
  switch (state_) {
    case BreakerState::Closed:
      return true;
    case BreakerState::Open:
      if (now - opened_at_ >= cooldown_) {
        move_to(BreakerState::HalfOpen, now);
        probe_outstanding_ = true;
        return true;  // the caller's work is the probe
      }
      return false;
    case BreakerState::HalfOpen:
      // One probe at a time: further admissions shed until it resolves.
      if (!probe_outstanding_) {
        probe_outstanding_ = true;
        return true;
      }
      return false;
  }
  return true;
}

void CircuitBreaker::on_success(SimTime now) {
  if (threshold_ <= 0) return;
  consecutive_failures_ = 0;
  if (state_ == BreakerState::HalfOpen) {
    probe_outstanding_ = false;
    move_to(BreakerState::Closed, now);
  }
}

void CircuitBreaker::on_failure(SimTime now) {
  if (threshold_ <= 0) return;
  ++consecutive_failures_;
  if (state_ == BreakerState::HalfOpen) {
    probe_outstanding_ = false;
    opened_at_ = now;
    move_to(BreakerState::Open, now);
    return;
  }
  if (state_ == BreakerState::Closed &&
      consecutive_failures_ >= threshold_) {
    opened_at_ = now;
    move_to(BreakerState::Open, now);
  }
}

std::string TransportReport::csv_header() {
  return "first_sends,retransmits,dup_suppressed,offered,admitted,"
         "delivered,shed_admission,shed_deadline,shed_transport,"
         "shed_breaker,credit_stalls,credit_stall_ms,max_feeder_q,"
         "max_link_q,max_stage_q,goodput_fps,p50_ms,p99_ms,breaker_trips,"
         "breaker_final";
}

std::string TransportReport::csv() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%.3f,"
      "%d,%d,%d,%.3f,%.3f,%.3f,%d,%s",
      static_cast<unsigned long long>(first_sends),
      static_cast<unsigned long long>(retransmissions),
      static_cast<unsigned long long>(dup_suppressed),
      static_cast<unsigned long long>(frames_offered),
      static_cast<unsigned long long>(frames_admitted),
      static_cast<unsigned long long>(frames_delivered),
      static_cast<unsigned long long>(shed_admission),
      static_cast<unsigned long long>(shed_deadline),
      static_cast<unsigned long long>(shed_transport),
      static_cast<unsigned long long>(shed_breaker),
      static_cast<unsigned long long>(credit_stalls), credit_stall_ms,
      max_feeder_queue, max_link_queue, max_stage_queue, goodput_fps,
      p50_latency_ms, p99_latency_ms, breaker_trips,
      breaker_state_name(breaker_final));
  return buf;
}

}  // namespace sccpipe
