#pragma once

/// \file overload.hpp
/// Overload policy for the host-fed data plane: admission control at the
/// feeder, deadline-aware shedding (drop the stalest work first), and a
/// circuit breaker on the host link. The paper's producer is closed-loop —
/// the MCPC renders the next frame only when the previous one was taken —
/// so it can never overload the chip. A serving system is open-loop:
/// frames arrive at an offered rate regardless of drain rate, and the
/// difference between "queue grows without bound" and "bounded queue +
/// explicit shed ledger" is the whole point of this layer.
///
/// Everything here is plain deterministic state driven by the simulator's
/// event order; the walkthrough owns the feeder queue itself and reports
/// the outcome in RunResult::transport.

#include <cstdint>
#include <string>
#include <vector>

#include "sccpipe/support/snapshot.hpp"
#include "sccpipe/support/status.hpp"
#include "sccpipe/support/time.hpp"

namespace sccpipe {

/// Knobs for the overload-robust data plane. All default-off: a
/// default-constructed config reproduces the legacy closed-loop run
/// bit-identically (no ARQ, no credits, no shedding).
struct OverloadConfig {
  /// Open-loop offered load at the host feeder, frames/second. 0 keeps the
  /// paper's closed-loop producer.
  double offered_fps = 0.0;
  /// ARQ send window on the host link (unacked messages in flight);
  /// 0 keeps the stop-and-wait transport.
  int window = 0;
  /// Bounded-queue depth: the feeder queue, the ARQ receiver buffer, and
  /// every credited inter-stage channel. 0 keeps rendezvous lockstep.
  int queue_depth = 0;
  /// Frames older than this at dequeue time are shed (0 = no deadline).
  SimTime frame_deadline = SimTime::zero();
  /// Consecutive host-transport failures that trip the breaker (0 = off).
  int breaker_threshold = 0;
  /// How long a tripped breaker stays open before half-opening on a probe.
  SimTime breaker_cooldown = SimTime::ms(250);

  bool enabled() const {
    return offered_fps > 0.0 || window > 0 || queue_depth > 0 ||
           frame_deadline > SimTime::zero() || breaker_threshold > 0;
  }
};

enum class BreakerState : std::uint8_t { Closed, Open, HalfOpen };

const char* breaker_state_name(BreakerState s);

struct BreakerTransition {
  SimTime at = SimTime::zero();
  BreakerState from = BreakerState::Closed;
  BreakerState to = BreakerState::Closed;
};

/// Classic three-state circuit breaker. Closed counts consecutive
/// failures; at the threshold it opens (all work shed at admission). After
/// the cooldown the next admission attempt half-opens it and passes as a
/// probe: probe success recloses, probe failure reopens and restarts the
/// cooldown. Threshold 0 disables the breaker (always allows).
class CircuitBreaker {
 public:
  CircuitBreaker() = default;
  CircuitBreaker(int threshold, SimTime cooldown)
      : threshold_(threshold), cooldown_(cooldown) {}

  /// May work enter the transport now? Open -> HalfOpen after cooldown
  /// (the caller's work becomes the probe). HalfOpen admits only the one
  /// outstanding probe.
  bool allow(SimTime now);
  void on_success(SimTime now);
  void on_failure(SimTime now);

  BreakerState state() const { return state_; }
  int trips() const { return trips_; }
  const std::vector<BreakerTransition>& transitions() const {
    return transitions_;
  }

  /// Serialize the breaker's mutable state (state machine position, failure
  /// streak, probe flag, trip count and the full transition log). The
  /// threshold/cooldown config is not serialized — it is rebuilt from the
  /// run config on resume.
  void save_state(snapshot::Writer& w) const;
  /// Inverse of save_state(). Typed DataLoss/VersionSkew from the reader.
  Status restore_state(snapshot::Reader& r);

 private:
  void move_to(BreakerState to, SimTime at);

  int threshold_ = 0;
  SimTime cooldown_ = SimTime::ms(250);
  BreakerState state_ = BreakerState::Closed;
  int consecutive_failures_ = 0;
  bool probe_outstanding_ = false;
  SimTime opened_at_ = SimTime::zero();
  int trips_ = 0;
  std::vector<BreakerTransition> transitions_;
};

/// Per-run transport + overload outcome, reported in RunResult and printed
/// by the CLI/sweep (byte-identical across --jobs: every field is derived
/// from single-threaded simulation state).
struct TransportReport {
  bool enabled = false;  ///< any overload/ARQ feature was active

  // --- ARQ link ----------------------------------------------------------
  std::uint64_t first_sends = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t acks = 0;           ///< data ACK control datagrams
  std::uint64_t credit_grants = 0;  ///< credit-return control datagrams
  double smoothed_rtt_ms = 0.0;

  // --- frame counts, read off the run's one frame ledger (offered =
  //     admitted + shed_admission + shed_breaker; admitted = delivered +
  //     shed_deadline + shed_transport + RecoveryReport::frames_lost) -----
  std::uint64_t frames_offered = 0;
  std::uint64_t frames_admitted = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t shed_admission = 0;  ///< feeder queue full: stalest dropped
  std::uint64_t shed_deadline = 0;   ///< stale at dequeue
  std::uint64_t shed_transport = 0;  ///< ARQ abandoned the frame
  std::uint64_t shed_breaker = 0;    ///< rejected while the breaker was open

  // --- backpressure ------------------------------------------------------
  std::uint64_t credit_stalls = 0;
  double credit_stall_ms = 0.0;
  int max_feeder_queue = 0;  ///< peak feeder occupancy (<= queue_depth)
  int max_link_queue = 0;    ///< peak ARQ receiver occupancy (<= depth)
  int max_stage_queue = 0;   ///< peak credited inter-stage occupancy

  // --- outcome -----------------------------------------------------------
  double goodput_fps = 0.0;      ///< delivered frames / span of deliveries
  double p50_latency_ms = 0.0;   ///< offered-to-delivered frame latency
  double p99_latency_ms = 0.0;
  int breaker_trips = 0;
  BreakerState breaker_final = BreakerState::Closed;
  std::vector<BreakerTransition> breaker_transitions;

  /// Stable one-line CSV fragment (shared by CLI and sweep).
  std::string csv() const;
  static std::string csv_header();
};

}  // namespace sccpipe
