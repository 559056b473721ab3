#pragma once

/// \file fault.hpp
/// Deterministic fault injection for the simulated platform. A FaultPlan
/// describes *what can go wrong* (which fault classes, at which rates or
/// counts); a FaultInjector expands it — from a single RNG seed — into a
/// concrete, reproducible schedule of window faults plus per-message fate
/// decisions, and answers queries from the component models:
///
///   * NoC (src/noc)  — a link can be down or degraded for a time window;
///                      a router's forwarding latency can be inflated.
///   * Memory (src/mem) — a controller can stall (accept no new flows) or
///                      serve at a fraction of its bandwidth for a window.
///   * RCCE (src/rcce) and host link (src/host) — an individual message
///                      can be dropped (lost in flight, triggering the
///                      transport's timeout/retry machinery), corrupted
///                      (delivered but failing the CRC-32 integrity check
///                      at the receiver, which NACKs and retries), or
///                      delayed.
///   * Cores (src/scc) — a core can fail-stop at a planned instant
///                      (core-fail=<core>@<time>): it finishes nothing
///                      after T, and the Supervisor (src/core/recovery)
///                      detects the silence and heals the pipeline.
///
/// Determinism: window faults and core failures are generated eagerly at
/// construction, so the schedule is a pure function of the plan. Message
/// fates draw from dedicated per-category RNG streams in event-dispatch
/// order, which the single-threaded simulator makes reproducible — the
/// same seed yields a bit-identical fault trace and therefore bit-identical
/// simulated timing. Every consulted fault is appended to trace();
/// fingerprint() hashes the trace so two runs can be compared exactly
/// (tests/fault_injection_test).

#include <cstdint>
#include <string>
#include <vector>

#include "sccpipe/support/rng.hpp"
#include "sccpipe/support/status.hpp"
#include "sccpipe/support/time.hpp"

namespace sccpipe {

/// Retry/backoff discipline for a fault-tolerant transport (RCCE sends,
/// host-link pushes). With max_attempts == 1 a lost message surfaces an
/// error as soon as the attempt's timeout expires; with more attempts the
/// transport retransmits after a backoff that doubles per further attempt,
/// all in simulated time. Exhaustion surfaces RetriesExhausted.
struct RetryPolicy {
  /// Backoff growth per further attempt.
  static constexpr double kBackoffFactor = 2.0;
  /// Ceiling for the exponential backoff; large attempt counts would
  /// otherwise overflow the fixed-point SimTime long before the retry
  /// budget runs out.
  static constexpr SimTime kMaxBackoff = SimTime::sec(10);

  int max_attempts = 1;               ///< total attempts (1 = no retries)
  SimTime timeout = SimTime::ms(50);  ///< per-attempt loss-detection deadline
  SimTime backoff = SimTime::ms(1);   ///< backoff before the 2nd attempt

  /// Backoff to wait after the \p failed_attempts-th loss (1-based),
  /// capped at kMaxBackoff.
  SimTime backoff_after(int failed_attempts) const;
  bool operator==(const RetryPolicy&) const = default;
};

enum class FaultKind : std::uint8_t {
  LinkDegrade,    ///< link serialisation time divided by `factor` in window
  LinkDown,       ///< link unavailable during the window
  RouterDegrade,  ///< router latency multiplied by 1/factor in window
  McDegrade,      ///< MC service time divided by `factor` in window
  McStall,        ///< MC admits no new flows during the window
  CoreFail,       ///< fail-stop: core `target` dies at `start`, forever
  RcceDrop,       ///< decision record: an RCCE payload was lost
  RcceDelay,      ///< decision record: an RCCE payload was delayed
  RcceCorrupt,    ///< decision record: an RCCE payload failed its CRC
  HostDrop,       ///< decision record: a host-link message was lost
  HostDelay,      ///< decision record: a host-link message was delayed
  HostCorrupt,    ///< decision record: a host-link message failed its CRC
  HostReorder,    ///< decision record: a host datagram was delayed past its
                  ///< successors (delivered out of order)
  HostDuplicate,  ///< decision record: a host datagram was delivered twice
  HostBurstDrop,  ///< decision record: lost in a burst-loss (bad) state
  // Explicit from here on: fingerprint() mixes each kind's number, so the
  // kinds after a deleted one (15) keep theirs.
  SlowCore = 16,  ///< fail-slow: core `target`'s compute and memory-walk
                  ///< latencies multiplied by 1/factor from `start` onward
  LinkLatency = 17,  ///< degraded link: per-hop router latency on link
                     ///< `target` multiplied by 1/factor from `start` onward
  CoreStall = 18,    ///< intermittent stall: core `target` starts no new
                     ///< work during [start, end) — one window per period
};

const char* fault_kind_name(FaultKind kind);

/// One entry of the fault schedule (window faults) or the decision trace
/// (message fates, where start == end == decision time).
struct FaultEvent {
  FaultKind kind{};
  SimTime start = SimTime::zero();
  SimTime end = SimTime::zero();
  int target = -1;      ///< link index, tile/MC/core id; -1 for messages
  double factor = 1.0;  ///< bandwidth/service fraction in (0, 1]
  SimTime extra = SimTime::zero();  ///< added delay (delay faults)
};

/// A planned fail-stop core death: the core executes nothing scheduled to
/// *complete* after `at` (work already in flight finishes; nothing new
/// starts or returns).
struct CoreFailure {
  int core = -1;
  SimTime at = SimTime::zero();

  bool operator==(const CoreFailure&) const = default;
};

/// A planned fail-slow onset ("slow-core=<core>:<factor>@<time>"): from
/// `at` onward the core's stage compute and memory-walk latencies are
/// multiplied by `factor` (>= 1; 1.0 is a deliberate no-op that never
/// activates the fault layer, so a factor-1.0 plan stays byte-identical to
/// no fault at all). The core keeps answering heartbeats — only the gray
/// detector can see it.
struct SlowCore {
  int core = -1;
  double factor = 1.0;  ///< latency multiplier, >= 1
  SimTime at = SimTime::zero();

  bool operator==(const SlowCore&) const = default;
};

/// A planned mesh-link degradation ("degraded-link=<a>-<b>:<factor>@<time>"):
/// from `at` onward every hop crossing the link between *adjacent* tiles
/// `a` and `b` (both directions) pays `factor` times the per-hop router
/// latency. Latency only inflates (factor >= 1).
struct DegradedLink {
  int tile_a = -1;
  int tile_b = -1;
  double factor = 1.0;  ///< per-hop latency multiplier, >= 1
  SimTime at = SimTime::zero();

  bool operator==(const DegradedLink&) const = default;
};

/// A planned intermittent stall ("intermittent-stall=<core>:<period>:
/// <duration>"): starting at t = 0 the core freezes for `duration` at the
/// top of every `period` (duration < period, so consecutive stalls never
/// overlap), over the plan horizon. Stalled work is deferred, never lost.
struct StallSpec {
  int core = -1;
  SimTime period = SimTime::zero();
  SimTime duration = SimTime::zero();

  bool operator==(const StallSpec&) const = default;
};

/// What can go wrong, reproducible from `seed`. Parsed from the CLI's
/// --fault-plan grammar (see parse() and docs/MODEL.md §6).
struct FaultPlan {
  std::uint64_t seed = 1;
  /// Span over which scheduled window faults are scattered.
  SimTime horizon = SimTime::sec(10);
  /// Length of each scheduled fault window.
  SimTime window = SimTime::ms(50);

  // Per-message fault rates in [0, 1].
  double rcce_drop_rate = 0.0;
  double rcce_delay_rate = 0.0;
  SimTime rcce_delay = SimTime::ms(1);  ///< max extra delay per delayed msg
  double rcce_corrupt_rate = 0.0;
  double host_drop_rate = 0.0;
  double host_delay_rate = 0.0;
  SimTime host_delay = SimTime::ms(5);
  double host_corrupt_rate = 0.0;
  /// Host datagram reordering: a hit is held back by an extra transit delay
  /// so later datagrams overtake it. Only the reliable (ARQ) host transport
  /// restores order; the legacy stop-and-wait path reads it as pure delay.
  double host_reorder_rate = 0.0;
  SimTime host_reorder_delay = SimTime::ms(10);  ///< max displacement
  /// Host datagram duplication: a hit is delivered twice, the copy lagging
  /// by up to host_duplicate_lag. Suppressed by the ARQ receiver.
  double host_duplicate_rate = 0.0;
  SimTime host_duplicate_lag = SimTime::ms(2);
  /// Gilbert–Elliott two-state burst loss on the host link. The channel
  /// steps once per datagram: good -> bad with burst_enter_rate, bad ->
  /// good with burst_exit_rate; while bad, each datagram is lost with
  /// burst_loss_rate (default: every one, the classic Gilbert model).
  double burst_enter_rate = 0.0;
  double burst_exit_rate = 0.1;
  double burst_loss_rate = 1.0;

  // Scheduled window faults: how many of each to scatter over the horizon.
  int link_degrade_count = 0;
  double link_degrade_factor = 0.25;  ///< surviving bandwidth fraction
  int link_down_count = 0;
  int router_degrade_count = 0;
  double router_degrade_factor = 0.25;  ///< 1/latency-multiplier
  int mc_degrade_count = 0;
  double mc_degrade_factor = 0.5;
  int mc_stall_count = 0;

  /// Planned fail-stop core deaths ("core-fail=<core>@<time>", repeatable;
  /// each occurrence appends one entry).
  std::vector<CoreFailure> core_failures;

  /// Planned fail-slow onsets ("slow-core=...", repeatable). Factor-1.0
  /// entries are accepted but never enter the schedule or flip enabled().
  std::vector<SlowCore> slow_cores;

  /// Planned mesh-link latency degradations ("degraded-link=...",
  /// repeatable). Same factor-1.0 no-op rule as slow_cores.
  std::vector<DegradedLink> degraded_links;

  /// Planned intermittent core stalls ("intermittent-stall=...", at most
  /// one spec per core — overlapping stall trains are rejected at parse).
  std::vector<StallSpec> stalls;

  /// True when any fault class is active; a disabled plan is guaranteed to
  /// leave the simulation bit-identical to one with no fault layer at all.
  /// Derived from the same field table the parser uses, so a newly added
  /// fault kind cannot be parseable yet silently unreachable.
  bool enabled() const;

  /// Parse "key=value;key=value" (e.g. "rcce-drop=0.05;link-down=2;
  /// horizon=2s;window=20ms;core-fail=13@1.5s"). Returns a typed error on
  /// malformed input: InvalidArgument for unknown keys or bad values. Keys:
  /// rcce-drop, rcce-delay=<rate>:<time>, rcce-corrupt, host-drop,
  /// host-delay=<rate>:<time>, host-corrupt, reorder=<rate>[:<time>],
  /// duplicate=<rate>[:<time>], burst-loss=<enter>:<exit>[:<loss>],
  /// link-degrade=<n>:<factor>, link-down=<n>,
  /// router-degrade=<n>:<factor>, mc-degrade=<n>:<factor>,
  /// mc-stall=<n>, core-fail=<core>@<time>,
  /// slow-core=<core>:<factor>@<time>, degraded-link=<a>-<b>:<factor>@<time>,
  /// intermittent-stall=<core>:<period>:<duration>,
  /// horizon=<time>, window=<time>, seed=<n>.
  Status parse(const std::string& text);
  bool operator==(const FaultPlan&) const = default;
};

/// Fate of one message attempt, decided by the injector.
enum class MessageFate : std::uint8_t {
  Deliver,  ///< arrives (possibly late — check *extra_delay)
  Drop,     ///< lost in flight; the sender's timeout machinery fires
  Corrupt,  ///< arrives, fails the receiver's CRC check, and is NACKed
};

/// Full fate of one host datagram: the basic fate plus the injected transit delay (delay + reorder displacement
/// combined) and an optional duplicate copy lagging behind the original.
struct DatagramFate {
  MessageFate fate = MessageFate::Deliver;
  SimTime extra_delay = SimTime::zero();
  bool duplicate = false;  ///< a second copy arrives duplicate_lag later
  SimTime duplicate_lag = SimTime::zero();
};

/// The run-time oracle the component models consult. Const queries serve
/// the window schedule; message fates are stateful (they consume RNG draws
/// and append to the trace).
class FaultInjector {
 public:
  /// Disabled injector: every query is a no-op answer.
  FaultInjector() = default;

  /// Expand \p plan into a concrete schedule for a platform with the given
  /// component counts (MeshTopology::link_index_count(), tile_count(),
  /// mc_count()). \p mesh_width (tiles per row) is needed only to resolve
  /// degraded-link tile pairs to directed link indices; a plan without
  /// degraded links accepts the default.
  FaultInjector(const FaultPlan& plan, int link_count, int tile_count,
                int mc_count, int mesh_width = 0);

  bool enabled() const { return enabled_; }
  const FaultPlan& plan() const { return plan_; }
  /// The pre-generated window faults (and core failures), sorted by start.
  const std::vector<FaultEvent>& schedule() const { return schedule_; }
  /// True when schedule() holds a \p kind event. Every window query for a
  /// kind that is not planned returns its no-fault answer at once.
  bool planned(FaultKind kind) const { return (planned_ & bit(kind)) != 0; }
  /// True when a link or router fate is planned; only then does a mesh
  /// transfer consult the injector per hop.
  bool plans_mesh_fate() const {
    return (planned_ & (bit(FaultKind::LinkDown) | bit(FaultKind::LinkDegrade) |
                        bit(FaultKind::RouterDegrade) |
                        bit(FaultKind::LinkLatency))) != 0;
  }

  // --- NoC hooks ---------------------------------------------------------
  /// Earliest instant >= \p at when the link accepts traffic (a message
  /// arriving during a LinkDown window waits the outage out).
  SimTime link_available(int link_index, SimTime at) const;
  /// Serialisation-time multiplier (>= 1) for the link at \p at.
  double link_slowdown(int link_index, SimTime at) const;
  /// Router forwarding-latency multiplier (>= 1) for \p tile at \p at.
  double router_slowdown(int tile, SimTime at) const;
  /// Per-hop latency multiplier (>= 1) for a *degraded* link at \p at.
  /// Unlike link_slowdown (which scales serialisation time), this scales
  /// the fixed per-hop router latency — latency only ever inflates.
  double link_latency_factor(int link_index, SimTime at) const;

  // --- memory hooks ------------------------------------------------------
  /// Earliest instant >= \p at when the controller admits a new flow.
  SimTime mc_available(int mc, SimTime at) const;
  /// Service-time multiplier (>= 1) for the controller at \p at.
  double mc_slowdown(int mc, SimTime at) const;

  // --- core fail-stop hooks ----------------------------------------------
  /// True when \p core has fail-stopped at or before \p at.
  bool core_failed(int core, SimTime at) const;
  /// The planned death time of \p core, or SimTime::max() if it never dies.
  SimTime core_fail_time(int core) const;
  bool has_core_failures() const { return !plan_.core_failures.empty(); }

  // --- core fail-slow hooks ----------------------------------------------
  /// Latency multiplier (>= 1) for \p core's compute and memory-walk work
  /// at \p at (slow-core fates; 1.0 when the core runs at full speed).
  double core_slowdown(int core, SimTime at) const;
  /// Earliest instant >= \p at when \p core may *start* new work — an
  /// intermittent-stall window defers work to its end, never drops it.
  SimTime core_available(int core, SimTime at) const;

  // --- message fates (stateful; recorded into the trace) -----------------
  /// Decide the fate of one RCCE transfer attempt. On Deliver/Corrupt,
  /// *extra_delay receives the injected transit delay (zero when unharmed).
  MessageFate rcce_message_fate(SimTime at, int from, int to,
                                SimTime* extra_delay);
  /// Full fate of one host datagram: burst-loss state step, drop/corrupt/
  /// delay, reorder displacement and duplication. Both host wires draw it;
  /// the stop-and-wait wire reads the displacement as plain delay and
  /// ignores the duplicate copy.
  DatagramFate host_datagram_fate(SimTime at);

  // --- observability -----------------------------------------------------
  /// Message-fate decisions in the order they were taken.
  const std::vector<FaultEvent>& trace() const { return trace_; }
  /// FNV-1a hash over the schedule and the decision trace; two runs with
  /// the same seed and workload produce the same fingerprint.
  std::uint64_t fingerprint() const;

  std::uint64_t rcce_drops() const { return rcce_drops_; }
  std::uint64_t rcce_delays() const { return rcce_delays_; }
  std::uint64_t rcce_corrupts() const { return rcce_corrupts_; }
  std::uint64_t host_drops() const { return host_drops_; }
  std::uint64_t host_delays() const { return host_delays_; }
  std::uint64_t host_corrupts() const { return host_corrupts_; }

 private:
  static constexpr std::uint32_t bit(FaultKind kind) {
    return 1u << static_cast<unsigned>(kind);
  }
  SimTime available_after(FaultKind kind, int target, SimTime at) const;
  double slowdown(FaultKind kind, int target, SimTime at) const;

  FaultPlan plan_{};
  bool enabled_ = false;
  std::vector<FaultEvent> schedule_;
  std::uint32_t planned_ = 0;  ///< bit(kind) of every kind in schedule_
  std::vector<FaultEvent> trace_;
  Rng rcce_rng_{0};
  Rng host_rng_{0};
  std::uint64_t rcce_drops_ = 0;
  std::uint64_t rcce_delays_ = 0;
  std::uint64_t rcce_corrupts_ = 0;
  std::uint64_t host_drops_ = 0;
  std::uint64_t host_delays_ = 0;
  std::uint64_t host_corrupts_ = 0;
  bool burst_bad_ = false;  ///< Gilbert–Elliott channel state (bad = bursty)
};

}  // namespace sccpipe
