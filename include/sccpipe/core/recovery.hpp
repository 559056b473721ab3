#pragma once

/// \file recovery.hpp
/// Self-healing for fail-stop core faults: the Supervisor and the recovery
/// report. The SCC has no hardware failure notification — a dead core is
/// just *silent* — so liveness is inferred the way a real runtime would:
///
///   heartbeats  Every watched core sends a tiny datagram to the monitor
///               core (the transfer stage's core, which already talks to
///               every pipeline) once per heartbeat period. The packets
///               ride the simulated mesh, so monitoring has a visible,
///               deterministic traffic cost.
///   deadline    The monitor scans its heartbeat table each period; a core
///               whose last heartbeat is older than the detection deadline
///               is declared fail-stopped and the failure handler runs.
///               Worst-case detection latency is therefore bounded by
///               deadline + 2 * period + one mesh transit.
///
/// What the handler (WalkthroughSim) does with a declared death — remap the
/// pipeline onto a spare core and replay checkpointed frames, or degrade to
/// fewer pipelines — is described in docs/MODEL.md §7. The Supervisor
/// itself only detects; keeping it policy-free makes the detection latency
/// independently testable (tests/recovery_test.cpp).

#include <cstdint>
#include <functional>
#include <vector>

#include "sccpipe/core/stage.hpp"
#include "sccpipe/noc/topology.hpp"
#include "sccpipe/scc/chip.hpp"
#include "sccpipe/sim/fault.hpp"
#include "sccpipe/support/stats.hpp"
#include "sccpipe/support/status.hpp"
#include "sccpipe/support/time.hpp"

namespace sccpipe {

/// Tuning of the heartbeat/watchdog protocol and the remap policy.
struct RecoveryConfig {
  SimTime heartbeat_period = SimTime::ms(10);
  /// Silence longer than this declares the core dead. Must comfortably
  /// exceed one period plus a mesh transit, or healthy-but-congested cores
  /// get declared dead spuriously.
  SimTime detection_deadline = SimTime::ms(25);
  double heartbeat_bytes = 64.0;  ///< one liveness datagram
  /// Cap on how many spare cores a run may consume (-1 = all the placement
  /// offers). 0 forces every failure down the degrade path — used by the
  /// spare-exhaustion tests.
  int max_spares = -1;

  bool operator==(const RecoveryConfig&) const = default;
};

/// Parse-time validation of a recovery config. Typed InvalidArgument when
/// the heartbeat period is non-positive, when max_spares < -1, or when
/// detection_deadline < 2 * heartbeat_period — below that bound a single
/// heartbeat arriving one mesh transit late can be declared a death, so
/// the watchdog would fire spuriously on healthy congested runs. The
/// Supervisor constructor only CHECKs the weaker deadline > period
/// invariant; validate_run_config() calls this, so a flag is rejected as a
/// typed error, not an abort.
Status validate_recovery(const RecoveryConfig& cfg);

/// How far up the mitigation ladder the walkthrough driver may climb when
/// the gray detector flags a straggler. Each level includes the ones below
/// it: a flag is first answered with the cheapest remedy, and a repeat flag
/// (the straggler is still over threshold K windows later) escalates.
enum class GrayPolicy : std::uint8_t {
  Off,        ///< detect and report, never act
  Dvfs,       ///< boost the straggler's frequency island
  Migrate,    ///< ... then drain-migrate the stage to a spare core
  Rebalance,  ///< ... then re-split the stage chain's strip weights
};

const char* gray_policy_name(GrayPolicy policy);
/// Parse "off" | "dvfs" | "migrate" | "rebalance"; InvalidArgument on junk.
Status parse_gray_policy(const std::string& text, GrayPolicy* out);

/// Gray-failure detector tuning. The detector is armed when detect_factor
/// > 0: each heartbeat tick closes one observation window per watched core,
/// summarises the window's per-stage service times into a p50 (shared
/// support/stats histogram), normalizes it by the core's own EWMA baseline
/// (so heterogeneous stage costs don't read as stragglers), and flags the
/// core once its normalized service time exceeds detect_factor times the
/// *median* normalized service time across reporting cores for
/// detect_windows consecutive windows. Median-relative thresholding means a
/// uniform slowdown of every core never fires (no false straggler).
struct GrayConfig {
  /// Multiple of the pipeline-median normalized service time beyond which a
  /// core reads as gray-failed; 0 disables the detector entirely.
  double detect_factor = 0.0;
  int detect_windows = 3;  ///< K consecutive windows over threshold
  GrayPolicy policy = GrayPolicy::Rebalance;

  bool enabled() const { return detect_factor > 0.0; }
  bool operator==(const GrayConfig&) const = default;
};

/// Typed validation of the gray-detector flags: detect_factor must exceed 1
/// (at 1 the median core itself sits on the threshold) and detect_windows
/// must be positive. A disabled config (factor 0) is always valid; a
/// negative factor never is.
Status validate_gray(const GrayConfig& cfg);

/// Trigger evidence handed to the gray handler alongside the flag — the
/// exact numbers the detector compared, so every mitigation action in the
/// RunResult::gray report can show *why* it fired.
struct GrayEvidence {
  double window_p50_ms = 0.0;  ///< the window that tripped the threshold
  double baseline_ms = 0.0;    ///< the core's EWMA service-time baseline
  double norm = 0.0;           ///< window_p50 / baseline
  double median_norm = 0.0;    ///< median norm across reporting cores
  int streak = 0;              ///< consecutive windows over threshold
};

/// One detected fail-stop failure and what recovery did about it.
struct FailureRecord {
  int core = -1;
  StageKind stage{};      ///< role the core played when it died
  int pipeline = -1;      ///< -1 for producer/transfer/idle cores
  double failed_at_ms = 0.0;    ///< planned death time (ground truth)
  double detected_at_ms = 0.0;  ///< when the watchdog declared it dead
  double detection_latency_ms = 0.0;
  int remapped_to = -1;   ///< spare core that took over, or -1
  bool degraded = false;  ///< pipeline dropped instead of remapped
  bool recovered = false; ///< run continued past this failure
  /// The core was already flagged gray when it went silent: the fail-stop
  /// is the *escalation* of one incident, not a second overlapping one, so
  /// detection latency is measured from the gray flag and any frames the
  /// gray mitigation already drained are not double-counted as replays.
  bool gray_escalated = false;
};

/// Aggregated recovery outcome, part of RunResult.
struct RecoveryReport {
  bool enabled = false;
  int failures_detected = 0;
  int failures_recovered = 0;
  std::vector<FailureRecord> failures;
  int frames_replayed = 0;  ///< checkpointed strips re-sent after a remap
  int frames_lost = 0;      ///< frames abandoned by degraded pipelines
  int spares_used = 0;
  int pipelines_lost = 0;
  std::uint64_t heartbeats_sent = 0;
  double heartbeat_bytes = 0.0;       ///< mesh traffic spent on liveness
  std::uint64_t checkpoint_writes = 0;
  std::uint64_t checkpoint_replays = 0;
  double checkpoint_bytes = 0.0;      ///< DRAM traffic spent on checkpoints
  double max_detection_latency_ms = 0.0;
  /// Delivered-frame throughput measured from the first detection to the
  /// end of the run; 0 when nothing failed (or nothing followed).
  double post_failure_fps = 0.0;
};

/// Heartbeat emitter + watchdog. Construction is passive; start() arms the
/// periodic tick. All state lives in sorted vectors keyed by core id, so
/// iteration order — and with it every mesh transfer and every detection —
/// is deterministic.
class Supervisor {
 public:
  /// (dead core, time the watchdog declared it dead)
  using FailureHandler = std::function<void(CoreId, SimTime)>;
  /// (straggler core, time the detector flagged it, trigger evidence)
  using GrayHandler = std::function<void(CoreId, SimTime, const GrayEvidence&)>;

  Supervisor(SccChip& chip, const FaultInjector& fault, RecoveryConfig cfg,
             CoreId monitor_core);

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  const RecoveryConfig& config() const { return cfg_; }
  CoreId monitor_core() const { return monitor_; }

  /// Add \p core to the watched set (idempotent). Its heartbeat clock
  /// starts at the current simulated time.
  void watch(CoreId core);
  /// Stop watching \p core (a declared-dead core is unwatched implicitly).
  void unwatch(CoreId core);

  /// Arm the gray-failure detector (before start()). Detection rides the
  /// existing heartbeat tick: each tick closes one observation window per
  /// watched core. \p on_gray runs from inside the tick, once per flag;
  /// after firing the streak re-arms, so a straggler the mitigation did not
  /// cure flags again detect_windows windows later (the walkthrough climbs
  /// its policy ladder on those repeats).
  void enable_gray(GrayConfig cfg, GrayHandler on_gray);
  bool gray_enabled() const { return gray_cfg_.enabled(); }

  /// Feed one per-stage service-time observation (milliseconds) for \p
  /// core's current window. Called by the stage driver at strip completion;
  /// callers must invoke it at deterministic simulated instants (the
  /// walkthrough records from host-side stage callbacks), which makes the
  /// detector byte-identical at any --jobs. Unwatched cores are ignored.
  void record_service(CoreId core, double service_ms);
  /// Drop the detector's per-core history for \p core (after a migration:
  /// the spare starts with a fresh baseline).
  void reset_gray(CoreId core);
  /// True when \p core is currently flagged (streak fired and the straggler
  /// has not yet dropped back under threshold) — the escalation merge in
  /// the walkthrough asks this when a silence verdict lands.
  bool gray_flagged(CoreId core) const;

  /// Arm the periodic tick. \p on_failure runs from inside the tick, once
  /// per declared death.
  void start(FailureHandler on_failure);
  /// Disarm; pending tick events are cancelled so the event queue drains.
  void stop();
  bool stopped() const { return stopped_; }

  std::uint64_t heartbeats_sent() const { return heartbeats_; }
  double heartbeat_bytes_total() const { return heartbeat_bytes_; }
  std::uint64_t gray_windows_evaluated() const { return gray_windows_; }

 private:
  struct Watched {
    CoreId core = -1;
    SimTime last_heartbeat = SimTime::zero();
    // Gray-detector state, live only when gray_cfg_.enabled(). The window
    // samples stay in arrival order; the window-close median sorts a
    // scratch copy.
    std::vector<double> window_ms;  ///< service samples, current window
    double baseline_ms = 0.0;       ///< EWMA of unsuspicious window p50s
    int streak = 0;                 ///< consecutive windows over threshold
    bool flagged = false;           ///< fired and not yet back under
  };

  void tick();
  void evaluate_gray(SimTime now);
  Watched* find(CoreId core);

  SccChip& chip_;
  const FaultInjector& fault_;
  RecoveryConfig cfg_;
  GrayConfig gray_cfg_{};
  CoreId monitor_;
  FailureHandler on_failure_;
  GrayHandler on_gray_;
  std::vector<Watched> watched_;  ///< sorted by core id
  /// Cores currently flagged gray (sorted). Kept outside watched_ so the
  /// flag survives the unwatch that precedes a fail-stop verdict — that is
  /// what lets the walkthrough merge slow-then-dead into one incident.
  std::vector<CoreId> gray_flagged_;
  std::vector<double> scratch_;  ///< median input, reused per window close
  EventHandle tick_event_{};
  bool started_ = false;
  bool stopped_ = false;
  std::uint64_t heartbeats_ = 0;
  double heartbeat_bytes_ = 0.0;
  std::uint64_t gray_windows_ = 0;
};

}  // namespace sccpipe
