#pragma once

/// \file walkthrough.hpp
/// The paper's experiment driver: run the 400-frame walkthrough through a
/// chosen renderer configuration (§V), pipeline count, and arrangement
/// (§IV-A) on the simulated SCC+MCPC system or on a simulated HPC cluster
/// node (§VI, Fig. 13), and report everything the paper measures: total
/// walkthrough time, per-stage busy/idle statistics, power trace, energy.

#include <memory>
#include <string_view>
#include <vector>

#include "sccpipe/core/calibration.hpp"
#include "sccpipe/core/channel.hpp"
#include "sccpipe/core/overload.hpp"
#include "sccpipe/core/placement.hpp"
#include "sccpipe/core/recovery.hpp"
#include "sccpipe/core/stage.hpp"
#include "sccpipe/core/timeline.hpp"
#include "sccpipe/core/workload.hpp"
#include "sccpipe/host/host_cpu.hpp"
#include "sccpipe/host/host_link.hpp"
#include "sccpipe/rcce/rcce.hpp"
#include "sccpipe/scc/chip.hpp"
#include "sccpipe/sim/fault.hpp"
#include "sccpipe/sim/trace.hpp"
#include "sccpipe/support/stats.hpp"
#include "sccpipe/support/status.hpp"

namespace sccpipe {

/// The renderer configurations of §V (plus the one-core baseline of §VI-A).
enum class Scenario {
  SingleCore,           ///< whole pipeline on one core (the 382 s baseline)
  SingleRenderer,       ///< one render stage feeds all pipelines (Fig. 3)
  RendererPerPipeline,  ///< sort-first: one renderer per pipeline (Fig. 6)
  HostRenderer,         ///< MCPC renders; connect stage distributes (Fig. 7)
};

const char* scenario_name(Scenario s);
/// The command-line spelling of a scenario into \p out: "1-rend", "n-rend"
/// or "mcpc" (or the long names "single-renderer", "renderer-per-pipeline",
/// "host", "external"). False, leaving \p out alone, on any other name.
bool parse_scenario(std::string_view name, Scenario* out);

/// Which hardware the pipelines run on.
enum class PlatformKind {
  Scc,      ///< the SCC + MCPC system
  Cluster,  ///< one Mogon HPC node (Fig. 13); HostRenderer becomes the
            ///< "external renderer" configuration
};

/// "scc" or "cluster".
const char* platform_name(PlatformKind p);
/// platform_name() back into \p out; false, leaving \p out alone, on any
/// other name.
bool parse_platform(std::string_view name, PlatformKind* out);

/// Crash-durability knobs: periodic run snapshots plus resume-by-replay.
/// Default-off, and a disabled config leaves the run bit-identical to one
/// with no checkpoint layer — snapshots are captured at host frame
/// boundaries with zero simulated cost, so even an enabled config changes
/// only host-side I/O, never the CSV.
struct CheckpointConfig {
  /// Write a snapshot every N viewer frames (0 = never).
  int every_frames = 0;
  /// Snapshot path (written atomically: tmp + rename).
  std::string file;
  /// Verify-by-replay against `file` before continuing: the run replays
  /// deterministically from t = 0, re-captures the component state at the
  /// snapshot's frame boundary, and compares byte-for-byte (typed DataLoss
  /// on divergence). One planned crash-at fate beyond the snapshot's
  /// recorded count is disarmed, so the resumed run sails past the crash
  /// that ended the previous attempt.
  bool resume = false;

  bool enabled() const { return every_frames > 0 || resume; }
};

/// Optional hardware overrides for ablation studies (0 = platform default).
struct PlatformOverrides {
  double link_bandwidth_bytes_per_sec = 0.0;  ///< constrain the mesh links
  double mc_bandwidth_bytes_per_sec = 0.0;    ///< constrain the controllers
  double core_copy_rate_bytes_per_sec = 0.0;  ///< faster/slower core copies
  /// Use the silicon's real 2x2-tile voltage domains instead of the
  /// paper's idealised per-tile voltage (affects the DVFS power bill).
  bool quad_tile_voltage_domains = false;
};

struct RunConfig {
  Scenario scenario = Scenario::HostRenderer;
  Arrangement arrangement = Arrangement::Ordered;
  PlatformKind platform = PlatformKind::Scc;
  PlatformOverrides overrides{};
  int pipelines = 1;

  /// DVFS experiment knobs (§VI-D): 0 = leave at the chip default.
  int blur_mhz = 0;  ///< frequency of the blur stages' (isolated) tiles
  int tail_mhz = 0;  ///< frequency of the post-blur stages and transfer
  bool isolate_blur_tile = false;

  /// Also produce the pixels of every delivered frame (RunResult::frames;
  /// slower; used by the examples and the functional-equivalence tests).
  /// Timing is unaffected: the pixels are composed after the event loop.
  bool functional = false;

  std::uint64_t seed = 42;  ///< scratch/flicker randomness
  Calibration cal = Calibration::defaults();
  RcceConfig rcce{};

  /// Deterministic fault injection (see sim/fault.hpp). The default plan
  /// enables nothing, and a disabled plan leaves the run bit-identical to
  /// one without a fault layer. Transport retry behaviour for injected
  /// message losses is configured via rcce.retry (shared by the RCCE path
  /// and the host links).
  FaultPlan fault{};

  /// Self-healing knobs (see core/recovery.hpp). Only consulted when the
  /// fault plan schedules at least one core failure; otherwise no
  /// Supervisor is built and the run stays bit-identical to PR-1 behaviour.
  RecoveryConfig recovery{};

  /// Overload-robust data plane (see core/overload.hpp): reliable ARQ host
  /// transport, credit-based backpressure, admission control / shedding /
  /// circuit breaker. Default-off: a disabled config keeps the legacy
  /// closed-loop run bit-identical. Only meaningful for HostRenderer runs;
  /// cannot be combined with planned core failures (the supervisor rebuild
  /// assumes rendezvous channels).
  OverloadConfig overload{};

  /// Gray-failure tolerance (see core/recovery.hpp GrayConfig): service-
  /// time outlier detection on the heartbeat tick plus the mitigation
  /// ladder (DVFS boost -> drain-migrate -> rebalance). Default-off; when
  /// armed it builds the Supervisor even without planned core failures.
  /// Cannot be combined with the overload data plane (the gray ledger
  /// assumes the closed-loop frame accounting).
  GrayConfig gray{};

  /// Crash-durable run layer (see CheckpointConfig): periodic snapshots,
  /// resume-by-replay, planned crash-at fates. Default-off.
  CheckpointConfig checkpoint{};

  /// Optional: record per-stage wait/process spans here (chrome://tracing
  /// export; see timeline.hpp). Must outlive the run.
  TimelineRecorder* timeline = nullptr;
};

struct StageReport {
  StageKind kind{};
  int pipeline = -1;  ///< -1 for producer/transfer stages
  CoreId core = -1;
  QuantileSummary wait_ms{};  ///< per-frame waiting for the next input tile
  double busy_ms = 0.0;       ///< total busy time on the stage's core
  int frames = 0;
};

/// Aggregate interconnect/memory accounting for a run — the quantities the
/// paper's §VI-A discussion revolves around.
struct FabricReport {
  double mesh_total_bytes = 0.0;     ///< sum over all directed links
  double mesh_max_link_bytes = 0.0;  ///< the hottest link's volume
  /// Per memory controller: bytes streamed through it.
  std::vector<double> mc_bulk_bytes;
  /// Peak number of simultaneous latency-bound walkers per controller.
  std::vector<std::uint64_t> mc_latency_streams_peak;
};

/// What the fault layer did to a run, and how the run ended. A failed run
/// is a *graceful* failure: the simulation drained normally, the completed
/// frames' metrics are valid, and `failure` names the first transport error
/// that stopped the pipeline.
struct FaultReport {
  bool enabled = false;  ///< a fault plan was active for this run
  bool failed = false;   ///< the walkthrough stopped before the last frame
  StatusCode failure_code = StatusCode::Ok;
  std::string failure;          ///< first error, labelled with its stage/link
  double failed_at_ms = 0.0;    ///< simulated instant of the first error
  int frames_completed = 0;     ///< frames that reached the viewer
  /// Every transport error observed, labelled per stage/link, in order.
  std::vector<std::string> stage_errors;

  // Fault-layer decision counters (see FaultInjector).
  std::uint64_t rcce_drops = 0;
  std::uint64_t rcce_delays = 0;
  std::uint64_t host_drops = 0;
  std::uint64_t host_delays = 0;
  std::uint64_t rcce_corrupts = 0;  ///< payloads mangled in flight (CRC-caught)
  std::uint64_t host_corrupts = 0;
  std::uint64_t rcce_retransmissions = 0;
  std::uint64_t host_retransmissions = 0;
  std::uint64_t rcce_transfers_failed = 0;
  /// FNV-1a hash of the fault schedule + decision trace (determinism tests).
  std::uint64_t fingerprint = 0;
};

/// Checkpoint/crash/resume outcome of one run. Deliberately NOT part of the
/// CSV: a checkpointed run's CSV must stay byte-identical to an
/// uncheckpointed one.
struct CheckpointReport {
  bool enabled = false;            ///< cfg.checkpoint was active
  std::uint64_t checkpoints_written = 0;
  std::uint64_t last_checkpoint_frames = 0;  ///< frame count at the last write
  bool resumed = false;            ///< a snapshot was loaded at start
  /// The replay reached the snapshot's frame boundary and the re-captured
  /// component blob matched byte-for-byte.
  bool resume_verified = false;
  bool crashed = false;            ///< a planned crash-at fate ended this run
  double crashed_at_ms = 0.0;
  /// Planned crash-at fates disarmed for this attempt (resume arithmetic).
  std::uint32_t crashes_consumed = 0;
  /// First checkpoint-layer failure: snapshot load/parse, fingerprint
  /// mismatch, replay divergence, or a checkpoint write error.
  StatusCode error_code = StatusCode::Ok;
  std::string error;
};

/// One mitigation action the gray policy ladder took, with the detector
/// evidence that triggered it and the before/after per-stage service time
/// so the report shows whether the rung worked.
struct GrayActionRecord {
  int core = -1;       ///< the flagged straggler
  int pipeline = -1;   ///< pipeline the core served
  StageKind stage{};   ///< role the core played
  /// "dvfs-boost", "migrate", "rebalance", "observe" (policy off / ladder
  /// exhausted) or "escalate-fail-stop" (the straggler went silent).
  std::string action;
  double flagged_at_ms = 0.0;
  GrayEvidence evidence{};        ///< the numbers that tripped the detector
  double before_stage_ms = 0.0;   ///< window p50 at the flag
  double after_stage_ms = 0.0;    ///< stage service p50 after the action
  int migrated_to = -1;           ///< spare core, for "migrate"
};

/// Gray-failure outcome of one run: every detector flag, every ladder
/// action, and the audited frame ledger (offered = delivered + shed;
/// mitigation itself never loses a frame — drain-migration replays nothing
/// and abandons nothing).
struct GrayReport {
  bool enabled = false;
  int flags_raised = 0;
  int dvfs_boosts = 0;
  int migrations = 0;
  int rebalances = 0;
  /// Gray incidents that ended in a fail-stop verdict for the same core —
  /// merged into ONE incident (see FailureRecord::gray_escalated).
  int escalations = 0;
  /// In-flight strips re-sent through a drain-migration's rebuilt channels.
  /// Counted here, NOT in RecoveryReport::frames_replayed — the straggler
  /// core is alive, so this is a drain of work already staged, not a
  /// checkpoint replay after a death.
  int frames_drained = 0;
  std::vector<GrayActionRecord> actions;
  /// Audited ledger over the whole run (CHECKed when the run is intact).
  std::uint64_t frames_offered = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_shed = 0;  ///< lost to degraded pipelines only
  /// Delivered-frame throughput from the first flag to the end of the run;
  /// 0 when nothing was flagged.
  double post_mitigation_fps = 0.0;
};

struct RunResult {
  SimTime walkthrough = SimTime::zero();  ///< last frame shown at the viewer
  std::vector<StageReport> stages;
  Placement placement;
  FabricReport fabric;

  double chip_energy_joules = 0.0;  ///< SCC (or cluster node) over the run
  double mean_chip_watts = 0.0;
  StepTrace power_trace;

  double host_busy_sec = 0.0;          ///< MCPC render activity (§VI-B)
  double host_extra_energy_joules = 0.0;  ///< busy * (80 W - 52 W)

  std::vector<double> frame_done_ms;  ///< viewer arrival time per frame

  /// Simulator events dispatched for this run (perf accounting: the
  /// sweep's BENCH_sweep.json derives events/sec from it).
  std::uint64_t events_dispatched = 0;

  /// Functional runs only: the final frames, in viewer delivery order;
  /// shed or lost frames are absent.
  std::vector<Image> frames;

  /// Fault-injection outcome (enabled == false for ordinary runs).
  FaultReport fault;

  /// Self-healing outcome (enabled == false unless the plan scheduled a
  /// core failure): detections, remaps, replay traffic, degradations.
  RecoveryReport recovery;

  /// Transport + overload outcome (enabled == false unless cfg.overload
  /// activated any feature): ARQ counters, frame ledger, credit stalls,
  /// breaker transitions, goodput and latency quantiles.
  TransportReport transport;

  /// Gray-failure detection/mitigation outcome (enabled == false unless
  /// cfg.gray armed the detector).
  GrayReport gray;

  /// Event-queue container growths and the peak of simultaneously pending
  /// events (SimulatorStats). The walkthrough reserves its queue up front,
  /// so a steady-state run reports zero growths. Not part of the CSV.
  std::uint64_t sim_allocs = 0;
  std::uint64_t sim_peak_events = 0;

  /// Checkpoint/crash/resume outcome (enabled == false unless
  /// cfg.checkpoint or a crash-at fate was active).
  CheckpointReport checkpoint;

  /// Convenience: wait summary of the first stage of the given kind.
  const StageReport* stage(StageKind kind, int pipeline = 0) const;
};

/// Run the full walkthrough. \p scene supplies geometry + camera path;
/// \p trace must come from the same scene and hold the strip counts
/// strip_counts_for({cfg}) names (1 and cfg.pipelines), and \p cfg must
/// pass validate_run_config(); both are CHECKed. A functional run then
/// composes the frames the viewer received from the strips the transfer
/// stage logged for them, on default_jobs() threads (RunResult::frames).
RunResult run_walkthrough(const SceneBundle& scene, const WorkloadTrace& trace,
                          const RunConfig& cfg);

/// The stages and producer slot a run of \p cfg asks the chip to host.
PlacementRequest placement_request(const RunConfig& cfg);

/// Dry run of the configuration checks run_walkthrough() would CHECK —
/// scenario, pipeline count, placement feasibility on the platform's mesh,
/// fault targets, feature exclusions — without building a scene, a trace
/// or a simulator. InvalidArgument names the first problem.
Status validate_run_config(const RunConfig& cfg);

/// The strip counts a trace needs to run every config in \p configs:
/// k = 1 (whole frames) and each cfg.pipelines (sort-first strips).
StripCounts strip_counts_for(const std::vector<RunConfig>& configs);

/// Checks, before any scene is built, that square frames of side \p size
/// can be cut into every strip count in \p counts: each strip needs at
/// least one row. InvalidArgument otherwise.
Status validate_frame_size(int size, const StripCounts& counts);

/// Per-stage busy time of the one-core baseline (Fig. 8). Flags reproduce
/// the paper's reduced variants ("render and transfer stages only",
/// "without the transfer stage").
struct SingleCoreBreakdown {
  std::vector<std::pair<StageKind, SimTime>> per_stage;
  SimTime total = SimTime::zero();

  SimTime stage_time(StageKind kind) const;
};

/// Every stage of every frame in turn on core 0 of a fresh chip of
/// cfg.platform, through the same located chip operations (and so the
/// same mesh transits) as run_walkthrough.
SingleCoreBreakdown run_single_core(const SceneBundle& scene,
                                    const WorkloadTrace& trace,
                                    const RunConfig& cfg,
                                    bool include_filters = true,
                                    bool include_transfer = true);

}  // namespace sccpipe
