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

/// Optional hardware overrides for ablation studies (0 = platform default).
struct PlatformOverrides {
  double link_bandwidth_bytes_per_sec = 0.0;  ///< constrain the mesh links
  double mc_bandwidth_bytes_per_sec = 0.0;    ///< constrain the controllers
  double core_copy_rate_bytes_per_sec = 0.0;  ///< faster/slower core copies
  /// Use the silicon's real 2x2-tile voltage domains instead of the
  /// paper's idealised per-tile voltage (affects the DVFS power bill).
  bool quad_tile_voltage_domains = false;

  bool operator==(const PlatformOverrides&) const = default;
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

  /// Self-healing knobs (see core/recovery.hpp). Only consulted when a
  /// Supervisor is built: the fault plan schedules at least one core
  /// failure, or the gray detector (`gray`) is armed.
  RecoveryConfig recovery{};

  /// Overload-robust data plane (see core/overload.hpp): reliable ARQ host
  /// transport, credit-based backpressure, admission control / shedding /
  /// circuit breaker. Default-off: a disabled config keeps the legacy
  /// closed-loop run bit-identical. Only meaningful for HostRenderer runs;
  /// composes with core failures and gray detection.
  OverloadConfig overload{};

  /// Gray-failure tolerance (see core/recovery.hpp GrayConfig): service-
  /// time outlier detection on the heartbeat tick plus the mitigation
  /// ladder (DVFS boost -> drain-migrate -> rebalance). Default-off; when
  /// armed it builds the Supervisor even without planned core failures.
  /// Composes with the overload data plane.
  GrayConfig gray{};

  /// Optional: record per-stage wait/process spans here (chrome://tracing
  /// export; see timeline.hpp). Must outlive the run.
  TimelineRecorder* timeline = nullptr;

  /// Field by field, the fault plan's fate lists included.
  bool operator==(const RunConfig&) const = default;
};

struct StageReport {
  StageKind kind{};
  int pipeline = -1;  ///< -1 for producer/transfer stages
  CoreId core = -1;
  QuantileSummary wait_ms{};  ///< per-frame waiting for the next input tile
  /// Busy time of the stage's core; a failed run counts it only up to the
  /// stage's last counted frame, not the work it then dropped.
  double busy_ms = 0.0;
  int frames = 0;  ///< frames the stage completed (transfer: frames shown)
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
  /// Strips the pipeline held when "migrate" rebuilt it: the backlog the
  /// drain re-sends, at most.
  int strips_held = 0;
};

/// Gray-failure outcome of one run: every detector flag, every ladder
/// action, and the run's frame counts (offered = delivered + shed;
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
  /// Read off the run's one frame ledger (balanced when the run is intact).
  std::uint64_t frames_offered = 0;
  std::uint64_t frames_delivered = 0;
  /// Shed by the overload policy or lost to degraded pipelines.
  std::uint64_t frames_shed = 0;
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

  /// The event queue's counters: container growths, the peak of
  /// simultaneously pending events, events scheduled and next-event
  /// register hits. The walkthrough reserves its queue up front, so a
  /// steady-state run reports zero growths. Not part of the CSV.
  SimulatorStats sim_stats;

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
/// fault targets, DVFS levels, the overload and retry knobs' ranges,
/// validate_recovery(), validate_gray(), overload only on the host feed —
/// without building a scene, a trace or a simulator. The only place a
/// RunConfig is checked; InvalidArgument names the first problem.
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
