#include "sccpipe/core/walkthrough.hpp"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>

#include "sccpipe/core/run_snapshot.hpp"
#include "sccpipe/filters/filters.hpp"
#include "sccpipe/noc/fabric.hpp"
#include "sccpipe/noc/mesh.hpp"
#include "sccpipe/scc/dvfs.hpp"
#include "sccpipe/support/check.hpp"
#include "sccpipe/support/parallel.hpp"
#include "sccpipe/support/snapshot.hpp"

namespace sccpipe {

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::SingleCore: return "single-core";
    case Scenario::SingleRenderer: return "1-renderer";
    case Scenario::RendererPerPipeline: return "n-renderers";
    case Scenario::HostRenderer: return "host-renderer";
  }
  return "?";
}

bool parse_scenario(std::string_view name, Scenario* out) {
  if (name == "1-rend" || name == "single-renderer") {
    *out = Scenario::SingleRenderer;
  } else if (name == "n-rend" || name == "renderer-per-pipeline") {
    *out = Scenario::RendererPerPipeline;
  } else if (name == "mcpc" || name == "host" || name == "external") {
    *out = Scenario::HostRenderer;
  } else {
    return false;
  }
  return true;
}

const char* platform_name(PlatformKind p) {
  return p == PlatformKind::Scc ? "scc" : "cluster";
}

bool parse_platform(std::string_view name, PlatformKind* out) {
  for (const PlatformKind p : {PlatformKind::Scc, PlatformKind::Cluster}) {
    if (name == platform_name(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

const StageReport* RunResult::stage(StageKind kind, int pipeline) const {
  for (const StageReport& r : stages) {
    if (r.kind == kind && (r.pipeline == pipeline || r.pipeline < 0)) {
      return &r;
    }
  }
  return nullptr;
}

SimTime SingleCoreBreakdown::stage_time(StageKind kind) const {
  SimTime t = SimTime::zero();
  for (const auto& [k, v] : per_stage) {
    if (k == kind) t += v;
  }
  return t;
}

namespace {

constexpr StageKind kFilterChain[] = {StageKind::Sepia, StageKind::Blur,
                                      StageKind::Scratch, StageKind::Flicker,
                                      StageKind::Swap};
constexpr int kFilterCount = 5;

/// Reference cycles the host spends rendering a whole frame: the Xeon's
/// SIMD advantage discounts the raster loop, and its caches/prefetchers cut
/// the per-access walk cost. Calibrated so the MCPC renders the 400-frame
/// walkthrough in ~3.3 s of busy time (§VI-B).
double host_render_cycles(const Calibration& cal, const RenderLoad& load) {
  const StageWork w = render_work(cal, load, /*adjust_frustum=*/false);
  return w.cycles + 100.0 * w.walk_accesses;
}

/// The models a platform is built from, before any PlatformOverrides: the
/// chip (SCC or Mogon node), the links to the viewer and from the
/// producer, and the host CPU a host-renderer run renders on.
struct PlatformParts {
  ChipConfig chip;
  HostLinkConfig viewer_link;
  HostLinkConfig producer_link;
  HostCpuConfig host_cpu;
};

PlatformParts platform_parts(PlatformKind platform) {
  if (platform == PlatformKind::Scc) {
    return {ChipConfig::scc(), HostLinkConfig::mcpc(), HostLinkConfig::mcpc(),
            HostCpuConfig::mcpc()};
  }
  return {ChipConfig::mogon_node(), HostLinkConfig::cluster(),
          HostLinkConfig::cluster_external(), HostCpuConfig::cluster_node()};
}

/// Livelock budget of the event loop: more events than this at one
/// simulated instant means a zero-delay cycle, and the run stops with
/// DeadlineExceeded instead of hanging (sim/simulator.hpp, run_guarded).
constexpr std::uint64_t kMaxEventsPerTimestamp = 10'000'000;

void apply_filter_stage(StageKind kind, Image& img, int frame,
                        std::uint64_t seed, int max_scratches) {
  switch (kind) {
    case StageKind::Sepia:
      apply_sepia(img);
      break;
    case StageKind::Blur:
      apply_blur(img);
      break;
    case StageKind::Scratch:
      apply_scratches(img, scratch_params_for_frame(seed, frame, img.width(),
                                                    max_scratches));
      break;
    case StageKind::Flicker:
      apply_flicker(img, flicker_params_for_frame(seed, frame));
      break;
    case StageKind::Swap:
      apply_vflip(img);
      break;
    default:
      SCCPIPE_CHECK_MSG(false, "not a filter stage");
  }
}

/// One strip the transfer stage received for a frame.
struct DeliveredStrip {
  int frame = 0;
  StripRange strip{};
};

/// The pixels of the frames in \p log, one per run of equal frame numbers,
/// in log order. Each strip is rendered, put through kFilterChain and
/// pasted mirrored (the swap stage flipped it; reversing the strip order
/// completes the whole-frame flip the viewer expects). Strips are
/// independent tasks that write disjoint rows, so the frames do not depend
/// on the thread count.
std::vector<Image> compose_frames(const SceneBundle& scene,
                                  const RunConfig& cfg,
                                  std::span<const DeliveredStrip> log) {
  const int side = scene.image_side();
  std::vector<std::size_t> frame_of(log.size());
  std::vector<StripRange> rows;  // one frame's strips, for the tiling check
  std::size_t frames = 0;
  for (std::size_t i = 0; i < log.size();) {
    const int frame = log[i].frame;
    rows.clear();
    for (; i < log.size() && log[i].frame == frame; ++i) {
      frame_of[i] = frames;
      rows.push_back(log[i].strip);
    }
    ++frames;
    // Pixel integrity: the strips of a delivered frame tile it exactly.
    std::sort(rows.begin(), rows.end(),
              [](StripRange a, StripRange b) { return a.y0 < b.y0; });
    int next = 0;
    for (const StripRange& r : rows) {
      SCCPIPE_CHECK_MSG(r.y0 == next && r.rows > 0,
                        "frame " << frame << " strips leave a gap or overlap"
                                 << " at row " << next);
      next += r.rows;
    }
    SCCPIPE_CHECK_MSG(next == side, "frame " << frame << " strips cover "
                                             << next << " of " << side
                                             << " rows");
  }
  std::vector<Image> out(frames, Image(side, side));
  parallel_for(default_jobs(), log.size(), [&](std::size_t i) {
    const DeliveredStrip& d = log[i];
    Image img =
        scene.renderer().render_strip(scene.path().view(d.frame), d.strip);
    for (const StageKind kind : kFilterChain) {
      apply_filter_stage(kind, img, d.frame, cfg.seed, cfg.cal.max_scratches);
    }
    out[frame_of[i]].paste(img, side - d.strip.y0 - d.strip.rows);
  });
  return out;
}

/// One timed walkthrough run. Owns the simulator, the platform models and
/// all stage actors; run() drives the event loop to completion.
class WalkthroughSim {
 public:
  WalkthroughSim(const SceneBundle& scene, const WorkloadTrace& trace,
                 const RunConfig& cfg)
      : scene_(scene),
        trace_(trace),
        cfg_(cfg) {
    const Status valid = validate_run_config(cfg);
    SCCPIPE_CHECK_MSG(valid.ok(), valid.message());
    SCCPIPE_CHECK_MSG(trace.strip_counts().contains(1) &&
                          trace.strip_counts().contains(cfg.pipelines),
                      "workload trace holds strip counts "
                          << trace.strip_counts().to_string()
                          << "; a run with " << cfg.pipelines
                          << " pipelines reads 1 and " << cfg.pipelines);
    SCCPIPE_CHECK_MSG(trace.frame_count() >= scene.frame_count(),
                      "trace shorter than the walkthrough");
    if (cfg.overload.enabled()) {
      overload_mode_ = true;
      breaker_ = std::make_unique<CircuitBreaker>(
          cfg.overload.breaker_threshold, cfg.overload.breaker_cooldown);
      arrival_at_.assign(static_cast<std::size_t>(frames_total()),
                         SimTime::zero());
    }
    build_platform();
    build_placement();
    apply_dvfs();
    build_channels_and_stages();
    build_supervisor();
    crash_plan_ = cfg_.fault.crashes;
    std::sort(crash_plan_.begin(), crash_plan_.end());
    config_fp_ = run_config_fingerprint(cfg_);
    transfer_assembly_.reserve(static_cast<std::size_t>(frames_total()) *
                               static_cast<std::size_t>(cfg.pipelines));
  }

  /// The strips of the frames the viewer received, in delivery order.
  std::span<const DeliveredStrip> delivery_log() const {
    return {transfer_assembly_.data(), delivered_end_};
  }

  RunResult run() {
    // Cores are allocated before the resume gate: collect() and the chip
    // teardown both expect an allocated placement even when the resume
    // snapshot turns out to be unusable and the event loop never runs.
    allocate_cores();
    if (cfg_.checkpoint.resume && !load_resume()) return collect();
    // Arm the first planned crash this attempt has not consumed. The crash
    // is a *process* fate executed here in the driver: dispatch simply
    // stops at the armed instant (events at exactly T still run, matching
    // run_until semantics), as if the host process had been killed. It
    // never touches the fault layer, so the dispatched prefix — and every
    // checkpoint written before T — is byte-identical to the uninterrupted
    // run's.
    const SimTime crash_at =
        crashes_disarmed_ < crash_plan_.size()
            ? crash_plan_[crashes_disarmed_]
            : SimTime::max();
    if (supervisor_) {
      supervisor_->start([this](CoreId core, SimTime detected_at) {
        handle_core_failure(core, detected_at);
      });
    }
    start_producer();
    start_filter_stages();
    start_transfer();
    on_run_start();
    chip_->fabric().set_in_run(true);
    const Status drained = run_guarded(sim_, crash_at, kMaxEventsPerTimestamp);
    chip_->fabric().set_in_run(false);
    // Work left beyond the crash instant means the run was cut short; a
    // walkthrough that legitimately finished before T drains to empty and
    // never counts as crashed.
    if (crash_at != SimTime::max() && sim_.pending() > 0) {
      crashed_ = true;
      crashed_at_ = crash_at;
    }
    if (!drained.ok()) {
      // The event loop refused to hang; surface the typed verdict as the
      // run's failure so callers see DeadlineExceeded, not a short run.
      on_fault("event-loop livelock guard", drained);
    }
    return collect();
  }

 private:
  // ------------------------------------------------------------ platform
  void build_platform() {
    const PlatformParts parts = platform_parts(cfg_.platform);
    ChipConfig chip_cfg = parts.chip;
    viewer_link_ = parts.viewer_link;
    producer_link_ = parts.producer_link;
    if (cfg_.scenario == Scenario::HostRenderer) {
      host_ = std::make_unique<HostCpu>(sim_, parts.host_cpu);
    }
    const PlatformOverrides& ov = cfg_.overrides;
    if (ov.link_bandwidth_bytes_per_sec > 0.0) {
      chip_cfg.mesh_timing.link_bandwidth_bytes_per_sec =
          ov.link_bandwidth_bytes_per_sec;
    }
    if (ov.mc_bandwidth_bytes_per_sec > 0.0) {
      chip_cfg.memory.mc_bandwidth_bytes_per_sec =
          ov.mc_bandwidth_bytes_per_sec;
    }
    if (ov.core_copy_rate_bytes_per_sec > 0.0) {
      chip_cfg.copy_rate_bytes_per_sec = ov.core_copy_rate_bytes_per_sec;
    }
    if (ov.quad_tile_voltage_domains) {
      chip_cfg.voltage_granularity = VoltageGranularity::PerQuadTileDomain;
    }
    chip_ = std::make_unique<SccChip>(sim_, chip_cfg);
    rcce_ = std::make_unique<RcceComm>(*chip_, cfg_.rcce);

    // Fault layer: only attached when the plan enables something, so a
    // zero-fault run is bit-identical to one without the layer at all.
    if (cfg_.fault.enabled()) {
      const MeshTopology& topo = chip_->topology();
      fault_ = std::make_unique<FaultInjector>(cfg_.fault,
                                               topo.link_index_count(),
                                               topo.tile_count(),
                                               topo.mc_count(),
                                               topo.layout().width);
      chip_->mesh().set_fault_injector(fault_.get());
      chip_->memory().set_fault_injector(fault_.get());
      chip_->set_fault_injector(fault_.get());
      rcce_->set_fault_injector(fault_.get());
    }
  }

  void build_placement() {
    placement_ = make_placement(chip_->topology(), cfg_.arrangement,
                                placement_request(cfg_));
  }

  void apply_dvfs() {
    if (cfg_.blur_mhz > 0) {
      for (const auto& pl : placement_.pipeline_cores) {
        chip_->set_core_frequency(blur_core_of(pl), cfg_.blur_mhz);
      }
    }
    if (cfg_.tail_mhz > 0) {
      for (const auto& pl : placement_.pipeline_cores) {
        // Stages strictly after blur: scratch, flicker, swap.
        const std::size_t blur_idx = pl.size() - 4;
        for (std::size_t s = blur_idx + 1; s < pl.size(); ++s) {
          chip_->set_core_frequency(pl[s], cfg_.tail_mhz);
        }
      }
      chip_->set_core_frequency(placement_.transfer, cfg_.tail_mhz);
    }
  }

  CoreId blur_core_of(const std::vector<CoreId>& pipeline_cores) const {
    return pipeline_cores[pipeline_cores.size() - 4];
  }

  /// The Supervisor exists only when the plan schedules a core failure or
  /// the gray detector is armed, so every other configuration — including
  /// PR-1 drop/delay fault runs — takes exactly the code paths it did
  /// before this feature existed.
  void build_supervisor() {
    const bool core_faults = fault_ != nullptr && fault_->has_core_failures();
    if (!core_faults && !cfg_.gray.enabled()) return;
    const MeshTopology& topo = chip_->topology();
    const FaultInjector* fi = fault_.get();
    if (fi == nullptr) {
      // Gray detector armed with no fault plan at all (the ablation's
      // no-fault baselines): the Supervisor still wants a fault view for
      // its death checks; hand it an inert one that reports no deaths.
      idle_fault_ = std::make_unique<FaultInjector>(
          FaultPlan{}, topo.link_index_count(), topo.tile_count(),
          topo.mc_count(), topo.layout().width);
      fi = idle_fault_.get();
    }
    supervisor_ = std::make_unique<Supervisor>(*chip_, *fi, cfg_.recovery,
                                               placement_.transfer);
    recovery_.enabled = true;
    spares_ = placement_.spare_cores;
    if (cfg_.recovery.max_spares >= 0 &&
        static_cast<int>(spares_.size()) > cfg_.recovery.max_spares) {
      spares_.resize(static_cast<std::size_t>(cfg_.recovery.max_spares));
    }
    const std::size_t k = static_cast<std::size_t>(cfg_.pipelines);
    cores_now_ = placement_.pipeline_cores;
    pipeline_alive_.assign(k, 1);
    pipeline_gen_.assign(k, 0);
    acked_.assign(k, -1);
    head_sent_.assign(k, -1);
    outstanding_.resize(k);
    replay_q_.resize(k);
    replay_active_.assign(k, 0);
    gray_drain_.assign(k, 0);
    if (cfg_.gray.enabled()) {
      pipe_weight_.assign(k, 1.0);
      supervisor_->enable_gray(
          cfg_.gray, [this](CoreId core, SimTime at, const GrayEvidence& ev) {
            handle_gray_flag(core, at, ev);
          });
    }
    for (const CoreId c : placement_.all_cores()) supervisor_->watch(c);
  }

  // --------------------------------------------------------- construction
  struct StageState {
    StageKind kind{};
    int pipeline = -1;
    CoreId core = -1;
    Channel* in = nullptr;
    Channel* out = nullptr;
    SampleSet wait_ms;
    int frames_done = 0;
    SimTime recv_posted = SimTime::zero();
    /// Bumped (via pipeline_gen_) each time the pipeline is rebuilt after a
    /// remap; callbacks captured under an older generation are orphaned.
    int gen = 0;
  };

  /// First transport error wins (records the failure headline); every
  /// error is kept for the per-stage fault report. The pump guards on
  /// failed_ stop new work, and the event loop then drains naturally —
  /// a faulted run ends, it never hangs.
  void on_fault(const std::string& where, const Status& status) {
    fault_errors_.push_back(where + ": " + status.to_string());
    if (failed_) return;
    failed_ = true;
    first_failure_ = status;
    first_failure_where_ = where;
    failed_at_ = sim_.now();
    // A failed run must still drain: without this the watchdog would keep
    // rescheduling itself and the event loop would never empty.
    if (supervisor_) supervisor_->stop();
  }

  /// Label a channel's transport errors with the hop they broke.
  Channel* watch(Channel* ch, std::string where) {
    ch->set_error_handler([this, where = std::move(where)](const Status& s) {
      on_fault(where, s);
    });
    return ch;
  }

  Channel* make_scc_channel(CoreId from, CoreId to, std::string where) {
    if (overload_mode_ && cfg_.overload.queue_depth > 0) {
      auto ch = std::make_unique<CreditedSccChannel>(
          *rcce_, from, to, cfg_.overload.queue_depth);
      credited_.push_back(ch.get());
      channels_.push_back(std::move(ch));
    } else {
      channels_.push_back(std::make_unique<SccChannel>(*rcce_, from, to));
    }
    return watch(channels_.back().get(), std::move(where));
  }

  void build_channels_and_stages() {
    const int k = cfg_.pipelines;

    // Viewer sink.
    auto viewer_ch = std::make_unique<ChipToViewerChannel>(
        *chip_, placement_.transfer, viewer_link_,
        [this](const FrameToken& tok, SimTime at) {
          frame_done_ms_.push_back(at.to_ms());
          if (overload_mode_) {
            latency_ms_.push_back(
                (at - arrival_at_[static_cast<std::size_t>(tok.frame)])
                    .to_ms());
          }
          commit_delivered(tok.frame);
          // Frame boundary: the one instant where host-side run state is
          // quiescent enough to snapshot. Pure host I/O — zero simulated
          // cost, no CSV impact.
          if (cfg_.checkpoint.enabled()) on_frame_boundary(at);
        });
    if (fault_) viewer_ch->set_fault(fault_.get(), cfg_.rcce.retry);
    viewer_wire_ = viewer_ch.get();
    channels_.push_back(std::move(viewer_ch));
    viewer_ = watch(channels_.back().get(), "transfer->viewer link");

    // Producer feed into the chip (host scenarios only). With an ARQ
    // window configured the sliding-window transport replaces stop-and-wait
    // and abandoned frames are shed + ledgered instead of failing the run.
    if (cfg_.scenario == Scenario::HostRenderer) {
      if (overload_mode_ && cfg_.overload.window > 0) {
        ReliableLinkConfig rl;
        rl.link = producer_link_;
        rl.window = cfg_.overload.window;
        if (cfg_.overload.queue_depth > 0) {
          rl.queue_depth = cfg_.overload.queue_depth;
        }
        rl.retry = cfg_.rcce.retry;
        auto arq = std::make_unique<ReliableHostToChipChannel>(
            *host_, *chip_, placement_.producer, rl);
        if (fault_) arq->set_fault(fault_.get());
        arq->set_abandon_handler(
            [this](const FrameToken& tok, const Status& s) {
              // The frame was admitted and lost to the transport: ledger
              // it, count the failure toward the breaker, keep pumping.
              ++transport_tally_.shed_transport;
              fault_errors_.push_back("host->connect link: shed frame " +
                                      std::to_string(tok.frame) + ": " +
                                      s.to_string());
              breaker_->on_failure(sim_.now());
            });
        host_arq_ = arq.get();
        channels_.push_back(std::move(arq));
        host_in_ = watch(channels_.back().get(), "host->connect link");
      } else {
        auto host_ch = std::make_unique<HostToChipChannel>(
            *host_, *chip_, placement_.producer, producer_link_);
        if (fault_) host_ch->set_fault(fault_.get(), cfg_.rcce.retry);
        host_wire_ = host_ch.get();
        channels_.push_back(std::move(host_ch));
        host_in_ = watch(channels_.back().get(), "host->connect link");
      }
    }

    // Per-pipeline stages and channels.
    for (int p = 0; p < k; ++p) {
      const auto& cores = placement_.pipeline_cores[static_cast<std::size_t>(p)];
      const bool own_renderer =
          cfg_.scenario == Scenario::RendererPerPipeline;
      const std::size_t first_filter = own_renderer ? 1 : 0;
      SCCPIPE_CHECK(cores.size() == first_filter + kFilterCount);

      const std::string pl = "[p" + std::to_string(p) + "]";

      // Head channel: producer/renderer -> sepia.
      Channel* head;
      if (own_renderer) {
        head = make_scc_channel(cores[0], cores[1], "render->sepia" + pl);
        head_channels_.push_back(head);
      } else {
        head = make_scc_channel(placement_.producer, cores[0],
                                "producer->sepia" + pl);
        head_channels_.push_back(head);
      }

      Channel* in = head;
      for (int f = 0; f < kFilterCount; ++f) {
        const CoreId core = cores[first_filter + static_cast<std::size_t>(f)];
        Channel* out;
        if (f + 1 < kFilterCount) {
          const CoreId next =
              cores[first_filter + static_cast<std::size_t>(f) + 1];
          out = make_scc_channel(core, next,
                                 std::string(stage_name(kFilterChain[f])) +
                                     "->" + stage_name(kFilterChain[f + 1]) +
                                     pl);
        } else {
          out = make_scc_channel(core, placement_.transfer,
                                 "swap->transfer" + pl);
          tail_channels_.push_back(out);
        }
        auto st = std::make_unique<StageState>();
        st->kind = kFilterChain[f];
        st->pipeline = p;
        st->core = core;
        st->in = in;
        st->out = out;
        stages_.push_back(std::move(st));
        in = out;
      }
    }
  }

  void allocate_cores() {
    for (const CoreId c : placement_.all_cores()) chip_->allocate_core(c);
  }

  void release_cores() {
    for (const CoreId c : placement_.all_cores()) chip_->release_core(c);
    for (const CoreId c : remapped_cores_) chip_->release_core(c);
  }

  // --------------------------------------------------------------- actors
  int frames_total() const { return scene_.frame_count(); }
  int side() const { return scene_.image_side(); }
  double strip_bytes(StripRange r) const {
    return static_cast<double>(r.rows) * side() * 4.0;
  }

  /// Render cost with the platform's raster scaling applied (see
  /// ChipConfig::render_cycles_scale).
  StageWork scaled_render_work(const RenderLoad& load,
                               bool adjust_frustum) const {
    StageWork w = render_work(cfg_.cal, load, adjust_frustum);
    w.cycles *= chip_->config().render_cycles_scale;
    return w;
  }

  void start_producer() {
    switch (cfg_.scenario) {
      case Scenario::SingleRenderer:
        render_single_frame(0);
        break;
      case Scenario::RendererPerPipeline:
        for (int p = 0; p < cfg_.pipelines; ++p) {
          render_pipeline_frame(p, 0);
        }
        break;
      case Scenario::HostRenderer:
        if (overload_mode_ && cfg_.overload.offered_fps > 0.0) {
          schedule_arrival(0);
        } else {
          host_render_frame(0);
        }
        connect_loop();
        break;
      case Scenario::SingleCore:
        break;  // unreachable (checked in ctor)
    }
  }

  /// Scenario 1: one core renders the whole frame, splits it, feeds every
  /// pipeline, then starts the next frame.
  void render_single_frame(int frame) {
    if (failed_ || frame >= frames_total()) return;
    producer_span_start_ = sim_.now();
    const CoreId core = placement_.producer;
    const RenderLoad& load = trace_.load(frame, 1, 0);
    const StageWork w = scaled_render_work(load, /*adjust_frustum=*/false);
    chip_->memory_walk(core, w.walk_accesses, [this, frame, core, w] {
      chip_->compute(core, w.cycles, [this, frame, core, w] {
        chip_->dram_stream(core, w.dram_bytes,
                           [this, frame] { begin_distribution(frame); });
      });
    });
  }

  /// Distribution entry point. Without a Supervisor this is exactly the
  /// old direct send_strips path; with one, the whole frame is first staged
  /// as a checkpoint in the producer's DRAM partition (so a remapped
  /// pipeline can replay its strips), and routing honours degraded
  /// pipelines.
  void begin_distribution(int frame) {
    if (failed_) return;
    if (!supervisor_) {
      send_strips(frame, 0);
      return;
    }
    std::vector<int> route;
    for (int q = 0; q < cfg_.pipelines; ++q) {
      if (pipeline_alive_[static_cast<std::size_t>(q)]) route.push_back(q);
    }
    if (route.empty()) {
      on_fault("producer",
               Status(StatusCode::Unavailable,
                      "every pipeline has failed; no cores left to route "
                      "frames through"));
      return;
    }
    frame_routes_[frame] = std::move(route);
    if (gray_weighted_) {
      // Rebalanced run: snap this frame's weighted split now, so a
      // rebalance landing mid-distribution can never tear one frame's
      // strips (the split must be consistent across all of its slots).
      const std::vector<int>& rt = frame_routes_[frame];
      std::vector<double> wts;
      wts.reserve(rt.size());
      for (const int q : rt) {
        wts.push_back(pipe_weight_[static_cast<std::size_t>(q)]);
      }
      frame_strips_[frame] = divide_rows_weighted(side(), wts);
    }
    dist_active_ = true;
    dist_frame_ = frame;
    dist_slot_ = 0;
    const double frame_bytes =
        static_cast<double>(side()) * static_cast<double>(side()) * 4.0;
    ++recovery_.checkpoint_writes;
    recovery_.checkpoint_bytes += frame_bytes;
    chip_->dram_stream(placement_.producer, frame_bytes, [this, frame] {
      if (failed_) return;
      send_strips_routed(frame, 0);
    });
    // The transfer stage may have been stalled waiting to learn this
    // frame's route.
    if (transfer_deferred_) transfer_begin_frame();
  }

  /// Sequentially hand strip s of \p frame to pipeline s (scenario 1 and
  /// the connect stage of scenario 3 share this).
  void send_strips(int frame, int s) {
    if (failed_) return;
    if (s >= cfg_.pipelines) {
      // Frame fully distributed; produce the next one.
      if (cfg_.scenario == Scenario::SingleRenderer) {
        record_span(placement_.producer, StageKind::Render, frame, "process",
                    producer_span_start_, sim_.now());
        render_single_frame(frame + 1);
      } else {
        record_span(placement_.producer, StageKind::Connect, frame, "process",
                    producer_span_start_, sim_.now());
        connect_loop();
      }
      return;
    }
    const auto strips = divide_rows(side(), cfg_.pipelines);
    FrameToken tok;
    tok.frame = frame;
    tok.strip = strips[static_cast<std::size_t>(s)];
    tok.bytes = strip_bytes(tok.strip);
    head_channels_[static_cast<std::size_t>(s)]->send(
        std::move(tok), [this, frame, s] { send_strips(frame, s + 1); });
  }

  /// Supervisor-mode distribution: slot \p s indexes the frame's *route*
  /// (the pipelines alive when distribution began), and the frame is split
  /// across exactly those pipelines — a degraded run re-splits subsequent
  /// frames across the survivors instead of leaving a hole.
  void send_strips_routed(int frame, int s) {
    if (failed_) return;
    const std::vector<int>& route = frame_routes_[frame];
    // A pipeline that died after the route was snapped already marked this
    // frame lost; skip its slot and keep the chain moving.
    while (s < static_cast<int>(route.size()) &&
           !pipeline_alive_[static_cast<std::size_t>(
               route[static_cast<std::size_t>(s)])]) {
      ++s;
    }
    if (s >= static_cast<int>(route.size())) {
      dist_active_ = false;
      dist_pending_pipeline_ = -1;
      frame_strips_.erase(frame);
      if (cfg_.scenario == Scenario::SingleRenderer) {
        record_span(placement_.producer, StageKind::Render, frame, "process",
                    producer_span_start_, sim_.now());
        render_single_frame(frame + 1);
      } else {
        record_span(placement_.producer, StageKind::Connect, frame, "process",
                    producer_span_start_, sim_.now());
        connect_loop();
      }
      return;
    }
    const int p = route[static_cast<std::size_t>(s)];
    // A rebalanced frame uses the weighted split snapped when its route
    // was; all other frames take the equal split, byte-identical to the
    // pre-gray path.
    const auto sit = frame_strips_.find(frame);
    const auto strips =
        sit != frame_strips_.end()
            ? sit->second
            : divide_rows(side(), static_cast<int>(route.size()));
    FrameToken tok;
    tok.frame = frame;
    tok.strip = strips[static_cast<std::size_t>(s)];
    tok.bytes = strip_bytes(tok.strip);
    record_outstanding(p, frame, tok);
    dist_slot_ = s;
    if (replay_active_[static_cast<std::size_t>(p)]) {
      // The pipeline is still replaying its checkpoint backlog. Queue
      // behind it (the pump reads the strip we just checkpointed) so the
      // head channel sees frames in order, and keep distributing.
      replay_q_[static_cast<std::size_t>(p)].push_back(frame);
      send_strips_routed(frame, s + 1);
      return;
    }
    dist_pending_pipeline_ = p;
    const int gen = pipeline_gen_[static_cast<std::size_t>(p)];
    head_channels_[static_cast<std::size_t>(p)]->send(
        std::move(tok), [this, frame, s, p, gen] {
          if (failed_) return;
          // A remap while this send was pending already resumed the chain.
          if (gen != pipeline_gen_[static_cast<std::size_t>(p)]) return;
          dist_pending_pipeline_ = -1;
          send_strips_routed(frame, s + 1);
        });
  }

  /// Scenario 2: each pipeline's own renderer draws just its strip with an
  /// adjusted frustum.
  void render_pipeline_frame(int p, int frame) {
    if (failed_ || frame >= frames_total()) return;
    const auto& cores =
        supervisor_ ? cores_now_[static_cast<std::size_t>(p)]
                    : placement_.pipeline_cores[static_cast<std::size_t>(p)];
    const CoreId core = cores[0];
    const int gen =
        supervisor_ ? pipeline_gen_[static_cast<std::size_t>(p)] : 0;
    const RenderLoad& load = trace_.load(frame, cfg_.pipelines, p);
    const StageWork w = scaled_render_work(load, /*adjust_frustum=*/true);
    chip_->memory_walk(core, w.walk_accesses, [this, p, frame, core, w, gen] {
      chip_->compute(core, w.cycles, [this, p, frame, core, w, gen] {
        chip_->dram_stream(core, w.dram_bytes, [this, p, frame, core, gen] {
          if (supervisor_ &&
              (failed_ || gen != pipeline_gen_[static_cast<std::size_t>(p)])) {
            return;  // superseded by a remap; the rebuilt chain re-renders
          }
          const auto strips = divide_rows(side(), cfg_.pipelines);
          FrameToken tok;
          tok.frame = frame;
          tok.strip = strips[static_cast<std::size_t>(p)];
          tok.bytes = strip_bytes(tok.strip);
          if (!supervisor_) {
            head_channels_[static_cast<std::size_t>(p)]->send(
                std::move(tok),
                [this, p, frame] { render_pipeline_frame(p, frame + 1); });
            return;
          }
          // Checkpoint the rendered strip in the renderer's DRAM partition
          // before it enters the pipeline, so a remap can replay it
          // without re-rendering.
          record_outstanding(p, frame, tok);
          head_sent_[static_cast<std::size_t>(p)] = frame;
          ++recovery_.checkpoint_writes;
          recovery_.checkpoint_bytes += tok.bytes;
          chip_->dram_stream(
              core, tok.bytes, [this, p, frame, gen, tok = std::move(tok)]() mutable {
                if (failed_ ||
                    gen != pipeline_gen_[static_cast<std::size_t>(p)]) {
                  return;
                }
                head_channels_[static_cast<std::size_t>(p)]->send(
                    std::move(tok), [this, p, frame, gen] {
                      if (failed_ ||
                          gen !=
                              pipeline_gen_[static_cast<std::size_t>(p)]) {
                        return;
                      }
                      render_pipeline_frame(p, frame + 1);
                    });
              });
        });
      });
    });
  }

  /// Scenario 3 producer: the host renders whole frames and pushes them
  /// down the UDP path as fast as its credits allow.
  void host_render_frame(int frame) {
    if (failed_ || frame >= frames_total()) return;
    if (overload_mode_) {
      // Closed-loop overload run (ARQ/credits without an offered rate):
      // every frame is offered and admitted; only the transport can shed.
      ++transport_tally_.frames_offered;
      ++transport_tally_.frames_admitted;
      arrival_at_[static_cast<std::size_t>(frame)] = sim_.now();
    }
    const RenderLoad& load = trace_.load(frame, 1, 0);
    host_->compute(host_render_cycles(cfg_.cal, load), [this, frame] {
      FrameToken tok;
      tok.frame = frame;
      tok.strip = StripRange{0, side()};
      tok.bytes = static_cast<double>(side()) * side() * 4.0;
      host_in_->send(std::move(tok),
                     [this, frame] { host_render_frame(frame + 1); });
    });
  }

  // ---------------------------------------- overload-mode open-loop feeder
  //
  // Instead of the paper's closed loop (render the next frame only once the
  // link took the previous one), frames *arrive* on a fixed simulated-time
  // schedule at the offered rate, and the overload policy decides each
  // frame's fate: rejected while the breaker is open, evicted from the
  // bounded admission queue (stalest first), shed at dequeue once its
  // deadline has already passed, or rendered and pushed into the link.

  int feeder_depth() const {
    return cfg_.overload.queue_depth > 0 ? cfg_.overload.queue_depth : 8;
  }

  void schedule_arrival(int frame) {
    if (frame >= frames_total()) return;
    const SimTime at = SimTime::sec(frame / cfg_.overload.offered_fps);
    sim_.schedule_at(at, [this, frame] {
      frame_arrival(frame);
      schedule_arrival(frame + 1);
    });
  }

  void frame_arrival(int frame) {
    if (failed_) return;
    ++transport_tally_.frames_offered;
    arrival_at_[static_cast<std::size_t>(frame)] = sim_.now();
    if (!breaker_->allow(sim_.now())) {
      ++transport_tally_.shed_breaker;
      return;
    }
    if (static_cast<int>(feeder_q_.size()) >= feeder_depth()) {
      // Stalest-first: under a latency deadline the oldest queued frame is
      // the least likely to still be useful; evict it, admit the newcomer.
      ++transport_tally_.shed_admission;
      feeder_q_.pop_front();
    }
    feeder_q_.push_back(frame);
    max_feeder_q_ = std::max(max_feeder_q_,
                             static_cast<int>(feeder_q_.size()));
    if (!feeder_busy_) feeder_pump();
  }

  void feeder_pump() {
    if (failed_) {
      feeder_busy_ = false;
      return;
    }
    // Deadline-aware shedding at dequeue: don't spend host render cycles on
    // a frame that can no longer meet its deadline.
    const SimTime deadline = cfg_.overload.frame_deadline;
    while (!feeder_q_.empty() && !deadline.is_zero() &&
           sim_.now() -
                   arrival_at_[static_cast<std::size_t>(feeder_q_.front())] >
               deadline) {
      ++transport_tally_.frames_admitted;
      ++transport_tally_.shed_deadline;
      feeder_q_.pop_front();
    }
    if (feeder_q_.empty()) {
      feeder_busy_ = false;
      return;
    }
    feeder_busy_ = true;
    const int frame = feeder_q_.front();
    feeder_q_.pop_front();
    ++transport_tally_.frames_admitted;
    const RenderLoad& load = trace_.load(frame, 1, 0);
    host_->compute(host_render_cycles(cfg_.cal, load), [this, frame] {
      FrameToken tok;
      tok.frame = frame;
      tok.strip = StripRange{0, side()};
      tok.bytes = static_cast<double>(side()) * side() * 4.0;
      // The link's accept callback (window slot + credit held) paces the
      // feeder; the admission queue above absorbs the offered-rate burst.
      host_in_->send(std::move(tok), [this] { feeder_pump(); });
    });
  }

  /// Scenario 3 connect stage: receive a whole frame from the host, split
  /// it into strips (one read+write pass through its partition), feed the
  /// pipelines, repeat.
  void connect_loop() {
    if (failed_ || connect_frames_ >= frames_total()) return;
    const CoreId core = placement_.producer;
    connect_wait_posted_ = sim_.now();
    host_in_->recv([this, core](FrameToken tok, SimTime matched) {
      connect_wait_.add((matched - connect_wait_posted_).to_ms());
      producer_span_start_ = matched;
      ++connect_frames_;
      const int frame = tok.frame;
      if (overload_mode_) {
        // The ARQ delivers in order; shed frames leave holes in the frame
        // numbering but never reorder it.
        SCCPIPE_CHECK_MSG(frame >= connect_expected_,
                          "out-of-order delivery leaked past the reliable "
                          "link: frame " << frame << " after "
                                         << connect_expected_ - 1);
        connect_expected_ = frame + 1;
        breaker_->on_success(sim_.now());
      } else {
        SCCPIPE_CHECK(frame == connect_frames_ - 1);
      }
      chip_->dram_stream(core, 2.0 * tok.bytes,
                         [this, frame] { begin_distribution(frame); });
    });
  }

  void start_filter_stages() {
    for (auto& st : stages_) arm_filter_stage(*st);
  }

  void record_span(CoreId core, StageKind kind, int frame,
                   const char* category, SimTime start, SimTime end) {
    if (!cfg_.timeline) return;
    std::string name = stage_name(kind);
    name += " f";
    name += std::to_string(frame);
    cfg_.timeline->add_span(core, name, category, start, end);
  }

  void arm_filter_stage(StageState& st) {
    if (failed_) return;
    // Generation guard: a remap rebuilds the pipeline's channels and bumps
    // the generation; callbacks captured under the old one fall silent
    // instead of feeding stale tokens into the new chain. Without a
    // Supervisor the generation never changes and these guards are inert,
    // keeping PR-1 behaviour bit-identical.
    const int gen = st.gen;
    st.recv_posted = sim_.now();
    st.in->recv([this, &st, gen](FrameToken tok, SimTime matched) {
      if (supervisor_ && (failed_ || st.gen != gen)) return;
      st.wait_ms.add((matched - st.recv_posted).to_ms());
      record_span(st.core, st.kind, tok.frame, "wait", st.recv_posted,
                  matched);
      const double pixels =
          static_cast<double>(tok.strip.rows) * static_cast<double>(side());
      const int scratches =
          scratch_params_for_frame(cfg_.seed, tok.frame, side(),
                                   cfg_.cal.max_scratches)
              .count;
      const StageWork w = filter_work(cfg_.cal, st.kind, pixels, scratches);
      chip_->compute(st.core, w.cycles, [this, &st, gen, w, matched,
                                         tok = std::move(tok)]() mutable {
        chip_->dram_stream(st.core, w.dram_bytes, [this, &st, gen, matched,
                                                   tok = std::move(tok)]() mutable {
          if (supervisor_ && (failed_ || st.gen != gen)) return;
          // Gray-detector service sample: rendezvous match to end of the
          // stage's own compute + DRAM work. Deliberately *before* the
          // downstream send, so a straggler's backpressure never inflates
          // its upstream neighbours' samples and mis-attributes the flag.
          // This callback has hopped back to the bridge site (chip
          // chains return there), so the sample includes both transits.
          if (supervisor_ && supervisor_->gray_enabled()) {
            note_service(st.core, (sim_.now() - matched).to_ms());
          }
          const int frame = tok.frame;
          st.out->send(std::move(tok), [this, &st, gen, frame, matched] {
            if (supervisor_ && (failed_ || st.gen != gen)) return;
            record_span(st.core, st.kind, frame, "process", matched,
                        sim_.now());
            if (++st.frames_done < frames_total()) arm_filter_stage(st);
          });
        });
      });
    });
  }

  /// Transfer stage: gather one strip from every pipeline (in pipeline
  /// order, as RCCE receives are posted one at a time), assemble, send to
  /// the viewer.
  void start_transfer() {
    if (supervisor_) {
      transfer_frame_ = 0;
      transfer_begin_frame();
      return;
    }
    transfer_collect(0);
  }

  void transfer_collect(int s) {
    if (failed_) return;
    if (s == 0) {
      transfer_wait_posted_ = sim_.now();
      transfer_assembly_.resize(assembled_end_);
    }
    if (s >= cfg_.pipelines) {
      transfer_assemble();
      return;
    }
    tail_channels_[static_cast<std::size_t>(s)]->recv(
        [this, s](FrameToken tok, SimTime matched) {
          if (s == 0) {
            transfer_wait_.add((matched - transfer_wait_posted_).to_ms());
          }
          transfer_assembly_.push_back({tok.frame, tok.strip});
          transfer_collect(s + 1);
        });
  }

  /// Checks that the strips collected since the last assembly all belong
  /// to \p frame and hands them to the viewer link.
  void close_assembly(int frame) {
    for (std::size_t i = assembled_end_; i < transfer_assembly_.size(); ++i) {
      SCCPIPE_CHECK_MSG(transfer_assembly_[i].frame == frame,
                        "transfer stage mixed frames");
    }
    assembled_end_ = transfer_assembly_.size();
  }

  /// The viewer received \p frame: the oldest assembled frame on its link.
  void commit_delivered(int frame) {
    SCCPIPE_CHECK_MSG(delivered_end_ < assembled_end_ &&
                          transfer_assembly_[delivered_end_].frame == frame,
                      "viewer received frame " << frame
                                               << " out of assembly order");
    while (delivered_end_ < assembled_end_ &&
           transfer_assembly_[delivered_end_].frame == frame) {
      ++delivered_end_;
    }
  }

  void transfer_assemble() {
    const CoreId core = placement_.transfer;
    const int frame = transfer_assembly_[assembled_end_].frame;
    close_assembly(frame);
    const double frame_bytes = static_cast<double>(side()) * side() * 4.0;
    const StageWork w = assemble_work(cfg_.cal, frame_bytes);
    chip_->compute(core, w.cycles, [this, core, w, frame, frame_bytes] {
      chip_->dram_stream(core, w.dram_bytes, [this, frame, frame_bytes] {
        FrameToken tok;
        tok.frame = frame;
        tok.strip = StripRange{0, side()};
        tok.bytes = frame_bytes;
        const SimTime span_start = sim_.now();
        viewer_->send(std::move(tok), [this, frame, span_start] {
          record_span(placement_.transfer, StageKind::Transfer, frame,
                      "process", span_start, sim_.now());
          if (frame + 1 < frames_total()) transfer_collect(0);
        });
      });
    });
  }

  // -------------------------------------- supervisor-mode transfer stage
  //
  // The legacy collector above assumes every pipeline delivers every frame;
  // under core failures a frame's strip set is the *route* recorded when
  // the frame was distributed, frames can be lost outright (degrade with
  // no spares), and a remapped pipeline redelivers through a rebuilt
  // channel. The ticket makes superseded recv callbacks inert.

  /// Frame route for the transfer stage: constant (all pipelines) in the
  /// per-pipeline-renderer scenario, per-frame snapshot otherwise.
  bool transfer_route_for(int frame, std::vector<int>* route) {
    if (cfg_.scenario == Scenario::RendererPerPipeline) {
      route->clear();
      for (int q = 0; q < cfg_.pipelines; ++q) route->push_back(q);
      return true;
    }
    const auto it = frame_routes_.find(frame);
    if (it == frame_routes_.end()) return false;
    *route = it->second;
    return true;
  }

  void transfer_begin_frame() {
    if (failed_) return;
    for (;;) {
      if (transfer_frame_ >= frames_total()) {
        supervisor_->stop();  // run is over; let the event queue drain
        return;
      }
      if (lost_frames_.count(transfer_frame_) != 0) {
        ++transfer_frame_;
        continue;
      }
      if (!transfer_route_for(transfer_frame_, &transfer_route_)) {
        // Route unknown: the frame has not been distributed yet. The
        // producer kicks us when it starts the frame.
        transfer_deferred_ = true;
        return;
      }
      break;
    }
    transfer_deferred_ = false;
    transfer_slot_ = 0;
    transfer_wait_posted_ = sim_.now();
    transfer_assembly_.resize(assembled_end_);
    transfer_recv_slot();
  }

  void transfer_recv_slot() {
    if (failed_) return;
    if (transfer_slot_ >= static_cast<int>(transfer_route_.size())) {
      transfer_waiting_ = false;
      transfer_assemble_supervised();
      return;
    }
    const int p = transfer_route_[static_cast<std::size_t>(transfer_slot_)];
    const int ticket = ++transfer_ticket_seq_;
    transfer_ticket_ = ticket;
    transfer_waiting_ = true;
    tail_channels_[static_cast<std::size_t>(p)]->recv(
        [this, p, ticket, slot = transfer_slot_](FrameToken tok,
                                                 SimTime matched) {
          if (failed_) return;
          if (ticket != transfer_ticket_) return;  // superseded recv
          if (tok.frame != transfer_frame_) {
            // A strip of an earlier, since-lost frame draining out of the
            // pipeline (pairwise FIFO puts it ahead of the frame we want):
            // discard it and keep listening on the same slot.
            transfer_recv_slot();
            return;
          }
          transfer_waiting_ = false;
          ack_pipeline(p, tok.frame);
          if (slot == 0) {
            transfer_wait_.add((matched - transfer_wait_posted_).to_ms());
          }
          transfer_assembly_.push_back({tok.frame, tok.strip});
          ++transfer_slot_;
          transfer_recv_slot();
        });
  }

  void transfer_assemble_supervised() {
    const CoreId core = placement_.transfer;
    const int frame = transfer_frame_;
    close_assembly(frame);
    const double frame_bytes =
        static_cast<double>(side()) * static_cast<double>(side()) * 4.0;
    const StageWork w = assemble_work(cfg_.cal, frame_bytes);
    chip_->compute(core, w.cycles, [this, core, w, frame, frame_bytes] {
      chip_->dram_stream(core, w.dram_bytes, [this, frame, frame_bytes] {
        FrameToken tok;
        tok.frame = frame;
        tok.strip = StripRange{0, side()};
        tok.bytes = frame_bytes;
        const SimTime span_start = sim_.now();
        viewer_->send(std::move(tok), [this, frame, span_start] {
          record_span(placement_.transfer, StageKind::Transfer, frame,
                      "process", span_start, sim_.now());
          ++transfer_frame_;
          transfer_begin_frame();
        });
      });
    });
  }

  // ------------------------------------------------- failure handling

  /// Checkpoint bookkeeping: what each pipeline has been handed but not
  /// yet delivered to the transfer stage.
  struct SentStrip {
    StripRange strip{};
    double bytes = 0.0;
  };

  void record_outstanding(int p, int frame, const FrameToken& tok) {
    outstanding_[static_cast<std::size_t>(p)][frame] =
        SentStrip{tok.strip, tok.bytes};
  }

  void ack_pipeline(int p, int frame) {
    auto& acked = acked_[static_cast<std::size_t>(p)];
    acked = std::max(acked, frame);
    auto& out = outstanding_[static_cast<std::size_t>(p)];
    out.erase(out.begin(), out.upper_bound(frame));
  }

  StageKind stage_kind_of(std::size_t idx) const {
    const bool own_renderer = cfg_.scenario == Scenario::RendererPerPipeline;
    if (own_renderer && idx == 0) return StageKind::Render;
    return kFilterChain[idx - (own_renderer ? 1 : 0)];
  }

  /// Watchdog verdict arrived: decide remap / degrade / graceful failure.
  void handle_core_failure(CoreId core, SimTime detected_at) {
    FailureRecord rec;
    rec.core = core;
    rec.failed_at_ms = fault_->core_fail_time(core).to_ms();
    rec.detected_at_ms = detected_at.to_ms();
    rec.detection_latency_ms = rec.detected_at_ms - rec.failed_at_ms;
    // Slow-then-dead: the core was already flagged gray when it went
    // silent. That is ONE incident escalating to fail-stop, not two
    // overlapping ones — the detection clock started at the gray flag (the
    // system was already reacting), and closing the gray incident here
    // keeps the ladder from answering a dead core's stale flag.
    if (supervisor_->gray_enabled() && supervisor_->gray_flagged(core)) {
      rec.gray_escalated = true;
      ++gray_.escalations;
      const auto it = gray_flag_ms_.find(core);
      if (it != gray_flag_ms_.end()) {
        rec.detection_latency_ms = rec.detected_at_ms - it->second;
      }
      GrayActionRecord act;
      act.core = core;
      act.action = "escalate-fail-stop";
      act.flagged_at_ms =
          it != gray_flag_ms_.end() ? it->second : rec.detected_at_ms;
      push_gray_action(std::move(act));
      supervisor_->reset_gray(core);
    }
    ++recovery_.failures_detected;
    recovery_.max_detection_latency_ms =
        std::max(recovery_.max_detection_latency_ms, rec.detection_latency_ms);
    if (first_detect_ms_ < 0.0) first_detect_ms_ = rec.detected_at_ms;

    if (core == placement_.producer) {
      rec.stage = cfg_.scenario == Scenario::HostRenderer ? StageKind::Connect
                                                          : StageKind::Render;
      recovery_.failures.push_back(rec);
      on_fault("producer core " + std::to_string(core),
               Status(StatusCode::Unavailable,
                      "producer core failed; the frame source cannot be "
                      "remapped"));
      return;
    }
    if (core == placement_.transfer) {
      rec.stage = StageKind::Transfer;
      recovery_.failures.push_back(rec);
      on_fault("transfer core " + std::to_string(core),
               Status(StatusCode::Unavailable,
                      "transfer (collector/watchdog) core failed; the "
                      "assembly point cannot be remapped"));
      return;
    }
    // Locate the core in the *current* pipeline map (it may be a promoted
    // spare from an earlier failure).
    int p = -1;
    std::size_t idx = 0;
    for (int q = 0; q < cfg_.pipelines && p < 0; ++q) {
      const auto& cores = cores_now_[static_cast<std::size_t>(q)];
      for (std::size_t i = 0; i < cores.size(); ++i) {
        if (cores[i] == core) {
          p = q;
          idx = i;
          break;
        }
      }
    }
    if (p < 0) {
      // An allocated-but-roleless core (should not happen — only placement
      // cores are watched). Record the detection and move on.
      rec.recovered = true;
      recovery_.failures.push_back(rec);
      return;
    }
    rec.pipeline = p;
    rec.stage = stage_kind_of(idx);
    if (!pipeline_alive_[static_cast<std::size_t>(p)] ||
        transfer_frame_ >= frames_total()) {
      // Already-degraded pipeline, or the walkthrough already finished
      // collecting: nothing left to heal.
      rec.recovered = true;
      ++recovery_.failures_recovered;
      recovery_.failures.push_back(rec);
      return;
    }
    if (!spares_.empty()) {
      remap_pipeline(p, idx, rec);
    } else if (cfg_.scenario == Scenario::RendererPerPipeline) {
      // Degrading would need the surviving renderers to re-render with new
      // frusta mid-stream; out of scope — fail the run gracefully.
      recovery_.failures.push_back(rec);
      on_fault("pipeline " + std::to_string(p) + " core " +
                   std::to_string(core),
               Status(StatusCode::Unavailable,
                      "render core failed with no spare cores left"));
      return;
    } else {
      degrade_pipeline(p, rec);
    }
    recovery_.failures.push_back(rec);
  }

  /// Drop the dead pipeline's pending rendezvous so nothing blocks on it.
  void abandon_pipeline_pairs(int p) {
    const auto& cores = cores_now_[static_cast<std::size_t>(p)];
    const bool own_renderer = cfg_.scenario == Scenario::RendererPerPipeline;
    CoreId prev = own_renderer ? cores[0] : placement_.producer;
    for (std::size_t i = own_renderer ? 1 : 0; i < cores.size(); ++i) {
      rcce_->abandon_pair(prev, cores[i]);
      prev = cores[i];
    }
    rcce_->abandon_pair(prev, placement_.transfer);
  }

  /// Silence transport errors on a pipeline's superseded channels. Once a
  /// pipeline is rebuilt (or written off), retransmit chains already in
  /// flight toward the dead core may still exhaust their retries; the
  /// replacement chain (or the lost-frame ledger) already accounts for that
  /// data, so the stale error must not abort the run.
  void swallow_pipeline_errors(int p) {
    const std::size_t sp = static_cast<std::size_t>(p);
    head_channels_[sp]->set_error_handler([](const Status&) {});
    for (int f = 0; f < kFilterCount; ++f) {
      stages_[static_cast<std::size_t>(p * kFilterCount + f)]
          ->out->set_error_handler([](const Status&) {});
    }
  }

  void remap_pipeline(int p, std::size_t idx, FailureRecord& rec) {
    const std::size_t sp = static_cast<std::size_t>(p);
    const CoreId spare = spares_.front();
    spares_.erase(spares_.begin());
    ++recovery_.spares_used;
    rec.remapped_to = spare;
    rec.recovered = true;
    ++recovery_.failures_recovered;

    chip_->allocate_core(spare);
    remapped_cores_.push_back(spare);
    supervisor_->watch(spare);
    abandon_pipeline_pairs(p);
    swallow_pipeline_errors(p);
    cores_now_[sp][idx] = spare;
    apply_dvfs_to_replacement(p, idx, spare);
    ++pipeline_gen_[sp];
    rebuild_pipeline(p);
    // If the transfer stage was waiting on this pipeline, its recv died
    // with the old channel; re-post on the rebuilt one (fresh ticket).
    if (transfer_waiting_ &&
        transfer_route_[static_cast<std::size_t>(transfer_slot_)] == p) {
      transfer_recv_slot();
    }
    // If the producer's distribution chain was stuck sending into the dead
    // core, resume it; the stuck strip is outstanding and will be replayed.
    if (dist_pending_pipeline_ == p) {
      dist_pending_pipeline_ = -1;
      send_strips_routed(dist_frame_, dist_slot_ + 1);
    }
    queue_replay(p);
  }

  void degrade_pipeline(int p, FailureRecord& rec) {
    const std::size_t sp = static_cast<std::size_t>(p);
    rec.degraded = true;
    rec.recovered = true;
    ++recovery_.failures_recovered;
    ++recovery_.pipelines_lost;
    pipeline_alive_[sp] = 0;
    ++pipeline_gen_[sp];
    abandon_pipeline_pairs(p);
    swallow_pipeline_errors(p);
    // Every frame with a strip stuck in this pipeline can never be
    // assembled; so too the frame currently being distributed if its route
    // includes us.
    for (const auto& [f, m] : outstanding_[sp]) lost_frames_.insert(f);
    outstanding_[sp].clear();
    replay_q_[sp].clear();
    replay_active_[sp] = 0;
    gray_drain_[sp] = 0;
    if (dist_active_) {
      const auto it = frame_routes_.find(dist_frame_);
      if (it != frame_routes_.end() &&
          std::find(it->second.begin(), it->second.end(), p) !=
              it->second.end()) {
        lost_frames_.insert(dist_frame_);
      }
    }
    if (dist_pending_pipeline_ == p) {
      dist_pending_pipeline_ = -1;
      send_strips_routed(dist_frame_, dist_slot_ + 1);
    }
    // The transfer stage may be waiting on a frame that just became lost
    // (if it waits on *this* pipeline, the frame necessarily is).
    if (transfer_waiting_ && lost_frames_.count(transfer_frame_) != 0) {
      transfer_waiting_ = false;
      ++transfer_ticket_seq_;  // invalidate the posted recv
      transfer_ticket_ = 0;
      transfer_begin_frame();
    } else if (transfer_deferred_ &&
               lost_frames_.count(transfer_frame_) != 0) {
      transfer_begin_frame();
    }
  }

  /// Reproduce the DVFS treatment the dead core had on its replacement.
  void apply_dvfs_to_replacement(int p, std::size_t idx, CoreId spare) {
    const auto& cores = cores_now_[static_cast<std::size_t>(p)];
    const std::size_t blur_idx = cores.size() - 4;
    if (cfg_.blur_mhz > 0 && idx == blur_idx) {
      chip_->set_core_frequency(spare, cfg_.blur_mhz);
    } else if (cfg_.tail_mhz > 0 && idx > blur_idx) {
      chip_->set_core_frequency(spare, cfg_.tail_mhz);
    }
  }

  /// Re-create pipeline \p p's channels over its current core list and
  /// re-arm its stages. Stage objects are reused (their wait statistics
  /// span the failure), frame counters rewind to the last acked frame.
  void rebuild_pipeline(int p) {
    const std::size_t sp = static_cast<std::size_t>(p);
    const auto& cores = cores_now_[sp];
    const bool own_renderer = cfg_.scenario == Scenario::RendererPerPipeline;
    const std::size_t first_filter = own_renderer ? 1 : 0;
    const std::string pl =
        "[p" + std::to_string(p) + "g" +
        std::to_string(pipeline_gen_[sp]) + "]";

    Channel* head;
    if (own_renderer) {
      head = make_scc_channel(cores[0], cores[1], "render->sepia" + pl);
    } else {
      head = make_scc_channel(placement_.producer, cores[0],
                              "producer->sepia" + pl);
    }
    head_channels_[sp] = head;

    Channel* in = head;
    for (int f = 0; f < kFilterCount; ++f) {
      const CoreId core = cores[first_filter + static_cast<std::size_t>(f)];
      Channel* out;
      if (f + 1 < kFilterCount) {
        const CoreId next =
            cores[first_filter + static_cast<std::size_t>(f) + 1];
        out = make_scc_channel(core, next,
                               std::string(stage_name(kFilterChain[f])) +
                                   "->" + stage_name(kFilterChain[f + 1]) +
                                   pl);
      } else {
        out = make_scc_channel(core, placement_.transfer,
                               "swap->transfer" + pl);
        tail_channels_[sp] = out;
      }
      StageState& st = *stages_[static_cast<std::size_t>(p * kFilterCount + f)];
      st.core = core;
      st.in = in;
      st.out = out;
      st.gen = pipeline_gen_[sp];
      st.frames_done = acked_[sp] + 1;
      in = out;
    }
    for (int f = 0; f < kFilterCount; ++f) {
      arm_filter_stage(*stages_[static_cast<std::size_t>(p * kFilterCount + f)]);
    }
  }

  // ------------------------------------------------- checkpointed replay

  CoreId checkpoint_reader(int p) const {
    return cfg_.scenario == Scenario::RendererPerPipeline
               ? cores_now_[static_cast<std::size_t>(p)][0]
               : placement_.producer;
  }

  void queue_replay(int p) {
    const std::size_t sp = static_cast<std::size_t>(p);
    auto& q = replay_q_[sp];
    q.clear();
    for (const auto& [f, m] : outstanding_[sp]) q.push_back(f);
    replay_active_[sp] = 1;
    pump_replay(p, pipeline_gen_[sp]);
  }

  /// Re-send the pipeline's undelivered strips, oldest first, each paid
  /// for with a checkpoint read from the owning DRAM partition. New frames
  /// arriving meanwhile are appended to the queue (see send_strips_routed)
  /// so the head channel stays FIFO.
  void pump_replay(int p, int gen) {
    const std::size_t sp = static_cast<std::size_t>(p);
    if (failed_ || gen != pipeline_gen_[sp]) return;
    auto& q = replay_q_[sp];
    while (!q.empty() && outstanding_[sp].count(q.front()) == 0) {
      q.pop_front();
    }
    if (q.empty()) {
      replay_active_[sp] = 0;
      gray_drain_[sp] = 0;
      if (cfg_.scenario == Scenario::RendererPerPipeline) {
        // Backlog drained; the (possibly new) renderer resumes the frames
        // it never handed over.
        render_pipeline_frame(p, head_sent_[sp] + 1);
      }
      return;
    }
    const int frame = q.front();
    q.pop_front();
    const SentStrip& m = outstanding_[sp][frame];
    if (gray_drain_[sp]) {
      // Drain-migration: the old core is alive and nothing was lost — the
      // re-send drains staged work, it does not recover from a death, so
      // it must not inflate the recovery report's replay counters.
      ++gray_.frames_drained;
    } else {
      ++recovery_.checkpoint_replays;
      ++recovery_.frames_replayed;
      recovery_.checkpoint_bytes += m.bytes;
    }
    chip_->dram_stream(checkpoint_reader(p), m.bytes, [this, p, sp, gen,
                                                       frame] {
      if (failed_ || gen != pipeline_gen_[sp]) return;
      const auto it = outstanding_[sp].find(frame);
      if (it == outstanding_[sp].end()) {
        pump_replay(p, gen);
        return;
      }
      FrameToken tok;
      tok.frame = frame;
      tok.strip = it->second.strip;
      tok.bytes = it->second.bytes;
      head_channels_[sp]->send(std::move(tok), [this, p, gen] {
        if (failed_ || gen != pipeline_gen_[static_cast<std::size_t>(p)]) {
          return;
        }
        pump_replay(p, gen);
      });
    });
  }

  // ------------------------------------------- gray-failure mitigation
  //
  // The Supervisor's detector flags a straggler (service-time outlier for
  // K consecutive windows, see core/recovery.hpp); the driver answers by
  // climbing a policy ladder one rung per flag: boost the straggler's
  // frequency island, then drain-migrate its stage to a spare core, then
  // shrink its pipeline's strip share. Every action records the trigger
  // evidence and the before/after stage service time (RunResult::gray).

  /// Append an action and its (aligned) post-action sample histogram.
  std::size_t push_gray_action(GrayActionRecord act) {
    gray_.actions.push_back(std::move(act));
    gray_after_hist_.emplace_back(0.1);
    return gray_.actions.size() - 1;
  }

  /// Feed one service sample to the detector and to every pending action's
  /// "after" histogram for this core.
  void note_service(CoreId core, double service_ms) {
    supervisor_->record_service(core, service_ms);
    if (gray_after_.empty()) return;
    const auto it = gray_after_.find(core);
    if (it == gray_after_.end()) return;
    for (const std::size_t i : it->second) {
      gray_after_hist_[i].add(service_ms);
    }
  }

  /// One DVFS step up for the straggler's tile (the SCC raises frequency —
  /// and with it the island's voltage — per tile, so this is the cheapest
  /// rung). False when the tile already sits at the table's top point.
  bool dvfs_boost(CoreId core) {
    const double cur_hz = chip_->frequency_hz(core);
    int next_mhz = 0;
    for (const OperatingPoint& pt : chip_->dvfs().points()) {
      if (static_cast<double>(pt.mhz) * 1e6 > cur_hz &&
          (next_mhz == 0 || pt.mhz < next_mhz)) {
        next_mhz = pt.mhz;
      }
    }
    if (next_mhz == 0) return false;
    chip_->set_core_frequency(core, next_mhz);
    return true;
  }

  /// Drain-migrate the straggling stage onto a spare core. The straggler
  /// is alive, so nothing was lost and nothing needs *recovery*: the
  /// pipeline is rebuilt one generation up (exactly the fail-stop remap
  /// path), and the strips still in flight are re-sent from the producer's
  /// staged copies — counted as gray drains, not checkpoint replays.
  CoreId gray_migrate(int p, std::size_t idx, CoreId from) {
    const std::size_t sp = static_cast<std::size_t>(p);
    const CoreId spare = spares_.front();
    spares_.erase(spares_.begin());
    ++recovery_.spares_used;
    chip_->allocate_core(spare);
    remapped_cores_.push_back(spare);
    supervisor_->watch(spare);
    // The straggler is retired, not dead: stop monitoring it and close its
    // detector incident here — a later planned death of the idle core must
    // not surface as a second overlapping recovery.
    supervisor_->reset_gray(from);
    supervisor_->unwatch(from);
    abandon_pipeline_pairs(p);
    swallow_pipeline_errors(p);
    cores_now_[sp][idx] = spare;
    apply_dvfs_to_replacement(p, idx, spare);
    ++pipeline_gen_[sp];
    rebuild_pipeline(p);
    if (transfer_waiting_ &&
        transfer_route_[static_cast<std::size_t>(transfer_slot_)] == p) {
      transfer_recv_slot();
    }
    if (dist_pending_pipeline_ == p) {
      dist_pending_pipeline_ = -1;
      send_strips_routed(dist_frame_, dist_slot_ + 1);
    }
    gray_drain_[sp] = 1;
    queue_replay(p);
    return spare;
  }

  /// Shrink the straggling pipeline's strip share in proportion to its
  /// measured relative slowdown: later frames are split by weight, so the
  /// slow stage does less work per frame instead of pacing the whole chip.
  void gray_rebalance(int p, const GrayEvidence& ev) {
    const double rel = ev.median_norm > 0.0 ? ev.norm / ev.median_norm : 1.0;
    const double w = std::clamp(rel > 0.0 ? 1.0 / rel : 1.0, 0.2, 1.0);
    pipe_weight_[static_cast<std::size_t>(p)] =
        std::min(pipe_weight_[static_cast<std::size_t>(p)], w);
    gray_weighted_ = true;
  }

  /// Detector verdict arrived: climb the policy ladder one rung. A flag
  /// the mitigation does not cure re-fires detect_windows windows later
  /// (the detector re-arms its streak), which is what walks a stubborn
  /// straggler from DVFS to migration to rebalancing.
  void handle_gray_flag(CoreId core, SimTime at, const GrayEvidence& ev) {
    ++gray_.flags_raised;
    if (first_gray_flag_ms_ < 0.0) first_gray_flag_ms_ = at.to_ms();
    if (gray_flag_ms_.find(core) == gray_flag_ms_.end()) {
      gray_flag_ms_[core] = at.to_ms();
    }
    GrayActionRecord rec;
    rec.core = core;
    rec.flagged_at_ms = at.to_ms();
    rec.evidence = ev;
    rec.before_stage_ms = ev.window_p50_ms;
    // Locate the straggler in the live pipeline map (it may already be a
    // promoted spare from an earlier remap).
    int p = -1;
    std::size_t idx = 0;
    for (int q = 0; q < cfg_.pipelines && p < 0; ++q) {
      const auto& cores = cores_now_[static_cast<std::size_t>(q)];
      for (std::size_t i = 0; i < cores.size(); ++i) {
        if (cores[i] == core) {
          p = q;
          idx = i;
          break;
        }
      }
    }
    rec.pipeline = p;
    if (p >= 0) rec.stage = stage_kind_of(idx);
    rec.action = "observe";
    int& rung = gray_rung_[core];
    const bool actionable = p >= 0 && !failed_ &&
                            pipeline_alive_[static_cast<std::size_t>(p)] &&
                            transfer_frame_ < frames_total();
    const auto policy_at_least = [this](GrayPolicy floor) {
      return static_cast<int>(cfg_.gray.policy) >= static_cast<int>(floor);
    };
    if (actionable && rung < 1 && policy_at_least(GrayPolicy::Dvfs)) {
      rung = 1;
      if (dvfs_boost(core)) {
        rec.action = "dvfs-boost";
        ++gray_.dvfs_boosts;
        gray_after_[core].push_back(push_gray_action(std::move(rec)));
        return;
      }
      // Already at the top operating point; the rung is spent, the next
      // flag escalates.
    } else if (actionable && rung < 2 && policy_at_least(GrayPolicy::Migrate) &&
               !spares_.empty()) {
      rung = 2;
      rec.action = "migrate";
      ++gray_.migrations;
      const CoreId spare = gray_migrate(p, idx, core);
      rec.migrated_to = spare;
      // "After" samples come from the spare — the stage moved there.
      gray_after_[spare].push_back(push_gray_action(std::move(rec)));
      return;
    } else if (actionable && rung < 3 &&
               policy_at_least(GrayPolicy::Rebalance) &&
               cfg_.scenario != Scenario::RendererPerPipeline) {
      // (Per-pipeline renderers draw fixed-frustum strips; re-splitting
      // mid-run would need new frusta, so that scenario stops at rung 2.)
      rung = 3;
      rec.action = "rebalance";
      ++gray_.rebalances;
      gray_rebalance(p, ev);
      gray_after_[core].push_back(push_gray_action(std::move(rec)));
      return;
    }
    push_gray_action(std::move(rec));  // policy off / ladder exhausted
  }

  void collect_gray_report(RunResult& r) {
    r.gray = gray_;
    if (!cfg_.gray.enabled()) return;
    r.gray.enabled = true;
    for (std::size_t i = 0; i < r.gray.actions.size(); ++i) {
      if (i < gray_after_hist_.size() && !gray_after_hist_[i].empty()) {
        r.gray.actions[i].after_stage_ms = gray_after_hist_[i].quantile(0.5);
      }
    }
    r.gray.frames_offered = static_cast<std::uint64_t>(frames_total());
    r.gray.frames_delivered =
        static_cast<std::uint64_t>(frame_done_ms_.size());
    r.gray.frames_shed = static_cast<std::uint64_t>(lost_frames_.size());
    // Audited invariant: mitigation never loses a frame. Whatever the
    // ladder did — boosts, drain-migrations, re-splits — every offered
    // frame is either delivered or explicitly shed by a *degraded*
    // pipeline (spare exhaustion), never silently dropped.
    if (!failed_ && !crashed_) {
      SCCPIPE_CHECK_MSG(
          r.gray.frames_offered ==
              r.gray.frames_delivered + r.gray.frames_shed,
          "gray ledger leak: offered " << r.gray.frames_offered
              << " != delivered " << r.gray.frames_delivered << " + shed "
              << r.gray.frames_shed);
    }
    if (first_gray_flag_ms_ >= 0.0 && !frame_done_ms_.empty()) {
      int after = 0;
      for (const double t : frame_done_ms_) {
        if (t > first_gray_flag_ms_) ++after;
      }
      const double span_s =
          (frame_done_ms_.back() - first_gray_flag_ms_) / 1e3;
      if (after > 0 && span_s > 0.0) {
        r.gray.post_mitigation_fps = after / span_s;
      }
    }
  }

  // ---------------------------------------------------------- checkpoints
  /// First checkpoint-layer failure wins in the report; every one also
  /// fails the run through the ordinary fault path so a broken resume or
  /// write surfaces as a typed, graceful failure, never a wrong CSV.
  void checkpoint_fault(const std::string& where, const Status& st) {
    if (ckpt_.error_code == StatusCode::Ok) {
      ckpt_.error_code = st.code();
      ckpt_.error = st.message();
    }
    on_fault(where, st);
  }

  /// Load + validate the resume snapshot. Returns false (run failed, typed
  /// NotFound/DataLoss/VersionSkew/InvalidArgument) when the file is
  /// missing, corrupt, from another format version, or from a different
  /// run configuration.
  bool load_resume() {
    ckpt_.resumed = true;
    Status st = load_run_snapshot(cfg_.checkpoint.file, &resume_snap_);
    if (st.ok() && resume_snap_.config_fingerprint != config_fp_) {
      st = Status(StatusCode::InvalidArgument,
                  "snapshot '" + cfg_.checkpoint.file +
                      "' was written by a different run configuration "
                      "(config fingerprint mismatch)");
    }
    if (!st.ok()) {
      checkpoint_fault("resume", st);
      return false;
    }
    have_resume_ = true;
    crashes_disarmed_ = std::min<std::size_t>(
        static_cast<std::size_t>(resume_snap_.crashes_consumed) + 1,
        crash_plan_.size());
    return true;
  }

  /// Everything save_state-capable plus the host-side frame/ledger
  /// cursors, serialized in one fixed order. Captured at a viewer-arrival
  /// event.
  std::vector<std::uint8_t> component_blob(std::uint64_t frames, SimTime at) {
    snapshot::Writer w;
    w.u64(frames);
    w.i64(at.to_ns());
    w.u32(fault_ != nullptr ? 1 : 0);
    if (fault_) fault_->save_state(w);
    w.u32(breaker_ != nullptr ? 1 : 0);
    if (breaker_) breaker_->save_state(w);
    w.u32(host_arq_ != nullptr ? 1 : 0);
    if (host_arq_) host_arq_->transport().save_state(w);
    w.u32(supervisor_ != nullptr ? 1 : 0);
    if (supervisor_) supervisor_->save_state(w);
    // Live frame ledger (overload runs tally as they go).
    w.u64(transport_tally_.frames_offered);
    w.u64(transport_tally_.frames_admitted);
    w.u64(transport_tally_.shed_admission);
    w.u64(transport_tally_.shed_deadline);
    w.u64(transport_tally_.shed_transport);
    w.u64(transport_tally_.shed_breaker);
    // Recovery progress counters.
    w.i64(recovery_.failures_detected);
    w.i64(recovery_.failures_recovered);
    w.i64(recovery_.frames_replayed);
    w.i64(recovery_.spares_used);
    w.i64(recovery_.pipelines_lost);
    w.u64(recovery_.checkpoint_writes);
    w.u64(recovery_.checkpoint_replays);
    w.f64(recovery_.checkpoint_bytes);
    // Gray-mitigation progress — flag-gated on the config (which the
    // fingerprint covers), so gray-off snapshots keep the pre-gray format
    // byte-for-byte.
    if (cfg_.gray.enabled()) {
      w.i64(gray_.flags_raised);
      w.i64(gray_.dvfs_boosts);
      w.i64(gray_.migrations);
      w.i64(gray_.rebalances);
      w.i64(gray_.escalations);
      w.i64(gray_.frames_drained);
      w.u64(gray_rung_.size());
      for (const auto& [c, rung] : gray_rung_) {
        w.i64(c);
        w.i64(rung);
      }
      w.u64(gray_flag_ms_.size());
      for (const auto& [c, ms] : gray_flag_ms_) {
        w.i64(c);
        w.f64(ms);
      }
      w.u64(pipe_weight_.size());
      for (const double wt : pipe_weight_) w.f64(wt);
      w.u64(gray_drain_.size());
      for (const char g : gray_drain_) w.u32(static_cast<std::uint32_t>(g));
    }
    // Host-side distribution/collection cursors.
    w.i64(connect_frames_);
    w.i64(transfer_frame_);
    w.i64(connect_expected_);
    w.i64(max_feeder_q_);
    w.u64(lost_frames_.size());
    for (const int f : lost_frames_) w.i64(f);
    w.u64(pipeline_gen_.size());
    for (const int g : pipeline_gen_) w.i64(g);
    w.u64(acked_.size());
    for (const int a : acked_) w.i64(a);
    w.u64(cores_now_.size());
    for (const auto& cores : cores_now_) {
      w.u64(cores.size());
      for (const CoreId c : cores) w.i64(c);
    }
    return w.payload();
  }

  void write_checkpoint(std::uint64_t frames, SimTime at) {
    RunSnapshot snap;
    snap.config_fingerprint = config_fp_;
    snap.frames_delivered = frames;
    snap.sim_now_ns = at.to_ns();
    snap.crashes_consumed = static_cast<std::uint32_t>(crashes_disarmed_);
    snap.state = component_blob(frames, at);
    const Status st = snapshot::write_file_atomic(
        cfg_.checkpoint.file, serialize_run_snapshot(snap));
    if (!st.ok()) {
      checkpoint_fault("checkpoint write", st);
      return;
    }
    ++ckpt_.checkpoints_written;
    ckpt_.last_checkpoint_frames = frames;
  }

  /// Frame-0 bootstrap, run after the stages are wired but before any
  /// event dispatches. Writing a checkpoint here closes the one durability
  /// hole interval checkpointing leaves: a crash landing *before* the first
  /// periodic write would otherwise leave no snapshot — and since the
  /// snapshot carries this attempt's disarm count, no progress through the
  /// crash plan. With it, every attempt disarms one more crash no matter
  /// where the crash falls relative to the checkpoint interval. A frame-0
  /// resume anchor is verified at the same point, keeping write and verify
  /// symmetric.
  void on_run_start() {
    if (failed_ || !cfg_.checkpoint.enabled()) return;
    if (have_resume_ && !resume_checked_ &&
        resume_snap_.frames_delivered == 0) {
      resume_checked_ = true;
      if (resume_snap_.sim_now_ns != 0 ||
          component_blob(0, SimTime::zero()) != resume_snap_.state) {
        checkpoint_fault(
            "resume verify",
            Status(StatusCode::DataLoss,
                   "initial state diverged from snapshot '" +
                       cfg_.checkpoint.file +
                       "': the snapshot was written by a different build or "
                       "environment"));
        return;
      }
      ckpt_.resume_verified = true;
    }
    if (cfg_.checkpoint.every_frames > 0) {
      write_checkpoint(0, SimTime::zero());
    }
  }

  void on_frame_boundary(SimTime at) {
    if (failed_) return;
    const std::uint64_t frames =
        static_cast<std::uint64_t>(frame_done_ms_.size());
    // Resume verification anchor: when the replay reaches the snapshot's
    // frame count, the live state must reproduce the stored blob exactly.
    // A match proves the run is on the recorded trajectory; a mismatch
    // means the build/config/environment drifted and continuing would
    // produce silently different results — typed DataLoss instead.
    if (have_resume_ && !resume_checked_ &&
        frames == resume_snap_.frames_delivered) {
      resume_checked_ = true;
      if (at.to_ns() != resume_snap_.sim_now_ns ||
          component_blob(frames, at) != resume_snap_.state) {
        checkpoint_fault(
            "resume verify",
            Status(StatusCode::DataLoss,
                   "deterministic replay diverged from snapshot '" +
                       cfg_.checkpoint.file + "' at frame " +
                       std::to_string(frames) +
                       ": the snapshot was written by a different build or "
                       "environment"));
        return;
      }
      ckpt_.resume_verified = true;
    }
    if (cfg_.checkpoint.every_frames > 0 &&
        frames % static_cast<std::uint64_t>(cfg_.checkpoint.every_frames) ==
            0) {
      write_checkpoint(frames, at);
    }
  }

  void collect_checkpoint_report(RunResult& r) {
    r.checkpoint = ckpt_;
    r.checkpoint.enabled = cfg_.checkpoint.enabled() || !crash_plan_.empty();
    r.checkpoint.crashed = crashed_;
    r.checkpoint.crashed_at_ms = crashed_ ? crashed_at_.to_ms() : 0.0;
    r.checkpoint.crashes_consumed =
        static_cast<std::uint32_t>(crashes_disarmed_);
    if (have_resume_ && !resume_checked_ && !failed_ && !crashed_ &&
        r.checkpoint.error_code == StatusCode::Ok) {
      // The replay drained without ever reaching the snapshot's frame
      // count — the snapshot records more progress than this configuration
      // can produce, which the fingerprint cannot always catch.
      r.checkpoint.error_code = StatusCode::DataLoss;
      r.checkpoint.error =
          "replay completed at " + std::to_string(frame_done_ms_.size()) +
          " frames without reaching the snapshot's " +
          std::to_string(resume_snap_.frames_delivered);
    }
  }

  // -------------------------------------------------------------- results
  RunResult collect() {
    RunResult r;
    // A fault-free run must always complete; a faulted run may legitimately
    // end early (graceful failure, reported below), a degraded self-healing
    // run delivers everything except the explicitly-lost frames, a crashed
    // run stopped dispatching at its planned death by design, and an
    // overload run sheds by design — its completeness invariant is the
    // frame ledger checked in collect_transport_report.
    SCCPIPE_CHECK_MSG(failed_ || crashed_ || overload_mode_ ||
                          static_cast<int>(frame_done_ms_.size()) +
                                  static_cast<int>(lost_frames_.size()) ==
                              frames_total(),
                      "walkthrough did not complete: " << frame_done_ms_.size()
                          << '/' << frames_total() << " frames");
    r.frame_done_ms = frame_done_ms_;
    if (!frame_done_ms_.empty()) {
      r.walkthrough = SimTime::ms(frame_done_ms_.back());
    }
    if (failed_) r.walkthrough = max(r.walkthrough, failed_at_);
    r.placement = placement_;

    for (const auto& st : stages_) {
      StageReport rep;
      rep.kind = st->kind;
      rep.pipeline = st->pipeline;
      rep.core = st->core;
      rep.wait_ms = st->wait_ms.summary();
      rep.busy_ms = chip_->core_busy_time(st->core).to_ms();
      rep.frames = st->frames_done;
      r.stages.push_back(rep);
    }
    if (cfg_.scenario == Scenario::HostRenderer) {
      StageReport rep;
      rep.kind = StageKind::Connect;
      rep.core = placement_.producer;
      rep.wait_ms = connect_wait_.summary();
      rep.busy_ms = chip_->core_busy_time(placement_.producer).to_ms();
      rep.frames = connect_frames_;
      r.stages.push_back(rep);
    } else if (cfg_.scenario == Scenario::SingleRenderer) {
      StageReport rep;
      rep.kind = StageKind::Render;
      rep.core = placement_.producer;
      rep.busy_ms = chip_->core_busy_time(placement_.producer).to_ms();
      rep.frames = frames_total();
      r.stages.push_back(rep);
    } else if (cfg_.scenario == Scenario::RendererPerPipeline) {
      for (int p = 0; p < cfg_.pipelines; ++p) {
        const CoreId core =
            placement_.pipeline_cores[static_cast<std::size_t>(p)][0];
        StageReport rep;
        rep.kind = StageKind::Render;
        rep.pipeline = p;
        rep.core = core;
        rep.busy_ms = chip_->core_busy_time(core).to_ms();
        rep.frames = frames_total();
        r.stages.push_back(rep);
      }
    }
    {
      StageReport rep;
      rep.kind = StageKind::Transfer;
      rep.core = placement_.transfer;
      rep.wait_ms = transfer_wait_.summary();
      rep.busy_ms = chip_->core_busy_time(placement_.transfer).to_ms();
      rep.frames = supervisor_ ? static_cast<int>(frame_done_ms_.size())
                               : frames_total();
      r.stages.push_back(rep);
    }

    // Fabric accounting (§VI-A: where the bytes actually went).
    r.fabric.mesh_total_bytes = chip_->mesh().total_bytes();
    const MeshTopology& topo = chip_->topology();
    for (TileId t = 0; t < topo.tile_count(); ++t) {
      for (int d = 0; d < 4; ++d) {
        const LinkId link{topo.coord_of(t), static_cast<Direction>(d)};
        r.fabric.mesh_max_link_bytes = std::max(
            r.fabric.mesh_max_link_bytes, chip_->mesh().traffic(link).bytes);
      }
    }
    for (McId m = 0; m < topo.mc_count(); ++m) {
      const McStats& st = chip_->memory().stats(m);
      r.fabric.mc_bulk_bytes.push_back(st.bulk_bytes);
      r.fabric.mc_latency_streams_peak.push_back(st.latency_streams_peak);
    }

    release_cores();
    r.power_trace = chip_->power_meter().trace();
    r.chip_energy_joules =
        chip_->power_meter().energy_joules(SimTime::zero(), r.walkthrough);
    r.mean_chip_watts =
        chip_->power_meter().mean_watts(SimTime::zero(), r.walkthrough);
    if (host_) {
      r.host_busy_sec = host_->busy_time().to_sec();
      r.host_extra_energy_joules =
          r.host_busy_sec *
          (host_->config().busy_watts - host_->config().idle_watts);
    }
    collect_fault_report(r);
    collect_recovery_report(r);
    collect_transport_report(r);
    collect_gray_report(r);
    r.events_dispatched = sim_.dispatched();
    r.sim_allocs = sim_.stats().allocs;
    r.sim_peak_events = sim_.stats().peak_events;
    collect_checkpoint_report(r);
    return r;
  }

  void collect_recovery_report(RunResult& r) {
    r.recovery = recovery_;
    if (supervisor_ == nullptr) return;
    r.recovery.heartbeats_sent = supervisor_->heartbeats_sent();
    r.recovery.heartbeat_bytes = supervisor_->heartbeat_bytes_total();
    r.recovery.frames_lost = static_cast<int>(lost_frames_.size());
    if (first_detect_ms_ >= 0.0 && !frame_done_ms_.empty()) {
      int after = 0;
      for (const double t : frame_done_ms_) {
        if (t > first_detect_ms_) ++after;
      }
      const double span_s = (frame_done_ms_.back() - first_detect_ms_) / 1e3;
      if (after > 0 && span_s > 0.0) {
        r.recovery.post_failure_fps = after / span_s;
      }
    }
  }

  void collect_transport_report(RunResult& r) {
    TransportReport& t = r.transport;
    t = transport_tally_;
    t.enabled = overload_mode_;
    if (!overload_mode_) return;
    t.frames_delivered = static_cast<std::uint64_t>(frame_done_ms_.size());
    // A crashed run's ledger is legitimately torn mid-flight (frames were
    // admitted but never delivered/shed); only intact runs must balance.
    if (!failed_ && !crashed_) {
      SCCPIPE_CHECK_MSG(
          t.frames_offered ==
              t.frames_admitted + t.shed_admission + t.shed_breaker,
          "overload ledger leak: offered " << t.frames_offered
              << " != admitted " << t.frames_admitted << " + shed_admission "
              << t.shed_admission << " + shed_breaker " << t.shed_breaker);
      SCCPIPE_CHECK_MSG(
          t.frames_admitted ==
              t.frames_delivered + t.shed_deadline + t.shed_transport,
          "overload ledger leak: admitted " << t.frames_admitted
              << " != delivered " << t.frames_delivered << " + shed_deadline "
              << t.shed_deadline << " + shed_transport " << t.shed_transport);
    }
    if (host_arq_ != nullptr) {
      const ReliableHostChannel& w = host_arq_->transport();
      t.first_sends = w.first_sends();
      t.retransmissions = w.retransmissions();
      t.dup_suppressed = w.dup_suppressed();
      t.acks = w.acks_sent();
      t.credit_grants = w.credit_grants();
      t.credit_stalls += w.credit_stalls();
      t.credit_stall_ms += w.credit_stall_time().to_ms();
      t.max_link_queue = w.max_receiver_occupancy();
      t.smoothed_rtt_ms = w.smoothed_rtt().to_ms();
    }
    for (const CreditedSccChannel* ch : credited_) {
      t.credit_stalls += ch->credit_stalls();
      t.credit_stall_ms += ch->credit_stall_time().to_ms();
      t.credit_grants += ch->credit_messages();
      t.max_stage_queue = std::max(t.max_stage_queue, ch->max_occupancy());
    }
    t.max_feeder_queue = max_feeder_q_;
    if (!frame_done_ms_.empty()) {
      const double span_sec = frame_done_ms_.back() / 1e3;
      if (span_sec > 0.0) {
        t.goodput_fps =
            static_cast<double>(frame_done_ms_.size()) / span_sec;
      }
      // Exact R-7 quantiles via the shared fixed-bucket histogram —
      // bit-identical to sorting latency_ms_ and calling quantile_sorted
      // (tests/gray_failure_test.cpp HistogramMatchesSortQuantiles guards
      // the equivalence), without the full sort.
      LatencyHistogram lat_hist(1.0);
      for (const double ms : latency_ms_) lat_hist.add(ms);
      t.p50_latency_ms = lat_hist.quantile(0.5);
      t.p99_latency_ms = lat_hist.quantile(0.99);
    }
    t.breaker_trips = breaker_->trips();
    t.breaker_final = breaker_->state();
    t.breaker_transitions = breaker_->transitions();
  }

  void collect_fault_report(RunResult& r) {
    r.fault.enabled = fault_ != nullptr;
    r.fault.failed = failed_;
    r.fault.frames_completed = static_cast<int>(frame_done_ms_.size());
    r.fault.stage_errors = fault_errors_;
    if (failed_) {
      r.fault.failure_code = first_failure_.code();
      r.fault.failure = first_failure_where_ + ": " + first_failure_.message();
      r.fault.failed_at_ms = failed_at_.to_ms();
    }
    if (fault_ == nullptr) return;
    r.fault.rcce_drops = fault_->rcce_drops();
    r.fault.rcce_delays = fault_->rcce_delays();
    r.fault.host_drops = fault_->host_drops();
    r.fault.host_delays = fault_->host_delays();
    r.fault.rcce_corrupts = fault_->rcce_corrupts();
    r.fault.host_corrupts = fault_->host_corrupts();
    r.fault.rcce_retransmissions = rcce_->retransmissions();
    r.fault.rcce_transfers_failed = rcce_->transfers_failed();
    r.fault.host_retransmissions = viewer_wire_->wire_retransmissions();
    if (host_wire_ != nullptr) {
      r.fault.host_retransmissions += host_wire_->wire_retransmissions();
    }
    r.fault.fingerprint = fault_->fingerprint();

    // Fault annotations on the timeline: scheduled windows plus every
    // message-fate decision, grouped on a pseudo-core so they line up with
    // the stage spans in chrome://tracing.
    if (cfg_.timeline != nullptr) {
      const auto annotate = [this](const FaultEvent& ev) {
        std::string name = fault_kind_name(ev.kind);
        if (ev.kind == FaultKind::RcceDrop || ev.kind == FaultKind::RcceDelay) {
          name += " " + std::to_string(ev.target / 1000) + "->" +
                  std::to_string(ev.target % 1000);
        } else if (ev.target >= 0) {
          name += " #" + std::to_string(ev.target);
        }
        // Instant decisions (drops) get a nominal width so the recorder
        // keeps them and chrome://tracing shows a visible tick.
        SimTime end = max(ev.end, ev.start + ev.extra);
        if (end == ev.start) end = ev.start + SimTime::us(10);
        cfg_.timeline->add_span(-1, name, "fault", ev.start, end);
      };
      for (const FaultEvent& ev : fault_->schedule()) annotate(ev);
      for (const FaultEvent& ev : fault_->trace()) annotate(ev);
    }
  }

  // ---------------------------------------------------------------- state
  const SceneBundle& scene_;
  const WorkloadTrace& trace_;
  RunConfig cfg_;

  // One event loop for the whole run. Host-side actors (links, channels,
  // supervisor, producer) schedule on sim_ directly; the chip's fabric
  // turns its timed primitives into located event chains on the same queue.
  // The default reservation is far above the measured peak of pending
  // events (39 over the Table I grid), so a steady-state run never grows
  // the queue — walkthrough_test asserts RunResult::sim_allocs == 0.
  Simulator sim_;
  std::unique_ptr<SccChip> chip_;
  std::unique_ptr<RcceComm> rcce_;
  std::unique_ptr<FaultInjector> fault_;
  std::unique_ptr<HostCpu> host_;
  HostLinkConfig viewer_link_{};
  HostLinkConfig producer_link_{};
  Placement placement_;

  std::vector<std::unique_ptr<Channel>> channels_;
  Channel* viewer_ = nullptr;
  Channel* host_in_ = nullptr;
  std::vector<Channel*> head_channels_;  // producer/renderer -> sepia, per pl
  std::vector<Channel*> tail_channels_;  // swap -> transfer, per pipeline
  std::vector<std::unique_ptr<StageState>> stages_;

  int connect_frames_ = 0;
  SimTime connect_wait_posted_ = SimTime::zero();
  SimTime producer_span_start_ = SimTime::zero();
  SampleSet connect_wait_;

  /// Every strip the transfer stage received, in arrival order: first the
  /// strips of frames the viewer got, [0, delivered_end_); then those of
  /// assembled frames still on the viewer link, up to assembled_end_; then
  /// the frame being collected. A collection that restarts (its frame was
  /// lost) drops its tail.
  std::vector<DeliveredStrip> transfer_assembly_;
  std::size_t assembled_end_ = 0;
  std::size_t delivered_end_ = 0;
  SimTime transfer_wait_posted_ = SimTime::zero();
  SampleSet transfer_wait_;

  std::vector<double> frame_done_ms_;

  // Fault-run state: typed wire handles for retransmission counters, and
  // the first-failure record that stops the pumps.
  ChipToViewerChannel* viewer_wire_ = nullptr;
  HostToChipChannel* host_wire_ = nullptr;
  bool failed_ = false;
  Status first_failure_;
  std::string first_failure_where_;
  SimTime failed_at_ = SimTime::zero();
  std::vector<std::string> fault_errors_;

  // ---- overload-mode state (inert unless cfg_.overload.enabled()) ----
  bool overload_mode_ = false;
  std::unique_ptr<CircuitBreaker> breaker_;
  ReliableHostToChipChannel* host_arq_ = nullptr;
  std::vector<CreditedSccChannel*> credited_;
  std::deque<int> feeder_q_;        // admitted-but-unrendered frames
  bool feeder_busy_ = false;
  std::vector<SimTime> arrival_at_;  // per frame: offered instant
  std::vector<double> latency_ms_;   // per delivered frame: offer -> viewer
  int max_feeder_q_ = 0;
  int connect_expected_ = 0;  // next frame id the connect stage may see
  TransportReport transport_tally_;  // frame ledger counters, live

  // ---- self-healing state (all empty/unused when supervisor_ is null) ----
  /// Inert fault view for a gray-only Supervisor (no fault plan at all).
  /// Declared before supervisor_, which holds a reference into it.
  std::unique_ptr<FaultInjector> idle_fault_;
  std::unique_ptr<Supervisor> supervisor_;
  RecoveryReport recovery_;
  std::vector<CoreId> spares_;          // remaining promotion candidates
  std::vector<CoreId> remapped_cores_;  // spares promoted into pipelines
  std::vector<std::vector<CoreId>> cores_now_;  // live pipeline->core map
  std::vector<char> pipeline_alive_;
  std::vector<int> pipeline_gen_;
  std::vector<int> acked_;      // last frame delivered to transfer, per pl
  std::vector<int> head_sent_;  // last frame handed to the head, per pl
  std::vector<std::map<int, SentStrip>> outstanding_;  // checkpoint index
  std::vector<std::deque<int>> replay_q_;
  std::vector<char> replay_active_;
  std::set<int> lost_frames_;
  std::map<int, std::vector<int>> frame_routes_;
  double first_detect_ms_ = -1.0;

  // ---- gray-failure state (inert unless cfg_.gray.enabled()) ----
  GrayReport gray_;                        // live tally; finished in collect
  std::map<CoreId, int> gray_rung_;        // ladder rungs climbed, per core
  std::map<CoreId, double> gray_flag_ms_;  // first-flag instant, per core
  std::vector<LatencyHistogram> gray_after_hist_;  // per action, aligned
  std::map<CoreId, std::vector<std::size_t>> gray_after_;  // core -> actions
  std::vector<char> gray_drain_;     // pipeline mid-drain (supervisor-sized)
  std::vector<double> pipe_weight_;  // strip shares (rebalance rung)
  bool gray_weighted_ = false;
  std::map<int, std::vector<StripRange>> frame_strips_;  // weighted splits
  double first_gray_flag_ms_ = -1.0;

  // ---- checkpoint / crash state (inert unless cfg_.checkpoint or a
  //      crash-at fate is active) ----
  std::vector<SimTime> crash_plan_;  // planned process deaths, sorted
  std::uint64_t config_fp_ = 0;
  CheckpointReport ckpt_;
  RunSnapshot resume_snap_;
  bool have_resume_ = false;
  bool resume_checked_ = false;
  bool crashed_ = false;
  SimTime crashed_at_ = SimTime::zero();
  std::size_t crashes_disarmed_ = 0;  // crash-at fates this attempt skips

  // Producer distribution progress (to resume a chain stalled on a dead
  // core) and the supervisor-mode transfer collector's cursor.
  bool dist_active_ = false;
  int dist_frame_ = -1;
  int dist_slot_ = 0;
  int dist_pending_pipeline_ = -1;
  int transfer_frame_ = 0;
  int transfer_slot_ = 0;
  std::vector<int> transfer_route_;
  int transfer_ticket_ = 0;
  int transfer_ticket_seq_ = 0;
  bool transfer_waiting_ = false;
  bool transfer_deferred_ = false;
};

}  // namespace

PlacementRequest placement_request(const RunConfig& cfg) {
  PlacementRequest req;
  req.pipelines = cfg.pipelines;
  req.stages_per_pipeline =
      kFilterCount + (cfg.scenario == Scenario::RendererPerPipeline ? 1 : 0);
  req.needs_producer = cfg.scenario == Scenario::SingleRenderer ||
                       cfg.scenario == Scenario::HostRenderer;
  req.isolate_blur_tile = cfg.isolate_blur_tile;
  return req;
}

Status validate_run_config(const RunConfig& cfg) {
  const auto invalid = [](std::string why) {
    return Status(StatusCode::InvalidArgument, std::move(why));
  };
  if (cfg.scenario == Scenario::SingleCore) {
    return invalid("use run_single_core() for the one-core baseline");
  }
  if (cfg.pipelines < 1 || cfg.pipelines > StripCounts::kMax) {
    return invalid("pipelines must be in 1.." +
                   std::to_string(StripCounts::kMax) + ", got " +
                   std::to_string(cfg.pipelines));
  }
  const MeshTopology topo(platform_parts(cfg.platform).chip.mesh_layout);
  Placement placement;
  if (Status st = plan_placement(topo, cfg.arrangement,
                                 placement_request(cfg), &placement);
      !st.ok()) {
    return st;
  }
  const auto check_core = [&](const char* fate, CoreId core) {
    return topo.valid_core(core)
               ? Status()
               : invalid(std::string(fate) + " targets core " +
                         std::to_string(core) +
                         " which the chip does not have");
  };
  for (const CoreFailure& cf : cfg.fault.core_failures) {
    if (Status st = check_core("core-fail", cf.core); !st.ok()) return st;
  }
  for (const SlowCore& sc : cfg.fault.slow_cores) {
    if (Status st = check_core("slow-core", sc.core); !st.ok()) return st;
  }
  for (const StallSpec& ss : cfg.fault.stalls) {
    if (Status st = check_core("intermittent-stall", ss.core); !st.ok()) {
      return st;
    }
  }
  for (const DegradedLink& dl : cfg.fault.degraded_links) {
    const std::string link =
        std::to_string(dl.tile_a) + "-" + std::to_string(dl.tile_b);
    const auto on_mesh = [&](TileId t) {
      return t >= 0 && t < topo.tile_count();
    };
    if (!on_mesh(dl.tile_a) || !on_mesh(dl.tile_b)) {
      return invalid("degraded-link " + link + " names a tile off the " +
                     std::to_string(topo.tile_count()) + "-tile mesh");
    }
    const TileCoord a = topo.coord_of(dl.tile_a);
    const TileCoord b = topo.coord_of(dl.tile_b);
    if (std::abs(a.x - b.x) + std::abs(a.y - b.y) != 1) {
      return invalid("degraded-link " + link +
                     " is not a mesh link (tiles not adjacent)");
    }
  }
  const DvfsTable dvfs;
  const auto check_mhz = [&](const char* flag, int mhz) {
    if (mhz == 0 || dvfs.allowed(mhz)) return Status();  // 0 = default
    std::string levels;
    for (const OperatingPoint& p : dvfs.points()) {
      levels += (levels.empty() ? "" : ", ") + std::to_string(p.mhz);
    }
    return invalid(std::string(flag) + " " + std::to_string(mhz) +
                   " is not a DVFS level (0 = default, or one of " + levels +
                   ")");
  };
  if (Status st = check_mhz("blur-mhz", cfg.blur_mhz); !st.ok()) return st;
  if (Status st = check_mhz("tail-mhz", cfg.tail_mhz); !st.ok()) return st;
  if (cfg.overload.enabled()) {
    if (cfg.scenario != Scenario::HostRenderer) {
      return invalid("overload controls govern the host feed path; only the "
                     "host-renderer scenario has one");
    }
    if (!cfg.fault.core_failures.empty()) {
      return invalid("overload mode cannot be combined with planned core "
                     "failures (the supervisor rebuild assumes rendezvous "
                     "channels)");
    }
  }
  if (cfg.gray.enabled()) {
    if (Status st = validate_gray(cfg.gray); !st.ok()) return st;
    if (cfg.overload.enabled()) {
      return invalid("gray-failure mitigation cannot be combined with the "
                     "overload data plane (the gray ledger assumes the "
                     "closed-loop frame accounting)");
    }
  }
  return Status();
}

StripCounts strip_counts_for(const std::vector<RunConfig>& configs) {
  StripCounts counts{1};
  for (const RunConfig& cfg : configs) counts.insert(cfg.pipelines);
  return counts;
}

Status validate_frame_size(int size, const StripCounts& counts) {
  const int strips = std::max(1, counts.max());
  if (size >= strips) return Status();
  return Status(StatusCode::InvalidArgument,
                "frames of " + std::to_string(size) + " rows cannot be cut "
                "into " + std::to_string(strips) + " strips (size must be "
                "at least the pipeline count)");
}

RunResult run_walkthrough(const SceneBundle& scene, const WorkloadTrace& trace,
                          const RunConfig& cfg) {
  WalkthroughSim sim(scene, trace, cfg);
  RunResult r = sim.run();
  if (cfg.functional) r.frames = compose_frames(scene, cfg, sim.delivery_log());
  return r;
}

SingleCoreBreakdown run_single_core(const SceneBundle& scene,
                                    const WorkloadTrace& trace,
                                    const RunConfig& cfg, bool include_filters,
                                    bool include_transfer) {
  Simulator sim;
  const PlatformParts parts = platform_parts(cfg.platform);
  SccChip chip(sim, parts.chip);
  HostChannel viewer_wire(sim, parts.viewer_link);
  const CoreId core = 0;
  chip.allocate_core(core);

  SingleCoreBreakdown out;
  std::vector<std::pair<StageKind, SimTime>>& acc = out.per_stage;
  acc.emplace_back(StageKind::Render, SimTime::zero());
  if (include_filters) {
    for (const StageKind k : kFilterChain) acc.emplace_back(k, SimTime::zero());
  }
  if (include_transfer) acc.emplace_back(StageKind::Transfer, SimTime::zero());

  const double frame_bytes =
      static_cast<double>(scene.image_side()) * scene.image_side() * 4.0;
  const double pixels =
      static_cast<double>(scene.image_side()) * scene.image_side();

  // Sequential: every stage of every frame on one core. Timing is additive
  // (no pipelining), so we can walk the stage list with chained callbacks.
  struct Driver {
    Simulator& sim;
    SccChip& chip;
    HostChannel& viewer_wire;
    const SceneBundle& scene;
    const WorkloadTrace& trace;
    const RunConfig& cfg;
    std::vector<std::pair<StageKind, SimTime>>& acc;
    double frame_bytes;
    double pixels;
    int frame = 0;

    void run_frame() {
      if (frame >= scene.frame_count()) return;
      run_stage(0, sim.now());
    }

    void run_stage(std::size_t idx, SimTime stage_start) {
      if (idx >= acc.size()) {
        ++frame;
        run_frame();
        return;
      }
      const StageKind kind = acc[idx].first;
      auto done = [this, idx, stage_start] {
        acc[idx].second += sim.now() - stage_start;
        run_stage(idx + 1, sim.now());
      };
      switch (kind) {
        case StageKind::Render: {
          StageWork w = render_work(cfg.cal, trace.load(frame, 1, 0),
                                    /*adjust_frustum=*/false);
          w.cycles *= chip.config().render_cycles_scale;
          chip.memory_walk(0, w.walk_accesses, [this, w, done] {
            chip.compute(0, w.cycles, [this, w, done] {
              chip.dram_stream(0, w.dram_bytes, done);
            });
          });
          break;
        }
        case StageKind::Transfer: {
          // No assembly needed (single strip); just the UDP send.
          chip.compute(0, viewer_wire.scc_send_cycles(frame_bytes),
                       [this, done] {
                         viewer_wire.push(frame_bytes, done);
                         viewer_wire.pop([](double) {});
                       });
          break;
        }
        default: {
          const int scratches =
              scratch_params_for_frame(cfg.seed, frame, scene.image_side(),
                                       cfg.cal.max_scratches)
                  .count;
          const StageWork w = filter_work(cfg.cal, kind, pixels, scratches);
          chip.compute(0, w.cycles, [this, w, done] {
            chip.dram_stream(0, w.dram_bytes, done);
          });
          break;
        }
      }
    }
  };

  Driver driver{sim,  chip,        viewer_wire, scene, trace,
                cfg,  out.per_stage, frame_bytes, pixels};
  driver.run_frame();
  sim.run();
  chip.release_core(core);

  for (const auto& [k, v] : out.per_stage) out.total += v;
  return out;
}

}  // namespace sccpipe
