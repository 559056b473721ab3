#include "sccpipe/core/walkthrough.hpp"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <utility>

#include "sccpipe/filters/filters.hpp"
#include "sccpipe/host/reliable_link.hpp"
#include "sccpipe/noc/fabric.hpp"
#include "sccpipe/noc/mesh.hpp"
#include "sccpipe/scc/dvfs.hpp"
#include "sccpipe/support/check.hpp"
#include "sccpipe/support/parallel.hpp"

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
  // Each frame's buffer is filled by a task of its own, not serially
  // before the strip tasks start.
  std::vector<Image> out(frames);
  parallel_for(default_jobs(), frames,
               [&](std::size_t f) { out[f] = Image(side, side); });
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

/// Where every frame of a run ended up. A frame is offered once (all at
/// the start of a closed-loop run; on arrival or render in an overload
/// run) and then gets exactly one fate: delivered to the viewer, shed
/// (admission queue full, breaker open, deadline missed, abandoned by the
/// transport) or lost to a degraded pipeline. The transport, gray and
/// recovery reports read their frame counts off this one ledger.
class FrameLedger {
 public:
  enum class Fate : std::uint8_t {
    Unoffered, Pending, Delivered,
    ShedAdmission, ShedBreaker, ShedDeadline, ShedTransport, Lost,
  };

  /// \p offered_at_start: a closed-loop run offers every frame at once.
  FrameLedger(int frames, bool offered_at_start)
      : fate_(static_cast<std::size_t>(frames),
              offered_at_start ? Fate::Pending : Fate::Unoffered),
        offered_at_(fate_.size()) {}

  void offer(int frame, SimTime at) {
    offered_at_[static_cast<std::size_t>(frame)] = at;
    move(frame, Fate::Unoffered, Fate::Pending);
  }
  /// Set \p frame's one fate.
  void settle(int frame, Fate fate) { move(frame, Fate::Pending, fate); }

  Fate fate(int frame) const { return fate_[static_cast<std::size_t>(frame)]; }
  /// Shed or lost: the frame will never reach the viewer.
  bool dropped(int frame) const { return fate(frame) > Fate::Delivered; }
  SimTime offered_at(int frame) const {
    return offered_at_[static_cast<std::size_t>(frame)];
  }
  std::uint64_t count(Fate f) const {
    return static_cast<std::uint64_t>(
        std::count(fate_.begin(), fate_.end(), f));
  }
  std::uint64_t offered() const {
    return fate_.size() - count(Fate::Unoffered);
  }
  std::uint64_t shed() const {
    return count(Fate::ShedAdmission) + count(Fate::ShedBreaker) +
           count(Fate::ShedDeadline) + count(Fate::ShedTransport);
  }

 private:
  void move(int frame, Fate from, Fate to) {
    Fate& f = fate_[static_cast<std::size_t>(frame)];
    SCCPIPE_CHECK_MSG(f == from, "frame " << frame << " given fate "
                                          << static_cast<int>(to)
                                          << " after fate "
                                          << static_cast<int>(f));
    f = to;
  }

  std::vector<Fate> fate_;
  std::vector<SimTime> offered_at_;
};

using Fate = FrameLedger::Fate;

/// One timed walkthrough run. Owns the simulator, the platform models and
/// all stage actors; run() drives the event loop to completion.
class WalkthroughSim {
 public:
  WalkthroughSim(const SceneBundle& scene, const WorkloadTrace& trace,
                 const RunConfig& cfg)
      : scene_(scene),
        trace_(trace),
        cfg_(cfg),
        ledger_(scene.frame_count(), !cfg.overload.enabled()) {
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
    }
    build_platform();
    handed_busy_.assign(
        static_cast<std::size_t>(chip_->topology().core_count()),
        SimTime::zero());
    build_placement();
    apply_dvfs();
    build_channels_and_stages();
    build_supervisor();
    transfer_assembly_.reserve(static_cast<std::size_t>(frames_total()) *
                               static_cast<std::size_t>(cfg.pipelines));
  }

  /// The strips of the frames the viewer received, in delivery order.
  std::span<const DeliveredStrip> delivery_log() const {
    return {transfer_assembly_.data(), delivered_end_};
  }

  RunResult run() {
    allocate_cores();
    if (supervisor_) {
      supervisor_->start([this](CoreId core, SimTime detected_at) {
        handle_core_failure(core, detected_at);
      });
    }
    start_producer();
    start_filter_stages();
    transfer_begin_frame();
    chip_->fabric().set_in_run(true);
    const Status drained =
        run_guarded(sim_, SimTime::max(), kMaxEventsPerTimestamp);
    chip_->fabric().set_in_run(false);
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
        chip_->set_core_frequency(pl[pl.size() - 4], cfg_.blur_mhz);
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

  /// The Supervisor exists only when the plan schedules a core failure or
  /// the gray detector is armed. Every run takes the same pipeline driver;
  /// only its costs and bookkeeping (heartbeats, checkpoint staging, the
  /// per-frame routes and the replay index) are the Supervisor's own.
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
    if (cfg_.gray.enabled()) {
      pipe_weight_.assign(static_cast<std::size_t>(cfg_.pipelines), 1.0);
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
            latency_ms_.push_back((at - ledger_.offered_at(tok.frame)).to_ms());
          }
          commit_delivered(tok.frame);
          note_handed_on(placement_.transfer);
        });
    if (fault_) viewer_ch->set_fault(fault_.get(), cfg_.rcce.retry);
    viewer_wire_ = viewer_ch.get();
    channels_.push_back(std::move(viewer_ch));
    viewer_ = watch(channels_.back().get(), "transfer->viewer link");

    // Producer feed into the chip (host scenarios only). With an ARQ
    // window configured the sliding-window wire replaces stop-and-wait and
    // abandoned frames are shed + ledgered instead of failing the run.
    if (cfg_.scenario == Scenario::HostRenderer) {
      std::unique_ptr<HostWire> wire;
      const bool arq = overload_mode_ && cfg_.overload.window > 0;
      if (arq) {
        ReliableLinkConfig rl;
        rl.link = producer_link_;
        rl.window = cfg_.overload.window;
        if (cfg_.overload.queue_depth > 0) {
          rl.queue_depth = cfg_.overload.queue_depth;
        }
        rl.retry = cfg_.rcce.retry;
        auto w = std::make_unique<ReliableHostChannel>(sim_, rl);
        if (fault_) w->set_fault(fault_.get());
        host_arq_ = w.get();
        wire = std::move(w);
      } else {
        auto w = std::make_unique<HostChannel>(sim_, producer_link_);
        if (fault_) w->set_fault(fault_.get(), cfg_.rcce.retry);
        host_wire_ = w.get();
        wire = std::move(w);
      }
      auto host_ch = std::make_unique<HostToChipChannel>(
          *host_, *chip_, placement_.producer, std::move(wire));
      if (arq) {
        host_ch->set_abandon_handler(
            [this](const FrameToken& tok, const Status& s) {
              // The frame was admitted and lost to the transport: ledger
              // it, count the failure toward the breaker, keep pumping.
              fault_errors_.push_back("host->connect link: shed frame " +
                                      std::to_string(tok.frame) + ": " +
                                      s.to_string());
              breaker_->on_failure(sim_.now());
              shed(tok.frame, Fate::ShedTransport);
            });
      }
      channels_.push_back(std::move(host_ch));
      host_in_ = watch(channels_.back().get(), "host->connect link");
    }

    // Per-pipeline state, the same for every run: a run without a
    // Supervisor never kills, rebuilds or re-routes a pipeline, so its
    // cursors simply never move.
    const std::size_t sk = static_cast<std::size_t>(k);
    cores_now_ = placement_.pipeline_cores;
    pipeline_alive_.assign(sk, 1);
    pipeline_gen_.assign(sk, 0);
    acked_.assign(sk, -1);
    head_sent_.assign(sk, -1);
    outstanding_.resize(sk);
    replay_next_.assign(sk, 0);
    replay_active_.assign(sk, 0);
    gray_drain_.assign(sk, 0);
    for (int q = 0; q < k; ++q) every_pipeline_.push_back(q);

    // Per-pipeline stages and channels.
    head_channels_.assign(sk, nullptr);
    tail_channels_.assign(sk, nullptr);
    for (int p = 0; p < k; ++p) {
      for (const StageKind kind : kFilterChain) {
        auto st = std::make_unique<StageState>();
        st->kind = kind;
        st->pipeline = p;
        stages_.push_back(std::move(st));
      }
      wire_pipeline(p, "[p" + std::to_string(p) + "]");
    }
  }

  /// Creates pipeline \p p's channel chain over its live core list — head
  /// (producer or own renderer -> sepia), one hop per filter, tail (swap ->
  /// transfer) — and points its stages at it. \p suffix tags each hop's
  /// error label. The first build and every rebuild take this path.
  void wire_pipeline(int p, const std::string& suffix) {
    const std::size_t sp = static_cast<std::size_t>(p);
    const auto& cores = cores_now_[sp];
    const bool own_renderer = cfg_.scenario == Scenario::RendererPerPipeline;
    const std::size_t first_filter = own_renderer ? 1 : 0;
    SCCPIPE_CHECK(cores.size() == first_filter + kFilterCount);
    Channel* in = own_renderer
                      ? make_scc_channel(cores[0], cores[1],
                                         "render->sepia" + suffix)
                      : make_scc_channel(placement_.producer, cores[0],
                                         "producer->sepia" + suffix);
    head_channels_[sp] = in;
    for (int f = 0; f < kFilterCount; ++f) {
      StageState& st = *stages_[static_cast<std::size_t>(p * kFilterCount + f)];
      st.core = cores[first_filter + static_cast<std::size_t>(f)];
      st.in = in;
      st.out = f + 1 < kFilterCount
                   ? make_scc_channel(
                         st.core,
                         cores[first_filter + static_cast<std::size_t>(f) + 1],
                         std::string(stage_name(kFilterChain[f])) + "->" +
                             stage_name(kFilterChain[f + 1]) + suffix)
                   : make_scc_channel(st.core, placement_.transfer,
                                      "swap->transfer" + suffix);
      in = st.out;
    }
    tail_channels_[sp] = in;
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
  double frame_bytes() const { return strip_bytes(StripRange{0, side()}); }
  FrameToken token(int frame, StripRange strip) const {
    FrameToken tok;
    tok.frame = frame;
    tok.strip = strip;
    tok.bytes = strip_bytes(strip);
    return tok;
  }
  FrameToken whole_frame(int frame) const {
    return token(frame, StripRange{0, side()});
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

  /// True when an in-flight step must stop because the run failed. A
  /// supervised run silences its pipelines at once; an unsupervised one
  /// lets the strips already in flight finish their hops, which its pinned
  /// event stream counts (walkthrough_test, EventStreamMatchesPinnedCounts).
  bool halted() const { return failed_ && supervisor_ != nullptr; }

  /// True when a callback pipeline \p p captured under generation \p gen
  /// must fall silent: the run halted, or a rebuild orphaned the chain.
  bool superseded(int p, int gen) const {
    return halted() || gen != pipeline_gen_[static_cast<std::size_t>(p)];
  }

  /// Checkpoint staging: a supervised run writes \p bytes to \p core's
  /// DRAM partition before \p then runs, so a remapped pipeline can replay
  /// them. Without a Supervisor nothing is ever replayed and \p then runs
  /// at once.
  template <typename F>
  void stage_checkpoint(CoreId core, double bytes, F then) {
    if (!supervisor_) {
      then();
      return;
    }
    ++recovery_.checkpoint_writes;
    recovery_.checkpoint_bytes += bytes;
    chip_->dram_stream(core, bytes, std::move(then));
  }

  /// The pipelines \p frame is split across, or null while that is not
  /// known yet (the frame has not been distributed). Without a Supervisor
  /// no pipeline dies, and per-pipeline renderers never re-route, so the
  /// route is every pipeline, known from the start; a supervised producer
  /// snaps the surviving pipelines when the frame's distribution begins.
  const std::vector<int>* route_of(int frame) const {
    if (!supervisor_ || cfg_.scenario == Scenario::RendererPerPipeline) {
      return &every_pipeline_;
    }
    const auto it = frame_routes_.find(frame);
    return it == frame_routes_.end() ? nullptr : &it->second;
  }

  /// Snap \p frame's route (and, on a rebalanced run, its weighted split).
  /// False, with the run failed, when no pipeline is left.
  bool snap_route(int frame) {
    std::vector<int> route;
    for (int q = 0; q < cfg_.pipelines; ++q) {
      if (pipeline_alive_[static_cast<std::size_t>(q)]) route.push_back(q);
    }
    if (route.empty()) {
      on_fault("producer",
               Status(StatusCode::Unavailable,
                      "every pipeline has failed; no cores left to route "
                      "frames through"));
      return false;
    }
    if (gray_weighted_) {
      // Rebalanced run: snap this frame's weighted split now, so a
      // rebalance landing mid-distribution can never tear one frame's
      // strips (the split must be consistent across all of its slots).
      std::vector<double> wts;
      wts.reserve(route.size());
      for (const int q : route) {
        wts.push_back(pipe_weight_[static_cast<std::size_t>(q)]);
      }
      frame_strips_[frame] = divide_rows_weighted(side(), wts);
    }
    frame_routes_[frame] = std::move(route);
    return true;
  }

  /// Distribution entry point (scenario 1, and the connect stage of
  /// scenario 3): hand \p frame's strips to the pipelines of its route. A
  /// supervised run first stages the whole frame as a checkpoint in the
  /// producer's DRAM partition, so a remapped pipeline can replay its
  /// strips.
  void begin_distribution(int frame) {
    if (failed_) return;
    if (supervisor_ && !snap_route(frame)) return;
    dist_active_ = true;
    dist_frame_ = frame;
    note_handed_on(placement_.producer);
    dist_slot_ = 0;
    stage_checkpoint(placement_.producer, frame_bytes(), [this, frame] {
      if (failed_) return;
      distribute(frame, 0);
    });
    // The transfer stage may have been stalled waiting to learn this
    // frame's route.
    if (transfer_deferred_) transfer_begin_frame();
  }

  /// Hand slot \p s of \p frame's route its strip, then the next slot;
  /// after the last one the producer moves on to the next frame. The frame
  /// is split across exactly its route, so a degraded run re-splits later
  /// frames across the survivors instead of leaving a hole.
  void distribute(int frame, int s) {
    if (failed_) return;
    const std::vector<int>& route = *route_of(frame);
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
    dist_slot_ = s;
    if (replay_active_[static_cast<std::size_t>(p)]) {
      // The pipeline is still re-sending the strips a failure stranded,
      // and this producer reads their checkpoints: park here until
      // pump_replay drains that backlog, then resume at this slot.
      dist_parked_on_ = p;
      return;
    }
    // A rebalanced frame uses the weighted split snapped with its route;
    // every other frame takes the equal split.
    const auto sit = frame_strips_.find(frame);
    const auto strips =
        sit != frame_strips_.end()
            ? sit->second
            : divide_rows(side(), static_cast<int>(route.size()));
    FrameToken tok = token(frame, strips[static_cast<std::size_t>(s)]);
    record_outstanding(p, frame, tok.strip);
    dist_pending_pipeline_ = p;
    const int gen = pipeline_gen_[static_cast<std::size_t>(p)];
    head_channels_[static_cast<std::size_t>(p)]->send(
        std::move(tok), [this, frame, s, p, gen] {
          if (failed_) return;
          // A remap while this send was pending already resumed the chain.
          if (gen != pipeline_gen_[static_cast<std::size_t>(p)]) return;
          dist_pending_pipeline_ = -1;
          distribute(frame, s + 1);
        });
  }

  /// Scenario 2: each pipeline's own renderer draws just its strip with an
  /// adjusted frustum.
  void render_pipeline_frame(int p, int frame) {
    if (failed_ || frame >= frames_total()) return;
    const std::size_t sp = static_cast<std::size_t>(p);
    const CoreId core = cores_now_[sp][0];
    const int gen = pipeline_gen_[sp];
    const RenderLoad& load = trace_.load(frame, cfg_.pipelines, p);
    const StageWork w = scaled_render_work(load, /*adjust_frustum=*/true);
    chip_->memory_walk(core, w.walk_accesses, [this, p, frame, core, w, gen] {
      chip_->compute(core, w.cycles, [this, p, frame, core, w, gen] {
        chip_->dram_stream(core, w.dram_bytes, [this, p, frame, core, gen] {
          // Superseded by a remap: the rebuilt chain re-renders.
          if (superseded(p, gen)) return;
          const auto strips = divide_rows(side(), cfg_.pipelines);
          FrameToken tok = token(frame, strips[static_cast<std::size_t>(p)]);
          record_outstanding(p, frame, tok.strip);
          head_sent_[static_cast<std::size_t>(p)] = frame;
          note_handed_on(core);
          const double bytes = tok.bytes;
          stage_checkpoint(core, bytes, [this, p, frame, gen,
                                         tok = std::move(tok)]() mutable {
            if (superseded(p, gen)) return;
            head_channels_[static_cast<std::size_t>(p)]->send(
                std::move(tok), [this, p, frame, gen] {
                  if (!superseded(p, gen)) render_pipeline_frame(p, frame + 1);
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
      ledger_.offer(frame, sim_.now());
    }
    const RenderLoad& load = trace_.load(frame, 1, 0);
    host_->compute(host_render_cycles(cfg_.cal, load), [this, frame] {
      host_in_->send(whole_frame(frame),
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
    ledger_.offer(frame, sim_.now());
    if (!breaker_->allow(sim_.now())) {
      shed(frame, Fate::ShedBreaker);
      return;
    }
    if (static_cast<int>(feeder_q_.size()) >= feeder_depth()) {
      // Stalest-first: under a latency deadline the oldest queued frame is
      // the least likely to still be useful; evict it, admit the newcomer.
      const int stalest = feeder_q_.front();
      feeder_q_.pop_front();
      shed(stalest, Fate::ShedAdmission);
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
           sim_.now() - ledger_.offered_at(feeder_q_.front()) > deadline) {
      const int stale = feeder_q_.front();
      feeder_q_.pop_front();
      shed(stale, Fate::ShedDeadline);
    }
    if (feeder_q_.empty()) {
      feeder_busy_ = false;
      return;
    }
    feeder_busy_ = true;
    const int frame = feeder_q_.front();
    feeder_q_.pop_front();
    const RenderLoad& load = trace_.load(frame, 1, 0);
    host_->compute(host_render_cycles(cfg_.cal, load), [this, frame] {
      // The link's accept callback (window slot + credit held) paces the
      // feeder; the admission queue above absorbs the offered-rate burst.
      host_in_->send(whole_frame(frame), [this] { feeder_pump(); });
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
      note_handed_on(core);
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

  /// A stage on \p core counted one more frame. A failed run charges each
  /// stage row only its core's busy time up to here (busy_ms), not the
  /// work it then started and dropped.
  void note_handed_on(CoreId core) {
    handed_busy_[static_cast<std::size_t>(core)] = chip_->core_busy_time(core);
  }
  double busy_ms(CoreId core) const {
    return (failed_ ? handed_busy_[static_cast<std::size_t>(core)]
                    : chip_->core_busy_time(core))
        .to_ms();
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
    // Supervisor the generation never changes.
    const int gen = st.gen;
    st.recv_posted = sim_.now();
    st.in->recv([this, &st, gen](FrameToken tok, SimTime matched) {
      if (halted() || st.gen != gen) return;
      st.wait_ms.add((matched - st.recv_posted).to_ms());
      record_span(st.core, st.kind, tok.frame, "wait", st.recv_posted,
                  matched);
      const double pixels =
          static_cast<double>(tok.strip.rows) * static_cast<double>(side());
      const int scratches = scratch_count_for_frame(
          cfg_.seed, tok.frame, cfg_.cal.max_scratches);
      const StageWork w = filter_work(cfg_.cal, st.kind, pixels, scratches);
      chip_->compute(st.core, w.cycles, [this, &st, gen, w, matched,
                                         tok = std::move(tok)]() mutable {
        chip_->dram_stream(st.core, w.dram_bytes, [this, &st, gen, matched,
                                                   tok = std::move(tok)]() mutable {
          if (halted() || st.gen != gen) return;
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
            if (halted() || st.gen != gen) return;
            record_span(st.core, st.kind, frame, "process", matched,
                        sim_.now());
            note_handed_on(st.core);
            if (++st.frames_done < frames_total()) arm_filter_stage(st);
          });
        });
      });
    });
  }

  // ------------------------------------------------------ transfer stage
  //
  // One collector for every run. Frame by frame it gathers one strip from
  // each pipeline of the frame's route, in route order (RCCE receives are
  // posted one at a time), assembles the frame and sends it to the viewer.
  // Its rules:
  //  - a stale strip, of a frame before the one being collected (a lost
  //    frame's strip draining out of its pipeline), is dropped and the slot
  //    listens again;
  //  - every frame the ledger has dropped is skipped (a shed frame never
  //    reaches the chip, a lost one can never be assembled), and so is a
  //    frame shed while slot 0 already listens for it, once a strip of a
  //    later frame arrives there;
  //  - a recv superseded by a rebuild of its pipeline falls silent (its
  //    ticket is stale) and the rebuild posts a fresh one.

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
    ledger_.settle(frame, Fate::Delivered);
    while (delivered_end_ < assembled_end_ &&
           transfer_assembly_[delivered_end_].frame == frame) {
      ++delivered_end_;
    }
  }

  /// \p frame will never reach the chip. A collector that was waiting to
  /// learn its route moves on.
  void shed(int frame, Fate why) {
    ledger_.settle(frame, why);
    if (transfer_deferred_ && frame == transfer_frame_) transfer_begin_frame();
  }

  void transfer_begin_frame() {
    if (failed_) return;
    const std::vector<int>* route = nullptr;
    for (;;) {
      if (transfer_frame_ >= frames_total()) {
        // The run is over; let the event queue drain.
        if (supervisor_) supervisor_->stop();
        return;
      }
      if (ledger_.dropped(transfer_frame_)) {
        ++transfer_frame_;
        continue;
      }
      route = route_of(transfer_frame_);
      if (route == nullptr) {
        // Route unknown: the frame has not been distributed yet. The
        // producer kicks us when it starts the frame.
        transfer_deferred_ = true;
        return;
      }
      break;
    }
    transfer_route_ = *route;
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
      transfer_assemble();
      return;
    }
    const int p = transfer_route_[static_cast<std::size_t>(transfer_slot_)];
    const int ticket = ++transfer_ticket_seq_;
    transfer_ticket_ = ticket;
    transfer_waiting_ = true;
    tail_channels_[static_cast<std::size_t>(p)]->recv(
        [this, p, ticket, slot = transfer_slot_](FrameToken tok,
                                                 SimTime matched) {
          if (halted() || ticket != transfer_ticket_) return;
          if (tok.frame != transfer_frame_) {
            if (slot != 0 || tok.frame < transfer_frame_) {
              transfer_recv_slot();  // stale strip: listen again
              return;
            }
            transfer_frame_ = tok.frame;  // the frames before it were shed
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

  void transfer_assemble() {
    const CoreId core = placement_.transfer;
    const int frame = transfer_frame_;
    close_assembly(frame);
    const StageWork w = assemble_work(cfg_.cal, frame_bytes());
    chip_->compute(core, w.cycles, [this, core, w, frame] {
      chip_->dram_stream(core, w.dram_bytes, [this, frame] {
        const SimTime span_start = sim_.now();
        viewer_->send(whole_frame(frame), [this, frame, span_start] {
          record_span(placement_.transfer, StageKind::Transfer, frame,
                      "process", span_start, sim_.now());
          ++transfer_frame_;
          transfer_begin_frame();
        });
      });
    });
  }

  // ------------------------------------------------- failure handling

  /// Replay bookkeeping is the Supervisor's own: without one nothing is
  /// ever replayed, and a run pays for no index node per strip.
  void record_outstanding(int p, int frame, StripRange strip) {
    if (supervisor_) outstanding_[static_cast<std::size_t>(p)][frame] = strip;
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

    if (core == placement_.producer || core == placement_.transfer) {
      const bool producer = core == placement_.producer;
      rec.stage = !producer ? StageKind::Transfer
                  : cfg_.scenario == Scenario::HostRenderer ? StageKind::Connect
                                                            : StageKind::Render;
      recovery_.failures.push_back(rec);
      on_fault(std::string(producer ? "producer" : "transfer") + " core " +
                   std::to_string(core),
               Status(StatusCode::Unavailable,
                      producer ? "producer core failed; the frame source "
                                 "cannot be remapped"
                               : "transfer (collector/watchdog) core failed; "
                                 "the assembly point cannot be remapped"));
      return;
    }
    const auto [p, idx] = locate(core);
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
      rec.remapped_to = promote_spare(p, idx, /*retired=*/-1);
      rec.strips_held = static_cast<int>(
          outstanding_[static_cast<std::size_t>(p)].size());
      rec.recovered = true;
      ++recovery_.failures_recovered;
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

  /// Where \p core sits in the live pipeline map (it may be a spare
  /// promoted earlier): its pipeline and stage index, or pipeline -1.
  std::pair<int, std::size_t> locate(CoreId core) const {
    for (int q = 0; q < cfg_.pipelines; ++q) {
      const auto& cores = cores_now_[static_cast<std::size_t>(q)];
      for (std::size_t i = 0; i < cores.size(); ++i) {
        if (cores[i] == core) return {q, i};
      }
    }
    return {-1, 0};
  }

  /// Retire a rebuilt (or written-off) pipeline's channels: nothing blocks
  /// on them or pairs with a rebuilt chain on the same cores, and their late
  /// errors are ignored (the new chain or the ledger accounts for the data).
  void retire_pipeline_channels(int p) {
    head_channels_[static_cast<std::size_t>(p)]->retire();
    for (int f = 0; f < kFilterCount; ++f) {
      stages_[static_cast<std::size_t>(p * kFilterCount + f)]->out->retire();
    }
  }

  /// Promote the next spare into stage \p idx of pipeline \p p: rebuild
  /// the pipeline one generation up around it, re-post whatever the
  /// transfer stage and the producer were blocked on in the old chain, and
  /// re-send the strips the pipeline still held from their checkpoints.
  /// \p retired is the replaced core when it lives on (a gray
  /// drain-migration): it leaves the watch list, its detector incident
  /// closes, and the re-sends count as drains, not replays.
  CoreId promote_spare(int p, std::size_t idx, CoreId retired) {
    const std::size_t sp = static_cast<std::size_t>(p);
    const CoreId spare = spares_.front();
    spares_.erase(spares_.begin());
    ++recovery_.spares_used;
    chip_->allocate_core(spare);
    remapped_cores_.push_back(spare);
    supervisor_->watch(spare);
    if (retired >= 0) {
      // A later planned death of the idle straggler must not surface as a
      // second overlapping recovery.
      supervisor_->reset_gray(retired);
      supervisor_->unwatch(retired);
    }
    retire_pipeline_channels(p);
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
    // If the producer's distribution chain was stuck sending into the old
    // chain, resume it; the stuck strip is outstanding and will be replayed.
    if (dist_pending_pipeline_ == p) {
      dist_pending_pipeline_ = -1;
      distribute(dist_frame_, dist_slot_ + 1);
    }
    if (retired >= 0) gray_drain_[sp] = 1;
    queue_replay(p);
    return spare;
  }

  void degrade_pipeline(int p, FailureRecord& rec) {
    const std::size_t sp = static_cast<std::size_t>(p);
    rec.degraded = true;
    rec.recovered = true;
    ++recovery_.failures_recovered;
    ++recovery_.pipelines_lost;
    pipeline_alive_[sp] = 0;
    ++pipeline_gen_[sp];
    retire_pipeline_channels(p);
    // Every frame with a strip stuck in this pipeline can never be
    // assembled; so too the frame currently being distributed if its route
    // includes us. Another degraded pipeline may have lost it already.
    const auto lose = [this](int f) {
      if (ledger_.fate(f) != Fate::Lost) ledger_.settle(f, Fate::Lost);
    };
    for (const auto& [f, m] : outstanding_[sp]) lose(f);
    outstanding_[sp].clear();
    replay_active_[sp] = 0;
    gray_drain_[sp] = 0;
    if (dist_active_) {
      const std::vector<int>* route = route_of(dist_frame_);
      if (route != nullptr &&
          std::find(route->begin(), route->end(), p) != route->end()) {
        lose(dist_frame_);
      }
    }
    if (dist_pending_pipeline_ == p || dist_parked_on_ == p) {
      // The producer was sending into, or parked on, this pipeline; it is
      // dead now, so distribute skips its slot.
      dist_pending_pipeline_ = -1;
      dist_parked_on_ = -1;
      distribute(dist_frame_, dist_slot_);
    }
    // The transfer stage may be waiting on a frame that just became lost
    // (if it waits on *this* pipeline, the frame necessarily is).
    if (transfer_waiting_ && ledger_.fate(transfer_frame_) == Fate::Lost) {
      transfer_waiting_ = false;
      ++transfer_ticket_seq_;  // invalidate the posted recv
      transfer_ticket_ = 0;
      transfer_begin_frame();
    } else if (transfer_deferred_ && ledger_.dropped(transfer_frame_)) {
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
    wire_pipeline(p, "[p" + std::to_string(p) + "g" +
                         std::to_string(pipeline_gen_[sp]) + "]");
    for (int f = 0; f < kFilterCount; ++f) {
      StageState& st = *stages_[static_cast<std::size_t>(p * kFilterCount + f)];
      st.gen = pipeline_gen_[sp];
      st.frames_done = acked_[sp] + 1;
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

  /// The backlog is what pipeline \p p holds now. The producer parks on a
  /// replaying pipeline (see distribute) and a rebuilt per-pipeline
  /// renderer waits for the drain, so nothing joins it meanwhile.
  void queue_replay(int p) {
    const std::size_t sp = static_cast<std::size_t>(p);
    replay_next_[sp] = 0;
    replay_active_[sp] = 1;
    pump_replay(p, pipeline_gen_[sp]);
  }

  /// Re-send the pipeline's undelivered strips, oldest first, each paid
  /// for with a checkpoint read from the owning DRAM partition; then let
  /// the pipeline's producer carry on.
  void pump_replay(int p, int gen) {
    const std::size_t sp = static_cast<std::size_t>(p);
    if (failed_ || gen != pipeline_gen_[sp]) return;
    const auto next = outstanding_[sp].lower_bound(replay_next_[sp]);
    if (next == outstanding_[sp].end()) {
      replay_active_[sp] = 0;
      gray_drain_[sp] = 0;
      if (cfg_.scenario == Scenario::RendererPerPipeline) {
        // Backlog drained; the (possibly new) renderer resumes the frames
        // it never handed over.
        render_pipeline_frame(p, head_sent_[sp] + 1);
      } else if (dist_parked_on_ == p) {
        dist_parked_on_ = -1;
        distribute(dist_frame_, dist_slot_);
      }
      return;
    }
    const int frame = next->first;
    replay_next_[sp] = frame + 1;
    const double bytes = strip_bytes(next->second);
    if (gray_drain_[sp]) {
      // Drain-migration: the old core is alive and nothing was lost — the
      // re-send drains staged work, it does not recover from a death, so
      // it must not inflate the recovery report's replay counters.
      ++gray_.frames_drained;
    } else {
      ++recovery_.checkpoint_replays;
      ++recovery_.frames_replayed;
      recovery_.checkpoint_bytes += bytes;
    }
    chip_->dram_stream(checkpoint_reader(p), bytes, [this, p, sp, gen,
                                                       frame] {
      if (failed_ || gen != pipeline_gen_[sp]) return;
      const auto it = outstanding_[sp].find(frame);
      if (it == outstanding_[sp].end()) {
        pump_replay(p, gen);
        return;
      }
      head_channels_[sp]->send(token(frame, it->second), [this, p, gen] {
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

  /// Append an action and its (aligned) post-action sample list.
  std::size_t push_gray_action(GrayActionRecord act) {
    gray_.actions.push_back(std::move(act));
    gray_after_ms_.emplace_back();
    return gray_.actions.size() - 1;
  }

  /// Feed one service sample to the detector and to every pending action's
  /// "after" samples for this core.
  void note_service(CoreId core, double service_ms) {
    supervisor_->record_service(core, service_ms);
    if (gray_after_.empty()) return;
    const auto it = gray_after_.find(core);
    if (it == gray_after_.end()) return;
    for (const std::size_t i : it->second) {
      gray_after_ms_[i].push_back(service_ms);
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
    const auto [p, idx] = locate(core);
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
      // Drain-migrate the straggling stage onto a spare. The straggler is
      // alive, so nothing was lost: its strips in flight are re-sent from
      // the staged copies as gray drains, not checkpoint replays.
      rung = 2;
      rec.action = "migrate";
      ++gray_.migrations;
      const CoreId spare = promote_spare(p, idx, /*retired=*/core);
      rec.migrated_to = spare;
      rec.strips_held = static_cast<int>(
          outstanding_[static_cast<std::size_t>(p)].size());
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
      if (i < gray_after_ms_.size() && !gray_after_ms_[i].empty()) {
        std::vector<double>& after = gray_after_ms_[i];
        std::sort(after.begin(), after.end());
        r.gray.actions[i].after_stage_ms = quantile_sorted(after, 0.5);
      }
    }
    r.gray.frames_offered = ledger_.offered();
    r.gray.frames_delivered = ledger_.count(Fate::Delivered);
    r.gray.frames_shed = ledger_.shed() + ledger_.count(Fate::Lost);
    r.gray.post_mitigation_fps = fps_after(first_gray_flag_ms_);
  }

  /// Delivered-frame throughput from \p since_ms (unset when negative) to
  /// the last delivery; 0 when no frame arrived after it.
  double fps_after(double since_ms) const {
    if (since_ms < 0.0 || frame_done_ms_.empty()) return 0.0;
    int after = 0;
    for (const double t : frame_done_ms_) {
      if (t > since_ms) ++after;
    }
    const double span_s = (frame_done_ms_.back() - since_ms) / 1e3;
    return after > 0 && span_s > 0.0 ? after / span_s : 0.0;
  }

  // -------------------------------------------------------------- results
  RunResult collect() {
    RunResult r;
    // The one frame-ledger check. A run that did not fail (a graceful
    // failure ends early, reported below) settled every frame of the
    // walkthrough.
    const std::uint64_t offered = ledger_.offered();
    SCCPIPE_CHECK_MSG(
        failed_ ||
            (offered == static_cast<std::uint64_t>(frames_total()) &&
             offered == ledger_.count(Fate::Delivered) + ledger_.shed() +
                            ledger_.count(Fate::Lost)),
        "frame ledger leak: " << offered << " of " << frames_total()
            << " offered != " << ledger_.count(Fate::Delivered)
            << " delivered + " << ledger_.shed() << " shed + "
            << ledger_.count(Fate::Lost) << " lost");
    r.frame_done_ms = frame_done_ms_;
    if (!frame_done_ms_.empty()) {
      r.walkthrough = SimTime::ms(frame_done_ms_.back());
    }
    if (failed_) r.walkthrough = max(r.walkthrough, failed_at_);
    r.placement = placement_;

    const auto row = [&](StageKind kind, int pipeline, CoreId core,
                         const SampleSet* wait, int frames) {
      StageReport rep;
      rep.kind = kind;
      rep.pipeline = pipeline;
      rep.core = core;
      if (wait != nullptr) rep.wait_ms = wait->summary();
      rep.busy_ms = busy_ms(core);
      rep.frames = frames;
      r.stages.push_back(rep);
    };
    for (const auto& st : stages_) {
      row(st->kind, st->pipeline, st->core, &st->wait_ms, st->frames_done);
    }
    if (cfg_.scenario == Scenario::HostRenderer) {
      row(StageKind::Connect, -1, placement_.producer, &connect_wait_,
          connect_frames_);
    } else if (cfg_.scenario == Scenario::SingleRenderer) {
      // Rendered and handed to distribution.
      row(StageKind::Render, -1, placement_.producer, nullptr,
          dist_frame_ + 1);
    } else {
      for (std::size_t p = 0; p < head_sent_.size(); ++p) {
        // Rendered and handed to the pipeline's head.
        row(StageKind::Render, static_cast<int>(p),
            placement_.pipeline_cores[p][0], nullptr, head_sent_[p] + 1);
      }
    }
    row(StageKind::Transfer, -1, placement_.transfer, &transfer_wait_,
        static_cast<int>(frame_done_ms_.size()));

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
    r.sim_stats = sim_.stats();
    return r;
  }

  void collect_recovery_report(RunResult& r) {
    r.recovery = recovery_;
    if (supervisor_ == nullptr) return;
    r.recovery.heartbeats_sent = supervisor_->heartbeats_sent();
    r.recovery.heartbeat_bytes = supervisor_->heartbeat_bytes_total();
    r.recovery.frames_lost = static_cast<int>(ledger_.count(Fate::Lost));
    r.recovery.post_failure_fps = fps_after(first_detect_ms_);
  }

  /// The transport report (overload runs only). Its frame counts are read
  /// off the ledger; a frame is admitted once it leaves the feeder queue.
  void collect_transport_report(RunResult& r) {
    TransportReport& t = r.transport;
    t.enabled = overload_mode_;
    if (!overload_mode_) return;
    t.frames_offered = ledger_.offered();
    t.frames_delivered = ledger_.count(Fate::Delivered);
    t.shed_admission = ledger_.count(Fate::ShedAdmission);
    t.shed_breaker = ledger_.count(Fate::ShedBreaker);
    t.shed_deadline = ledger_.count(Fate::ShedDeadline);
    t.shed_transport = ledger_.count(Fate::ShedTransport);
    t.frames_admitted = t.frames_offered - t.shed_admission - t.shed_breaker -
                        feeder_q_.size();
    if (host_arq_ != nullptr) {
      const ReliableHostChannel& w = *host_arq_;
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
      std::sort(latency_ms_.begin(), latency_ms_.end());
      t.p50_latency_ms = quantile_sorted(latency_ms_, 0.5);
      t.p99_latency_ms = quantile_sorted(latency_ms_, 0.99);
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
      r.fault.host_retransmissions += host_wire_->retransmissions();
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
  FrameLedger ledger_;

  // One event loop for the whole run. Host-side actors (links, channels,
  // supervisor, producer) schedule on sim_ directly; the chip's fabric
  // turns its timed primitives into located event chains on the same queue.
  // The default reservation is far above the measured peak of pending
  // events (39 over the Table I grid), so a steady-state run never grows
  // the queue — walkthrough_test asserts RunResult::sim_stats.allocs == 0.
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
  /// Per core: its busy time when its stage last counted a frame.
  std::vector<SimTime> handed_busy_;

  // Fault-run state: typed wire handles for retransmission counters, and
  // the first-failure record that stops the pumps.
  ChipToViewerChannel* viewer_wire_ = nullptr;
  HostChannel* host_wire_ = nullptr;
  bool failed_ = false;
  Status first_failure_;
  std::string first_failure_where_;
  SimTime failed_at_ = SimTime::zero();
  std::vector<std::string> fault_errors_;

  // ---- overload-mode state (inert unless cfg_.overload.enabled()) ----
  bool overload_mode_ = false;
  std::unique_ptr<CircuitBreaker> breaker_;
  ReliableHostChannel* host_arq_ = nullptr;
  std::vector<CreditedSccChannel*> credited_;
  std::deque<int> feeder_q_;        // offered, not yet admitted
  bool feeder_busy_ = false;
  std::vector<double> latency_ms_;  // per delivered frame: offer -> viewer
  int max_feeder_q_ = 0;
  int connect_expected_ = 0;  // next frame id the connect stage may see

  // ---- per-pipeline state, sized for every run; it only moves when a
  //      Supervisor kills, rebuilds or re-routes a pipeline. The replay
  //      index (outstanding_) and frame_routes_ stay empty without one ----
  /// Inert fault view for a gray-only Supervisor (no fault plan at all).
  /// Declared before supervisor_, which holds a reference into it.
  std::unique_ptr<FaultInjector> idle_fault_;
  std::unique_ptr<Supervisor> supervisor_;
  RecoveryReport recovery_;
  std::vector<CoreId> spares_;          // remaining promotion candidates
  std::vector<CoreId> remapped_cores_;  // spares promoted into pipelines
  std::vector<std::vector<CoreId>> cores_now_;  // live pipeline->core map
  std::vector<int> every_pipeline_;             // 0..k-1: the full route
  std::vector<char> pipeline_alive_;
  std::vector<int> pipeline_gen_;
  std::vector<int> acked_;      // last frame delivered to transfer, per pl
  std::vector<int> head_sent_;  // last frame handed to the head, per pl
  /// Checkpoint index: the strips each pipeline was handed and has not yet
  /// delivered to the transfer stage.
  std::vector<std::map<int, StripRange>> outstanding_;
  std::vector<int> replay_next_;  // replay cursor: next frame to re-send
  std::vector<char> replay_active_;
  std::map<int, std::vector<int>> frame_routes_;
  double first_detect_ms_ = -1.0;

  // ---- gray-failure state (inert unless cfg_.gray.enabled()) ----
  GrayReport gray_;                        // live tally; finished in collect
  std::map<CoreId, int> gray_rung_;        // ladder rungs climbed, per core
  std::map<CoreId, double> gray_flag_ms_;  // first-flag instant, per core
  std::vector<std::vector<double>> gray_after_ms_;  // per action, aligned
  std::map<CoreId, std::vector<std::size_t>> gray_after_;  // core -> actions
  std::vector<char> gray_drain_;     // pipeline mid-drain (supervisor-sized)
  std::vector<double> pipe_weight_;  // strip shares (rebalance rung)
  bool gray_weighted_ = false;
  std::map<int, std::vector<StripRange>> frame_strips_;  // weighted splits
  double first_gray_flag_ms_ = -1.0;

  // Producer distribution progress (to resume a chain stalled on a dead
  // core) and the transfer collector's cursor.
  bool dist_active_ = false;
  int dist_frame_ = -1;
  int dist_slot_ = 0;
  int dist_pending_pipeline_ = -1;
  int dist_parked_on_ = -1;  // replaying pipeline the producer waits on
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
  // Each knob's documented range; 0 is every overload knob's "off".
  const OverloadConfig& ov = cfg.overload;
  const struct {
    const char* flag;
    double value;
    double min;
    const char* sentinel;
  } floors[] = {
      {"offered-fps", ov.offered_fps, 0, " (0 = closed loop)"},
      {"window", static_cast<double>(ov.window), 0, " (0 = stop-and-wait)"},
      {"queue-depth", static_cast<double>(ov.queue_depth), 0,
       " (0 = rendezvous)"},
      {"frame-deadline-ms", ov.frame_deadline.to_ms(), 0, " (0 = off)"},
      {"breaker-threshold", static_cast<double>(ov.breaker_threshold), 0,
       " (0 = off)"},
      {"breaker-cooldown-ms", ov.breaker_cooldown.to_ms(), 0, ""},
      {"rcce-retries", static_cast<double>(cfg.rcce.retry.max_attempts), 1,
       " (1 = no retries)"},
  };
  const auto num = [](double v) {
    std::ostringstream oss;
    oss << v;
    return oss.str();
  };
  for (const auto& f : floors) {
    if (f.value < f.min) {
      return invalid(std::string(f.flag) + " must be at least " + num(f.min) +
                     f.sentinel + ", got " + num(f.value));
    }
  }
  if (ov.offered_fps > 0.0 && ov.offered_fps < 1e-3) {
    return invalid("offered-fps " + num(ov.offered_fps) +
                   " is below 0.001 frames/s: its arrival times would "
                   "overrun the simulated clock");
  }
  if (cfg.rcce.retry.timeout <= SimTime::zero()) {
    return invalid("rcce-timeout-ms must be positive, got " +
                   num(cfg.rcce.retry.timeout.to_ms()));
  }
  if (Status st = validate_recovery(cfg.recovery); !st.ok()) return st;
  if (Status st = validate_gray(cfg.gray); !st.ok()) return st;
  if ((cfg.fault.host_reorder_rate > 0.0 ||
       cfg.fault.host_duplicate_rate > 0.0) &&
      ov.window == 0 && cfg.scenario == Scenario::HostRenderer) {
    return invalid("reorder=/duplicate= fates on the host feed need the "
                   "sliding-window transport; pass --window > 0");
  }
  if (cfg.overload.enabled() && cfg.scenario != Scenario::HostRenderer) {
    return invalid("overload controls govern the host feed path; only the "
                   "host-renderer scenario has one");
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
          chip.compute(0, viewer_wire.link().scc_send_cycles(frame_bytes),
                       [this, done] {
                         viewer_wire.push(frame_bytes, done);
                         viewer_wire.pop([](double) {});
                       });
          break;
        }
        default: {
          const int scratches = scratch_count_for_frame(
              cfg.seed, frame, cfg.cal.max_scratches);
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
