// table1_grid and chaos_grid: whole experiment grids through exec::run_grid
// on the paper's world, built once in set-up. Event dispatch, the modelled
// chip layers and the executor do all the timed work; the trace build sits
// in set-up and no pixels are drawn.

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "digest.hpp"
#include "layers.hpp"
#include "sccpipe/exec/executor.hpp"
#include "sccpipe/support/rng.hpp"

namespace perfbench {

using namespace sccpipe;

namespace {

constexpr int kFrames = 400;

std::string describe(const RunConfig& c) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s %s %s k=%d fault_seed=%llu drop=%.2f host_drop=%.2f "
                "core_fail=%zu slow=%zu offered_fps=%.3f gray=%s",
                scenario_name(c.scenario), arrangement_name(c.arrangement),
                c.platform == PlatformKind::Scc ? "scc" : "cluster",
                c.pipelines, static_cast<unsigned long long>(c.fault.seed),
                c.fault.rcce_drop_rate, c.fault.host_drop_rate,
                c.fault.core_failures.size(), c.fault.slow_cores.size(),
                c.overload.offered_fps,
                c.gray.enabled() ? gray_policy_name(c.gray.policy) : "-");
  std::string s = buf;
  for (const CoreFailure& f : c.fault.core_failures) {
    s += " fail:" + std::to_string(f.core) + "@" + std::to_string(f.at.to_ns());
  }
  for (const SlowCore& f : c.fault.slow_cores) {
    s += " slow:" + std::to_string(f.core) + "x" + num(f.factor) + "@" +
         std::to_string(f.at.to_ns());
  }
  return s;
}

/// Fault, recovery, overload and gray cells drawn from the grids of
/// bench/ablation_fault_tolerance, ablation_overload and ablation_gray,
/// every cell one that completes. The seed picks the fault-schedule seed
/// and jitters the failure and onset instants; the cell structure (and so
/// the amount of work) is the same for every seed.
std::vector<RunConfig> chaos_configs(const SceneBundle& scene,
                                     const WorkloadTrace& trace,
                                     std::uint64_t seed) {
  Rng rng(seed ^ 0xc4a05c4a05ull);
  const std::uint64_t fault_seed = 1 + rng.below(1u << 30);
  std::vector<RunConfig> cfgs;

  RunConfig base;
  base.scenario = Scenario::HostRenderer;
  base.pipelines = 4;
  base.fault.seed = fault_seed;
  const RunResult clean = run_walkthrough(scene, trace, base);
  const double clean_ms = clean.walkthrough.to_ms();

  // Message loss on the RCCE path under a retry budget.
  for (const double rate : {0.01, 0.02, 0.05, 0.10, 0.20}) {
    RunConfig cfg = base;
    cfg.rcce.retry.max_attempts = 12;
    cfg.rcce.retry.timeout = SimTime::ms(5);
    cfg.rcce.retry.backoff = SimTime::ms(1);
    cfg.fault.rcce_drop_rate = rate;
    cfgs.push_back(cfg);
  }

  // Fail-stop core deaths: heartbeat detection, remap and replay.
  for (const double frac : {0.25, 0.6}) {
    const double at = frac + rng.uniform(-0.05, 0.05);
    for (int n = 1; n <= 4; ++n) {
      RunConfig cfg = base;
      for (int i = 0; i < n; ++i) {
        const auto p = static_cast<std::size_t>(i);
        cfg.fault.core_failures.push_back(
            {clean.placement.pipeline_cores[p][(p + 1) % 5],
             SimTime::ms(clean_ms * at * (1.0 + 0.05 * i))});
      }
      cfgs.push_back(cfg);
    }
  }

  // Open-loop overload behind the reliable host transport.
  RunConfig obase = base;
  obase.rcce.retry.max_attempts = 8;
  obase.rcce.retry.timeout = SimTime::ms(50);
  obase.rcce.retry.backoff = SimTime::ms(1);
  obase.overload.window = 8;
  obase.overload.queue_depth = 4;
  const RunResult closed = run_walkthrough(scene, trace, obase);
  const double capacity_fps = kFrames / closed.walkthrough.to_sec();
  const SimTime deadline =
      SimTime::sec(2.0 * (obase.overload.queue_depth + 1) / capacity_fps);
  for (const double mult : {0.5, 1.0, 2.0, 4.0}) {
    for (const bool lossy : {false, true}) {
      RunConfig cfg = obase;
      cfg.overload.offered_fps = mult * capacity_fps;
      cfg.overload.frame_deadline = deadline;
      if (lossy) {
        const Status st = cfg.fault.parse(
            "host-drop=0.10;reorder=0.05:2ms;duplicate=0.05:1ms");
        if (!st.ok()) throw std::runtime_error(st.to_string());
        cfg.fault.seed = fault_seed;
      }
      cfgs.push_back(cfg);
    }
  }

  // One fail-slow stage core against each rung of the mitigation ladder.
  const int victim = clean.placement.pipeline_cores[1][2];
  const SimTime onset =
      SimTime::ms(clean_ms * (0.25 + rng.uniform(-0.05, 0.05)));
  for (const double slow : {2.0, 4.0, 8.0}) {
    for (const GrayPolicy policy : {GrayPolicy::Off, GrayPolicy::Dvfs,
                                    GrayPolicy::Migrate,
                                    GrayPolicy::Rebalance}) {
      RunConfig cfg = base;
      cfg.fault.slow_cores.push_back(SlowCore{victim, slow, onset});
      cfg.gray.detect_factor = 1.3;
      cfg.gray.detect_windows = 3;
      cfg.gray.policy = policy;
      cfgs.push_back(cfg);
    }
  }
  return cfgs;
}

void set_chaos_metrics(const std::vector<RunConfig>& cfgs,
                       const std::vector<RunResult>& rs,
                       const SpanRecorder& spans, Report& rep) {
  double rcce_retx = 0.0, host_retx = 0.0, max_detect = 0.0, replayed = 0.0;
  double offered = 0.0, delivered = 0.0, gray_flags = 0.0, events = 0.0;
  std::vector<double> p99, post_fps;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const RunResult& r = rs[i];
    rcce_retx += static_cast<double>(r.fault.rcce_retransmissions);
    host_retx += static_cast<double>(r.fault.host_retransmissions);
    max_detect = std::max(max_detect, r.recovery.max_detection_latency_ms);
    replayed += r.recovery.frames_replayed;
    if (cfgs[i].overload.enabled()) {
      offered += static_cast<double>(r.transport.frames_offered);
      delivered += static_cast<double>(r.transport.frames_delivered);
      p99.push_back(r.transport.p99_latency_ms);
    }
    if (r.gray.enabled) {
      gray_flags += r.gray.flags_raised;
      if (r.gray.post_mitigation_fps > 0.0) {
        post_fps.push_back(r.gray.post_mitigation_fps);
      }
    }
    events += static_cast<double>(r.events_dispatched);
  }
  rep.set("fault.rcce_retransmissions", rcce_retx, "count");
  rep.set("fault.host_retransmissions", host_retx, "count");
  rep.set("recovery.max_detect_ms", max_detect, "ms");
  rep.set("recovery.frames_replayed", replayed, "count");
  rep.set("overload.delivered_ratio", offered > 0 ? delivered / offered : 0.0,
          "ratio");
  rep.set("overload.p99_latency_ms", median(p99), "ms");
  rep.set("gray.flags", gray_flags, "count");
  rep.set("gray.post_mitigation_fps", median(post_fps), "1/s");
  rep.set("walkthrough.chaos_run_ms",
          median(spans.durations_ms("walkthrough.run")), "ms");
  rep.set("sim.events_per_chaos_run",
          rs.empty() ? 0.0 : events / static_cast<double>(rs.size()), "count");
}

enum class GridKind { Table1, Chaos };

Report run_grid_workload(const Options& opt, SpanRecorder& spans,
                         GridKind kind) {
  Report rep;
  PaperWorld world;
  std::vector<RunConfig> cfgs;
  const double setup_s = median_setup_seconds([&] {
    world = build_paper_world(opt, 8, spans);
    cfgs = kind == GridKind::Table1
               ? table1_configs()
               : chaos_configs(*world.scene, *world.trace, opt.seed);
  });
  if (opt.plan_only) {
    for (const RunConfig& c : cfgs) rep.note("config " + describe(c));
    return rep;
  }

  std::vector<RunResult> first;  // the reference op: digest and layer metrics
  std::string first_digest;
  bool table1_ok = true;
  OpLog ops;
  std::vector<double> untraced_ms, traced_ms;
  const auto op = [&] {
    const bool traced = spans.enabled();
    const auto t0 = Clock::now();
    std::vector<RunResult> rs;
    {
      auto sp = spans.span("exec.run_grid");
      rs = exec::run_grid(*world.scene, *world.trace, cfgs, opt.jobs);
    }
    const double ms = seconds_since(t0) * 1e3;
    double events = 0.0, frames = 0.0;
    for (const RunResult& r : rs) {
      events += static_cast<double>(r.events_dispatched);
      frames += static_cast<double>(r.frame_done_ms.size());
    }
    ops.add(ms, static_cast<double>(rs.size()), events, frames);
    (traced ? traced_ms : untraced_ms).push_back(ms);
    ++rep.attempted;

    bool ok = true;
    for (std::size_t i = 0; i < rs.size(); ++i) {
      const std::string why = check_run(cfgs[i], rs[i], kFrames);
      if (!why.empty()) {
        rep.fail_check(describe(cfgs[i]) + ": " + why);
        ok = false;
      }
    }
    Digest d;
    d.runs(rs);
    if (opt.inject_failure && rep.attempted == 1) {
      rep.fail_check("injected check failure");
      ok = false;
    }
    if (first.empty()) {
      first_digest = d.hex();
      if (kind == GridKind::Table1) {
        // Table I accuracy comes straight from the op's own results; later
        // ops must repeat them exactly, so they share the verdict.
        const Table1Accuracy acc = table1_accuracy(rs, rep);
        set_accuracy_metrics(acc, rep);
        table1_ok = acc.cells_over_pin == 0;
      }
      first = std::move(rs);
    } else if (d.hex() != first_digest) {
      rep.fail_check("grid digest " + d.hex() +
                     " differs from the first op's " + first_digest);
      ok = false;
    }
    if (!ok || !table1_ok) ++rep.failed;
  };

  const bool traced = spans.enabled();
  if (traced) {
    spans.set_enabled(false);
    run_rounds(opt.seconds / 2, op);
    spans.set_enabled(true);
    run_rounds(opt.seconds / 2, op);
  } else {
    run_rounds(opt.seconds, op);
  }
  set_e2e_metrics(ops, setup_s, self_peak_rss_mb(), rep);
  rep.digest = first_digest;

  if (kind == GridKind::Chaos) {
    // Guard the model on every workload, not only on table1_grid.
    check_table1(opt, world, rep);
  }

  if (traced) {
    // Serial pass: the same configs one by one, to split the grid's wall
    // time into per-run walkthrough time and executor efficiency.
    std::vector<RunResult> serial;
    const auto t0 = Clock::now();
    for (const RunConfig& c : cfgs) {
      auto sp = spans.span("walkthrough.run");
      serial.push_back(run_walkthrough(*world.scene, *world.trace, c));
    }
    const double serial_s = seconds_since(t0);
    Digest d;
    d.runs(serial);
    if (d.hex() != first_digest) {
      rep.fail_check("serial pass digest differs from run_grid's");
    }
    const double grid_s = median(traced_ms) / 1e3;
    rep.set("exec.jobs", opt.jobs, "count");
    rep.set("exec.grid_wall_s", grid_s, "s");
    rep.set("exec.serial_sum_s", serial_s, "s");
    rep.set("exec.efficiency", serial_s / (opt.jobs * grid_s), "ratio");
    set_walkthrough_metrics(spans, serial, rep);
    set_scene_metrics(spans, *world.scene, rep);
    // Every set-up repeat built the same trace.
    const std::size_t builds =
        spans.durations_ms("workload.trace_build").size();
    set_trace_metrics(
        spans, std::vector<double>(builds, strip_loads(kFrames, 8)), rep);
    set_model_metrics(first, rep);
    set_overhead_metric(untraced_ms, traced_ms, rep);
    if (kind == GridKind::Chaos) set_chaos_metrics(cfgs, first, spans, rep);
  }
  return rep;
}

}  // namespace

Report run_table1_grid(const Options& opt, SpanRecorder& spans) {
  return run_grid_workload(opt, spans, GridKind::Table1);
}

Report run_chaos_grid(const Options& opt, SpanRecorder& spans) {
  return run_grid_workload(opt, spans, GridKind::Chaos);
}

}  // namespace perfbench
