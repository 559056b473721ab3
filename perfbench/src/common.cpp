#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "layers.hpp"
#include "sccpipe/exec/executor.hpp"

namespace perfbench {

using namespace sccpipe;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<long>(mid));
  return 0.5 * (lo + hi);
}

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median_setup_seconds(const std::function<void()>& setup) {
  // At least three times, and more while the repeats stay cheap, so a
  // set-up of a few milliseconds still gets a steady median.
  std::vector<double> times;
  double total = 0.0;
  while (times.size() < 3 || (total < 1.0 && times.size() < 15)) {
    const auto t0 = Clock::now();
    setup();
    times.push_back(seconds_since(t0));
    total += times.back();
  }
  return median(times);
}

void run_rounds(double seconds, const std::function<void()>& round) {
  const auto t0 = Clock::now();
  do {
    round();
  } while (seconds_since(t0) < seconds);
}

std::string check_run(const RunConfig& cfg, const RunResult& r, int frames) {
  if (r.fault.failed) return "run failed: " + r.fault.failure;
  const auto delivered = static_cast<std::uint64_t>(r.frame_done_ms.size());
  if (cfg.functional && r.frames.size() != delivered) {
    return "functional run kept " + std::to_string(r.frames.size()) +
           " frames for " + std::to_string(delivered) + " deliveries";
  }
  if (cfg.overload.enabled()) {
    const TransportReport& t = r.transport;
    if (t.frames_offered != static_cast<std::uint64_t>(frames) ||
        t.frames_offered != t.frames_admitted + t.shed_admission +
                                t.shed_breaker ||
        t.frames_admitted != t.frames_delivered + t.shed_deadline +
                                 t.shed_transport ||
        t.frames_delivered != delivered) {
      return "transport ledger does not balance: offered " +
             std::to_string(t.frames_offered) + ", admitted " +
             std::to_string(t.frames_admitted) + ", delivered " +
             std::to_string(t.frames_delivered) + " (viewer saw " +
             std::to_string(delivered) + ")";
    }
  } else if (delivered != static_cast<std::uint64_t>(frames)) {
    return "delivered " + std::to_string(delivered) + " of " +
           std::to_string(frames) + " frames";
  }
  if (r.gray.enabled &&
      r.gray.frames_offered != r.gray.frames_delivered + r.gray.frames_shed) {
    return "gray ledger does not balance";
  }
  return {};
}

void set_model_metrics(const std::vector<RunResult>& runs, Report& rep) {
  double walk_s = 0.0, mesh = 0.0, max_link = 0.0, mc = 0.0, energy = 0.0;
  double host_busy = 0.0;
  std::uint64_t mc_peak = 0;
  double render_busy = 0.0, blur_busy = 0.0;
  int render_frames = 0, blur_frames = 0;
  std::vector<double> transfer_wait;
  for (const RunResult& r : runs) {
    walk_s += r.walkthrough.to_sec();
    mesh += r.fabric.mesh_total_bytes;
    max_link = std::max(max_link, r.fabric.mesh_max_link_bytes);
    for (const double b : r.fabric.mc_bulk_bytes) mc += b;
    for (const std::uint64_t p : r.fabric.mc_latency_streams_peak) {
      mc_peak = std::max(mc_peak, p);
    }
    energy += r.chip_energy_joules;
    host_busy += r.host_busy_sec;
    for (const StageReport& s : r.stages) {
      if (s.kind == StageKind::Render) {
        render_busy += s.busy_ms;
        render_frames += s.frames;
      } else if (s.kind == StageKind::Blur) {
        blur_busy += s.busy_ms;
        blur_frames += s.frames;
      } else if (s.kind == StageKind::Transfer) {
        transfer_wait.push_back(s.wait_ms.median);
      }
    }
  }
  rep.set("model.walkthrough_s", walk_s, "s");
  rep.set("noc.mesh_bytes", mesh, "B");
  rep.set("noc.max_link_bytes", max_link, "B");
  rep.set("mem.mc_bytes", mc, "B");
  rep.set("mem.mc_peak_streams", static_cast<double>(mc_peak), "count");
  rep.set("scc.chip_energy_j", energy, "J");
  rep.set("host.busy_s", host_busy, "s");
  rep.set("core.render_busy_ms_per_frame",
          render_frames > 0 ? render_busy / render_frames : 0.0, "ms");
  rep.set("core.blur_busy_ms_per_frame",
          blur_frames > 0 ? blur_busy / blur_frames : 0.0, "ms");
  rep.set("core.transfer_wait_p50_ms", median(transfer_wait), "ms");
}

void set_walkthrough_metrics(const SpanRecorder& spans,
                             const std::vector<RunResult>& runs,
                             Report& rep) {
  const std::vector<double> run_ms = spans.durations_ms("walkthrough.run");
  std::uint64_t events = 0;
  for (const RunResult& r : runs) events += r.events_dispatched;
  double total_ms = 0.0;
  for (const double d : run_ms) total_ms += d;
  rep.set("walkthrough.timed_run_ms", median(run_ms), "ms");
  rep.set("sim.events", static_cast<double>(events), "count");
  rep.set("sim.ns_per_event",
          events > 0 ? total_ms * 1e6 / static_cast<double>(events) : 0.0,
          "ns");
}

void set_scene_metrics(const SpanRecorder& spans, const SceneBundle& scene,
                       Report& rep) {
  rep.set("scene.build_ms", median(spans.durations_ms("scene.build")), "ms");
  rep.set("scene.triangles", static_cast<double>(scene.mesh().size()),
          "count");
  rep.set("scene.octree_nodes",
          static_cast<double>(scene.octree().node_count()), "count");
}

void set_trace_metrics(const SpanRecorder& spans,
                       const std::vector<double>& loads, Report& rep) {
  const std::vector<double> ms = spans.durations_ms("workload.trace_build");
  double total_ms = 0.0, total_loads = 0.0;
  for (const double d : ms) total_ms += d;
  for (const double l : loads) total_loads += l;
  rep.set("workload.trace_build_ms", median(ms), "ms");
  rep.set("workload.strip_loads", median(loads), "count");
  rep.set("workload.us_per_strip_load",
          total_loads > 0.0 ? total_ms * 1e3 / total_loads : 0.0, "us");
}

double strip_loads(int frames, int max_k) {
  return static_cast<double>(frames) * max_k * (max_k + 1) / 2.0;
}

void set_overhead_metric(const std::vector<double>& untraced_ms,
                         const std::vector<double>& traced_ms, Report& rep) {
  rep.set("trace.overhead_ms", median(traced_ms) - median(untraced_ms), "ms");
}

void set_accuracy_metrics(const Table1Accuracy& acc, Report& rep) {
  rep.set("table1_mean_err_pct", acc.mean_err_pct, "%");
  rep.set("table1_max_err_pct", acc.max_err_pct, "%");
  rep.note("Table I: mean error " + num(acc.mean_err_pct) +
           "%, max cell error " + num(acc.max_err_pct) + "%, worst row mean " +
           num(acc.worst_row_err_pct) + "% (" + acc.worst_row + "), " +
           std::to_string(acc.cells_over_pin) + " cell(s) over their pin");
}

void set_e2e_metrics(const OpLog& ops, double setup_s, double peak_rss_mb,
                     Report& rep) {
  double wall_s = 0.0;
  for (const double ms : ops.wall_ms) wall_s += ms / 1e3;
  rep.set("setup_s", setup_s, "s");
  rep.set("op_p50_ms", median(ops.wall_ms), "ms");
  rep.set("runs_per_s", ops.runs / wall_s, "1/s");
  rep.set("sim_events_per_s", ops.events / wall_s, "1/s");
  rep.set("frames_per_s", ops.frames / wall_s, "1/s");
  rep.set("peak_rss_mb", peak_rss_mb, "MB");
  rep.note("ops: " + std::to_string(ops.size()) + " timed, op p50 " +
           num(median(ops.wall_ms)) + " ms (no p90: fewer than 100 ops)");
  std::string walls = "op wall ms:";
  char buf[32];
  for (const double ms : ops.wall_ms) {
    std::snprintf(buf, sizeof buf, " %.1f", ms);
    walls += buf;
  }
  rep.note(walls);
}

PaperWorld build_paper_world(const Options& opt, int max_k,
                             SpanRecorder& spans) {
  PaperWorld w;
  {
    auto sp = spans.span("scene.build");
    w.scene = std::make_unique<SceneBundle>(CityParams{}, CameraConfig{}, 400,
                                            400);
  }
  auto sp = spans.span("workload.trace_build");
  w.trace = std::make_unique<WorkloadTrace>(
      WorkloadTrace::build(*w.scene, max_k, exec::trace_runner(opt.jobs)));
  return w;
}

void check_table1(const Options& opt, const PaperWorld& world, Report& rep) {
  const std::vector<RunResult> results =
      exec::run_grid(*world.scene, *world.trace, table1_configs(), opt.jobs);
  set_accuracy_metrics(table1_accuracy(results, rep), rep);
}

}  // namespace perfbench
