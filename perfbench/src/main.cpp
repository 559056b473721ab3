// perfbench_runner — runs one benchmark workload and prints its report.
//
//   perfbench_runner --workload table1_grid --seed 3 --seconds 10 --trace 0
//       --cli .bench_build/perfbench/bin/sccpipe --work-dir .bench_build/work
//
// Human-readable lines come first; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones (plus the span file,
// the per-layer self times, the tracing overhead and the digest). Exit
// code 0 only when every output check passed.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

using namespace perfbench;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (perfbench/test_perfbench.py checks it).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_p50_ms", "ms"},
    {"runs_per_s", "1/s"},
    {"sim_events_per_s", "1/s"},
    {"frames_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"table1_mean_err_pct", "%"},
    {"table1_max_err_pct", "%"},
};

constexpr MetricSpec kPerLayer[] = {
    {"scene.build_ms", "ms"},
    {"scene.triangles", "count"},
    {"scene.octree_nodes", "count"},
    {"workload.trace_build_ms", "ms"},
    {"workload.strip_loads", "count"},
    {"workload.us_per_strip_load", "us"},
    {"walkthrough.timed_run_ms", "ms"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"exec.jobs", "count"},
    {"exec.grid_wall_s", "s"},
    {"exec.serial_sum_s", "s"},
    {"exec.efficiency", "ratio"},
    {"fault.rcce_retransmissions", "count"},
    {"fault.host_retransmissions", "count"},
    {"recovery.max_detect_ms", "ms"},
    {"recovery.frames_replayed", "count"},
    {"overload.delivered_ratio", "ratio"},
    {"overload.p99_latency_ms", "ms"},
    {"gray.flags", "count"},
    {"gray.post_mitigation_fps", "1/s"},
    {"walkthrough.chaos_run_ms", "ms"},
    {"sim.events_per_chaos_run", "count"},
    {"model.walkthrough_s", "s"},
    {"noc.mesh_bytes", "B"},
    {"noc.max_link_bytes", "B"},
    {"mem.mc_bytes", "B"},
    {"mem.mc_peak_streams", "count"},
    {"scc.chip_energy_j", "J"},
    {"host.busy_s", "s"},
    {"core.render_busy_ms_per_frame", "ms"},
    {"core.blur_busy_ms_per_frame", "ms"},
    {"core.transfer_wait_p50_ms", "ms"},
    {"render.strip_ms", "ms"},
    {"render.mpix_per_s", "Mpix/s"},
    {"render.triangles_transformed", "count"},
    {"render.pixels_filled", "count"},
    {"filters.sepia_ms", "ms"},
    {"filters.blur_ms", "ms"},
    {"filters.scratch_ms", "ms"},
    {"filters.flicker_ms", "ms"},
    {"filters.vflip_ms", "ms"},
    {"walkthrough.functional_frame_ms", "ms"},
    {"walkthrough.functional_other_ms", "ms"},
    {"cli.process_ms", "ms"},
    {"cli.overhead_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_runner --workload "
               "cli_cold|table1_grid|chaos_grid|functional_film --seed N "
               "--seconds S --trace 0|1 --cli PATH --work-dir DIR [--plan] "
               "[--inject-failure]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      opt->workload = value();
    } else if (a == "--seed") {
      opt->seed = std::stoull(value());
    } else if (a == "--seconds") {
      opt->seconds = std::stod(value());
    } else if (a == "--trace") {
      opt->trace = std::stoi(value()) != 0;
    } else if (a == "--cli") {
      opt->cli = value();
    } else if (a == "--work-dir") {
      opt->work_dir = value();
    } else if (a == "--plan") {
      opt->plan_only = true;
    } else if (a == "--inject-failure") {
      opt->inject_failure = true;
    } else {
      throw std::invalid_argument("unknown flag " + a);
    }
  }
  return !opt->workload.empty() && opt->seconds > 0 && !opt->work_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, &opt)) return usage("missing or invalid flags");
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  opt.jobs = std::min(4, nproc);
  std::filesystem::create_directories(opt.work_dir);

  SpanRecorder spans(opt.trace);
  Report rep;
  try {
    if (opt.workload == "cli_cold") {
      rep = run_cli_cold(opt, spans);
    } else if (opt.workload == "table1_grid") {
      rep = run_table1_grid(opt, spans);
    } else if (opt.workload == "chaos_grid") {
      rep = run_chaos_grid(opt, spans);
    } else if (opt.workload == "functional_film") {
      rep = run_functional_film(opt, spans);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  // A failed check outside any op (say, Table I drift) still fails the run.
  if (rep.check_failures > 0) {
    rep.failed = std::max<std::int64_t>(rep.failed, 1);
  }
  std::printf("workload %s seed %llu: nproc %d, jobs %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              nproc, opt.jobs);
  for (const std::string& line : rep.notes) std::printf("%s\n", line.c_str());
  if (opt.plan_only) return 0;
  std::printf("digest %s %s\n", opt.workload.c_str(), rep.digest.c_str());
  const double error_rate =
      static_cast<double>(rep.failed) /
      static_cast<double>(std::max<std::int64_t>(1, rep.attempted));
  std::printf("error_rate %s (%lld failed of %lld ops)\n",
              num(error_rate).c_str(),
              static_cast<long long>(rep.failed),
              static_cast<long long>(rep.attempted));
  if (opt.trace) {
    const std::string path = opt.work_dir + "/trace-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    spans.write_chrome_json(path);
    std::printf("spans: %zu written to %s\nper-layer self time:\n",
                spans.size(), path.c_str());
    for (const std::string& line : spans.self_time_summary()) {
      std::printf("  %s\n", line.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += rep.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  bool first = true;
  // Per-layer metrics a workload does not exercise read 0; every
  // end-to-end metric must have been measured.
  const auto emit = [&](const MetricSpec& spec, bool required) {
    const auto it = rep.metrics.find(spec.name);
    if (it == rep.metrics.end() ? required : it->second.unit != spec.unit) {
      std::fprintf(stderr, "error: %s: metric %s missing or not in %s\n",
                   opt.workload.c_str(), spec.name, spec.unit);
      return false;
    }
    json += first ? "\"" : ", \"";
    first = false;
    json += spec.name;
    json += "\": {\"value\": ";
    json += num(it == rep.metrics.end() ? 0.0 : it->second.value);
    json += ", \"unit\": \"";
    json += spec.unit;
    json += "\"}";
    return true;
  };
  for (const MetricSpec& m : kPerLayer) {
    if (opt.trace && !emit(m, false)) return 1;
  }
  for (const MetricSpec& m : kEndToEnd) {
    if (!opt.trace && !emit(m, true)) return 1;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return rep.failed == 0 ? 0 : 1;
}
