// sccpipe_sweep — batch experiment runner: sweeps the configuration grid
// (scenarios x arrangements x pipeline counts x platforms) over one shared
// scene/workload and emits a CSV, one row per run. The building block for
// custom studies beyond the fixed paper harnesses.
//
// Runs execute in parallel on --jobs worker threads (default: all host
// cores; SCCPIPE_JOBS overrides). Each run is an independent deterministic
// simulation and rows print in grid order, so the CSV is byte-identical
// at every job count.
//
//   $ sccpipe_sweep --pipelines 1-7 --frames 400 > sweep.csv
//   $ sccpipe_sweep --scenarios mcpc,n-rend --platforms scc --pipelines 2-5
//   $ sccpipe_sweep --jobs 1 > a.csv && sccpipe_sweep --jobs 8 > b.csv
//   $ cmp a.csv b.csv   # identical
//
// Unless --bench-json none, a machine-readable perf record (wall-clock,
// events/sec, jobs used, per-run timings) is written for cross-PR
// comparison.

#include <charconv>
#include <chrono>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "sccpipe/core/walkthrough.hpp"
#include "sccpipe/exec/executor.hpp"
#include "sccpipe/support/args.hpp"

#include "run_flags.hpp"

using namespace sccpipe;

namespace {

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// One pipeline count: a whole decimal in 1..StripCounts::kMax.
std::optional<int> parse_count(std::string_view s) {
  int v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (s.empty() || ec != std::errc{} || end != s.data() + s.size() || v < 1 ||
      v > StripCounts::kMax) {
    return std::nullopt;
  }
  return v;
}

/// "1-7" or "3" or "1,3,5" -> list of ints. Every item is checked before a
/// range expands; empty on any malformed, out-of-range or descending item.
std::optional<std::vector<int>> parse_range(const std::string& s) {
  std::vector<int> out;
  for (const std::string& part : split_csv(s)) {
    const std::string_view item(part);
    const auto dash = item.find('-');
    const std::optional<int> lo = parse_count(item.substr(0, dash));
    const std::optional<int> hi =
        dash == std::string_view::npos ? lo : parse_count(item.substr(dash + 1));
    if (!lo || !hi || *lo > *hi) return std::nullopt;
    for (int v = *lo; v <= *hi; ++v) out.push_back(v);
  }
  return out;
}

struct GridRun {
  RunConfig cfg;
  double wall_sec = 0.0;  // host wall-clock of this run (perf record only)
  RunResult result;
};

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void write_bench_json(const std::string& path, int jobs, double wall_sec,
                      const std::vector<GridRun>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[sweep] cannot write %s\n", path.c_str());
    return;
  }
  std::uint64_t events = 0;
  for (const GridRun& r : runs) events += r.result.events_dispatched;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"sccpipe-bench-sweep-v1\",\n");
  std::fprintf(f, "  \"tool\": \"sccpipe_sweep\",\n");
  std::fprintf(f, "  \"jobs\": %d,\n", jobs);
  std::fprintf(f, "  \"runs\": %zu,\n", runs.size());
  std::fprintf(f, "  \"wall_clock_s\": %.3f,\n", wall_sec);
  std::fprintf(f, "  \"events_dispatched\": %llu,\n",
               static_cast<unsigned long long>(events));
  std::fprintf(f, "  \"events_per_sec\": %.0f,\n",
               wall_sec > 0.0 ? static_cast<double>(events) / wall_sec : 0.0);
  std::fprintf(f, "  \"grid\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const GridRun& r = runs[i];
    std::fprintf(
        f,
        "    {\"scenario\": \"%s\", \"arrangement\": \"%s\", "
        "\"platform\": \"%s\", \"pipelines\": %d, \"walkthrough_s\": %.3f, "
        "\"events\": %llu, \"wall_s\": %.3f}%s\n",
        scenario_name(r.cfg.scenario), arrangement_name(r.cfg.arrangement),
        platform_name(r.cfg.platform), r.cfg.pipelines,
        r.result.walkthrough.to_sec(),
        static_cast<unsigned long long>(r.result.events_dispatched),
        r.wall_sec, i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[sweep] perf record written: %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add_flag("scenarios", "comma list: 1-rend,n-rend,mcpc",
                "1-rend,n-rend,mcpc");
  args.add_flag("arrangements", "comma list: unordered,ordered,flipped",
                "ordered");
  args.add_flag("platforms", "comma list: scc,cluster", "scc");
  args.add_flag("pipelines", "range, e.g. 1-7 or 2,4,6", "1-7");
  args.add_flag("frames", "walkthrough length", "400");
  args.add_flag("size", "frame side length", "400");
  args.add_flag("jobs",
                "parallel runs (0 = all cores; env SCCPIPE_JOBS overrides "
                "the default)",
                "0");
  args.add_flag("bench-json",
                "perf record path, or 'none' to disable",
                "BENCH_sweep.json");
  add_run_flags(args);
  args.add_flag("help", "show this help", "false");
  if (!args.parse(argc, argv) || args.get_bool("help")) {
    std::fprintf(stderr, "%s%s", args.error().empty() ? "" :
                 (args.error() + "\n").c_str(),
                 args.usage("sccpipe_sweep").c_str());
    return args.get_bool("help") ? 0 : 2;
  }
  if (const Status st = exec::check_jobs_env(); !st.ok()) {
    std::fprintf(stderr, "[sweep] error: %s\n", st.message().c_str());
    return 2;
  }

  // One fault, recovery, gray, retry and overload config shared by every
  // grid point (the seed keeps each run deterministic regardless of worker
  // interleaving).
  RunConfig base;
  int jobs = args.get_int("jobs");
  const int frames = args.get_int("frames");
  const int size = args.get_int("size");
  // Last read: its Status also carries the first malformed number above.
  if (const Status st = read_run_flags(args, &base); !st.ok()) {
    std::fprintf(stderr, "[sweep] error: %s\n", st.message().c_str());
    return 2;
  }
  const std::optional<std::vector<int>> pipeline_list =
      parse_range(args.get("pipelines"));
  if (!pipeline_list) {
    std::fprintf(stderr, "[sweep] error: bad --pipelines '%s': want counts "
                 "or low-high ranges within 1..%d\n",
                 args.get("pipelines").c_str(), StripCounts::kMax);
    return 2;
  }
  if (jobs < 0 || jobs > exec::kMaxJobs) {
    std::fprintf(stderr, "[sweep] error: --jobs %d is outside 0..%d (0 = all "
                 "cores)\n", jobs, exec::kMaxJobs);
    return 2;
  }
  if (jobs <= 0) jobs = exec::default_jobs();
  if (frames <= 0 || size <= 0) {
    std::fprintf(stderr, "[sweep] error: --frames and --size must be "
                 "positive, got %d and %d\n", frames, size);
    return 2;
  }

  // Every name is checked first: a typo is an error, not a skipped axis.
  std::vector<Scenario> scenarios;
  for (const std::string& sc : split_csv(args.get("scenarios"))) {
    if (!parse_scenario(sc, &scenarios.emplace_back())) {
      std::fprintf(stderr, "[sweep] error: unknown scenario '%s'\n",
                   sc.c_str());
      return 2;
    }
  }
  std::vector<Arrangement> arrangements;
  for (const std::string& ar : split_csv(args.get("arrangements"))) {
    if (!parse_arrangement(ar, &arrangements.emplace_back())) {
      std::fprintf(stderr, "[sweep] error: unknown arrangement '%s'\n",
                   ar.c_str());
      return 2;
    }
  }
  std::vector<PlatformKind> platforms;
  for (const std::string& pf : split_csv(args.get("platforms"))) {
    if (!parse_platform(pf, &platforms.emplace_back())) {
      std::fprintf(stderr, "[sweep] error: unknown platform '%s'\n",
                   pf.c_str());
      return 2;
    }
  }
  // Expand the grid up front; the runs are independent deterministic
  // simulations, so they execute in parallel and report in grid order.
  std::vector<GridRun> runs;
  for (const Scenario scenario : scenarios) {
    for (const Arrangement arrangement : arrangements) {
      for (const PlatformKind platform : platforms) {
        for (const int k : *pipeline_list) {
          GridRun gr;
          gr.cfg = base;
          gr.cfg.scenario = scenario;
          gr.cfg.arrangement = arrangement;
          gr.cfg.platform = platform;
          gr.cfg.pipelines = k;
          runs.push_back(std::move(gr));
        }
      }
    }
  }
  if (runs.empty()) {
    std::fprintf(stderr, "[sweep] error: the grid is empty (no scenario, "
                 "arrangement, platform or pipeline count)\n");
    return 2;
  }

  // Every config is checked before the scene and trace are built, and the
  // trace holds only the strip counts the grid reads.
  std::vector<RunConfig> configs;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (const Status st = validate_run_config(runs[i].cfg); !st.ok()) {
      std::fprintf(stderr, "[sweep] error: run %zu (%s, %s, %s, %d "
                   "pipelines): %s\n", i, scenario_name(runs[i].cfg.scenario),
                   arrangement_name(runs[i].cfg.arrangement),
                   platform_name(runs[i].cfg.platform), runs[i].cfg.pipelines,
                   st.to_string().c_str());
      return 2;
    }
    configs.push_back(runs[i].cfg);
  }
  const StripCounts strip_counts = strip_counts_for(configs);
  if (const Status st = validate_frame_size(size, strip_counts); !st.ok()) {
    std::fprintf(stderr, "[sweep] error: %s\n", st.to_string().c_str());
    return 2;
  }
  std::fprintf(stderr, "[sweep] scene + trace (%d frames, %dx%d, k %s)\n",
               frames, size, size, strip_counts.to_string().c_str());
  SceneBundle scene(CityParams{}, CameraConfig{}, size, frames);
  const WorkloadTrace trace =
      WorkloadTrace::build(scene, strip_counts, exec::trace_runner(jobs));

  std::fprintf(stderr, "[sweep] %zu runs on %d jobs\n", runs.size(), jobs);
  const double t0 = now_sec();
  exec::parallel_for(jobs, runs.size(), [&](std::size_t i) {
    const double rt0 = now_sec();
    runs[i].result = run_walkthrough(scene, trace, runs[i].cfg);
    runs[i].wall_sec = now_sec() - rt0;
  });
  const double wall = now_sec() - t0;

  std::printf("scenario,arrangement,platform,pipelines,walkthrough_s,"
              "mean_watts,chip_energy_j,host_busy_s,host_extra_j,"
              "blur_wait_med_ms,failures_detected,failures_recovered,"
              "frames_replayed,frames_lost,spares_used,max_detect_ms,"
              "post_failure_fps,gray_flags,gray_dvfs,gray_migrations,"
              "gray_rebalances,gray_escalations,gray_drained,gray_shed,"
              "post_mitigation_fps,%s\n",
              TransportReport::csv_header().c_str());
  for (const GridRun& gr : runs) {
    const RunResult& r = gr.result;
    const StageReport* blur = r.stage(StageKind::Blur, 0);
    std::printf("%s,%s,%s,%d,%.3f,%.2f,%.1f,%.3f,%.1f,%.2f,"
                "%llu,%llu,%llu,%llu,%d,%.3f,%.2f,"
                "%d,%d,%d,%d,%d,%d,%llu,%.3f,%s\n",
                scenario_name(gr.cfg.scenario),
                arrangement_name(gr.cfg.arrangement),
                platform_name(gr.cfg.platform), gr.cfg.pipelines,
                r.walkthrough.to_sec(), r.mean_chip_watts,
                r.chip_energy_joules, r.host_busy_sec,
                r.host_extra_energy_joules,
                blur ? blur->wait_ms.median : 0.0,
                static_cast<unsigned long long>(r.recovery.failures_detected),
                static_cast<unsigned long long>(r.recovery.failures_recovered),
                static_cast<unsigned long long>(r.recovery.frames_replayed),
                static_cast<unsigned long long>(r.recovery.frames_lost),
                r.recovery.spares_used, r.recovery.max_detection_latency_ms,
                r.recovery.post_failure_fps, r.gray.flags_raised,
                r.gray.dvfs_boosts, r.gray.migrations, r.gray.rebalances,
                r.gray.escalations, r.gray.frames_drained,
                static_cast<unsigned long long>(r.gray.frames_shed),
                r.gray.post_mitigation_fps, r.transport.csv().c_str());
  }
  std::fflush(stdout);
  std::fprintf(stderr, "[sweep] %zu runs in %.2f s wall (%d jobs)\n",
               runs.size(), wall, jobs);

  const std::string json = args.get("bench-json");
  if (!json.empty() && json != "none") {
    write_bench_json(json, jobs, wall, runs);
  }
  return 0;
}
