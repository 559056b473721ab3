#pragma once

/// \file layers.hpp
/// Helpers the workloads share: the per-run output check, the op log that
/// yields the end-to-end metrics, and the per-layer metric setters.

#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "sccpipe/core/walkthrough.hpp"
#include "table1.hpp"

namespace perfbench {

/// Empty when \p r is a correct outcome of \p cfg over \p frames frames:
/// the run completed, delivered every frame (or, under the overload data
/// plane, its transport ledger balances), and its gray ledger balances.
std::string check_run(const sccpipe::RunConfig& cfg,
                      const sccpipe::RunResult& r, int frames);

/// The timed loop's op wall times and the work those ops completed.
struct OpLog {
  std::vector<double> wall_ms;
  double runs = 0.0;
  double events = 0.0;
  double frames = 0.0;

  void add(double ms, double n_runs, double n_events, double n_frames) {
    wall_ms.push_back(ms);
    runs += n_runs;
    events += n_events;
    frames += n_frames;
  }
  std::size_t size() const { return wall_ms.size(); }
};

/// op_p50_ms, the three per-second rates (each the run's total count over
/// its total op wall time), setup_s and peak_rss_mb.
void set_e2e_metrics(const OpLog& ops, double setup_s, double peak_rss_mb,
                     Report& rep);

/// Simulated (exact) statistics of the modelled chip, summed over \p runs.
void set_model_metrics(const std::vector<sccpipe::RunResult>& runs,
                       Report& rep);
/// walkthrough.timed_run_ms, sim.events, sim.ns_per_event from the
/// "walkthrough.run" spans around \p runs.
void set_walkthrough_metrics(const SpanRecorder& spans,
                             const std::vector<sccpipe::RunResult>& runs,
                             Report& rep);
void set_scene_metrics(const SpanRecorder& spans,
                       const sccpipe::SceneBundle& scene, Report& rep);
/// workload.* from the "workload.trace_build" spans; \p loads holds the
/// strip loads each of those builds estimated, in the same order.
void set_trace_metrics(const SpanRecorder& spans,
                       const std::vector<double>& loads, Report& rep);
void set_overhead_metric(const std::vector<double>& untraced_ms,
                         const std::vector<double>& traced_ms, Report& rep);
void set_accuracy_metrics(const Table1Accuracy& acc, Report& rep);

/// RenderLoad entries a trace of \p frames frames at strip counts 1..max_k
/// holds.
double strip_loads(int frames, int max_k);

/// The paper's world (default city, 400 frames at 400x400) with a trace
/// for k <= 7, built on opt.jobs workers; used by every workload's
/// Table I check.
struct PaperWorld {
  std::unique_ptr<sccpipe::SceneBundle> scene;
  std::unique_ptr<sccpipe::WorkloadTrace> trace;
};
PaperWorld build_paper_world(const Options& opt, int max_k,
                             SpanRecorder& spans);

/// Run the Table I grid on \p world and report its accuracy metrics and
/// per-cell pin check.
void check_table1(const Options& opt, const PaperWorld& world, Report& rep);

}  // namespace perfbench
