#pragma once

/// \file common.hpp
/// Shared infrastructure for the figure/table reproduction harnesses: the
/// paper's workload (400-frame walkthrough of the city at 400x400) built
/// once per binary, plus table helpers that print measured values next to
/// the numbers published in the paper.
///
/// Environment knobs:
///   SCCPIPE_BENCH_FRAMES — walkthrough length (default 400, the paper's;
///     at most World::kMaxFrames). Results are scaled back to 400 frames
///     so reduced runs stay comparable.
///   SCCPIPE_JOBS — worker threads (support/parallel.hpp).
///   A malformed or out-of-range value of either stops the binary with
///   exit status 2 when the world is built.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "sccpipe/core/walkthrough.hpp"
#include "sccpipe/support/svg_plot.hpp"
#include "sccpipe/support/table.hpp"

namespace sccpipe::bench {

/// The paper's workload, built once and shared read-only within a binary.
/// instance() is safe to call from executor worker threads (C++ magic
/// statics serialise the build), but run_batch() forces the build on the
/// calling thread first so workers only ever see the immutable world.
class World {
 public:
  static const World& instance();

  /// Ceiling on SCCPIPE_BENCH_FRAMES (250x the paper's walkthrough).
  static constexpr int kMaxFrames = 100000;

  const SceneBundle& scene() const { return *scene_; }
  const WorkloadTrace& trace() const { return *trace_; }
  int frames() const { return frames_; }
  /// Multiplier that scales a measured duration to the paper's 400-frame
  /// walkthrough (1.0 for full-length runs).
  double scale() const { return 400.0 / frames_; }

 private:
  World();
  int frames_;
  std::unique_ptr<SceneBundle> scene_;
  std::unique_ptr<WorkloadTrace> trace_;
};

/// Run one timed walkthrough on the shared world and return the result.
RunResult run(const RunConfig& cfg);

/// Run a batch of independent walkthroughs on the shared world across
/// exec::default_jobs() worker threads (SCCPIPE_JOBS overrides). Results
/// come back in config order, bit-identical to running serially — see
/// exec/executor.hpp for the determinism guarantee.
std::vector<RunResult> run_batch(const std::vector<RunConfig>& cfgs);

/// Walkthrough seconds, scaled to 400 frames.
double run_seconds(const RunConfig& cfg);

/// run_batch, reduced to scaled walkthrough seconds per config.
std::vector<double> run_batch_seconds(const std::vector<RunConfig>& cfgs);

/// Standard header block for a harness: which figure/table, what the paper
/// reports, what we print.
void print_banner(const std::string& experiment, const std::string& summary);

/// Run Table I rows first_row, first_row + 1, ... (core/table1.hpp) for
/// k = 1..7, one per entry of \p labels, and add "<label> (sim)" and
/// "<label> (paper)" rows to \p table and the simulated (solid) and
/// published (dashed) series to \p plot.
void add_table1_rows(TextTable& table, std::size_t first_row,
                     const std::vector<std::string>& labels, SvgPlot& plot);

/// Write an SVG figure to $SCCPIPE_FIGURE_DIR (default "figures/") and
/// print where it went.
void write_figure(const SvgPlot& plot, const std::string& name);

}  // namespace sccpipe::bench
