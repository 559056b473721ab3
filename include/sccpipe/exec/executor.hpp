#pragma once

/// \file executor.hpp
/// Parallel experiment execution. Every sccpipe run is an independent,
/// deterministic simulation over immutable inputs (SceneBundle /
/// WorkloadTrace are built once and never mutated), so a sweep of N
/// configurations parallelises embarrassingly: one Simulator per task, no
/// shared mutable state, results keyed by configuration index.
///
/// A run's event loop is single-threaded and carries no pixels. Only a
/// functional run fans out further: after its event loop drains it
/// composes the delivered frames with one parallel_for over (frame, strip)
/// tasks on default_jobs() threads of its own; the thread count never
/// changes a pixel. Timed runs start no thread.
///
/// Determinism guarantee: run_grid()/parallel_map() return results in
/// input order regardless of the job count or completion order, and each
/// task's computation is bit-identical to a serial run — so any consumer
/// that formats results in index order (the sweep CSV, the bench tables)
/// produces byte-identical output at --jobs 1 and --jobs N.
///
/// jobs semantics everywhere in this header: 0 = default_jobs();
/// 1 = run inline on the calling thread (no pool, no thread creation);
/// N > 1 = fixed pool of N worker threads.

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <vector>

#include "sccpipe/core/walkthrough.hpp"
#include "sccpipe/support/parallel.hpp"

namespace sccpipe::exec {

/// The worker-count default, the pool type and the parallel loops live in
/// support (core's functional composition uses them); exec forwards them
/// so there is one of each.
using sccpipe::default_jobs;
using sccpipe::parallel_for;
using sccpipe::parallel_map;
using sccpipe::ThreadPool;

/// run_grid()'s typed rejection of a configuration that fails
/// validate_run_config(): the first such config's index and its Status.
class InvalidConfigError : public std::invalid_argument {
 public:
  InvalidConfigError(std::size_t index, Status status);
  std::size_t index() const { return index_; }
  const Status& status() const { return status_; }

 private:
  std::size_t index_;
  Status status_;
};

/// Batch experiment executor: run every configuration against one shared
/// scene/trace and return results in configuration order. Every config is
/// validated first; the first invalid one throws InvalidConfigError before
/// any run starts. The scene and trace must outlive the call and are
/// shared read-only across workers; each RunConfig must carry its own
/// timeline recorder (or none) — a recorder shared between configs would
/// race.
std::vector<RunResult> run_grid(const SceneBundle& scene,
                                const WorkloadTrace& trace,
                                const std::vector<RunConfig>& configs,
                                int jobs = 0);

/// Adapter for WorkloadTrace::build's parallelism hook: runs the per-frame
/// estimation pass across \p jobs workers (0 = default_jobs()).
WorkloadTrace::ForEachFrame trace_runner(int jobs = 0);

}  // namespace sccpipe::exec
