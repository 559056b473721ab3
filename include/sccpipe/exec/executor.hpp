#pragma once

/// \file executor.hpp
/// Parallel experiment execution. Every sccpipe run is an independent,
/// deterministic simulation over immutable inputs (SceneBundle /
/// WorkloadTrace are built once and never mutated), so a sweep of N
/// configurations parallelises embarrassingly: one Simulator per task, no
/// shared mutable state, results keyed by configuration index.
///
/// A run's event loop is single-threaded. Only a functional run's pixel
/// kernels (render_strip, sepia, blur, flicker) fan out further: they split
/// their rows into fixed bands on the process-wide band pool of
/// support/parallel.hpp, which every concurrent run shares and which never
/// changes a pixel. Timed runs never start that pool.
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

/// The worker-count default and the pool type live in support (the pixel
/// kernels below core share them); exec forwards them so there is one of
/// each.
using sccpipe::default_jobs;
using sccpipe::ThreadPool;

/// Run fn(0..n-1), spreading indices across \p jobs workers. Blocks until
/// every index has run. If any invocation throws, the exception from the
/// lowest index is rethrown after all tasks finish (deterministic error
/// reporting); later indices still run.
void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

/// Map fn over [0, n) into a vector ordered by index.
template <typename T>
std::vector<T> parallel_map(int jobs, std::size_t n,
                            const std::function<T(std::size_t)>& fn) {
  std::vector<T> out(n);
  parallel_for(jobs, n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

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
