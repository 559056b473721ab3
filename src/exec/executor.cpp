#include "sccpipe/exec/executor.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <utility>

#include "sccpipe/support/check.hpp"

namespace sccpipe::exec {

int default_sim_jobs() {
  if (const char* env = std::getenv("SCCPIPE_SIM_JOBS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 1;
}

Status validate_sim_jobs(int sim_jobs) {
  if (sim_jobs >= 1) return Status();
  return Status(StatusCode::InvalidArgument,
                "--sim-jobs must be a positive worker count, got " +
                    std::to_string(sim_jobs));
}

// --------------------------------------------------------------- parallel_for

void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (jobs == 0) jobs = default_jobs();
  SCCPIPE_CHECK(jobs >= 1);

  std::mutex err_mu;
  std::exception_ptr first_error;
  std::size_t first_error_index = n;

  if (jobs == 1) {
    // Inline: bit-identical to the parallel path by construction, and the
    // baseline the determinism tests compare against. Same error contract
    // too: every index runs, the lowest-index failure is rethrown.
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }

  // Work-stealing-free dynamic schedule: workers race on an atomic index,
  // so long and short tasks balance without any per-task queue traffic.
  std::atomic<std::size_t> next{0};

  const auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (i < first_error_index) {
          first_error_index = i;
          first_error = std::current_exception();
        }
      }
    }
  };

  {
    const int workers =
        static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(jobs), n));
    ThreadPool pool(workers);
    std::mutex done_mu;
    std::condition_variable done_cv;
    int remaining = workers;
    for (int w = 0; w < workers; ++w) {
      pool.submit([&] {
        drain();
        std::lock_guard<std::mutex> lock(done_mu);
        if (--remaining == 0) done_cv.notify_one();
      });
    }
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return remaining == 0; });
  }
  if (first_error) std::rethrow_exception(first_error);
}

// ------------------------------------------------------------------- run_grid

InvalidConfigError::InvalidConfigError(std::size_t index, Status status)
    : std::invalid_argument("run_grid config " + std::to_string(index) +
                            ": " + status.to_string()),
      index_(index),
      status_(std::move(status)) {}

std::vector<RunResult> run_grid(const SceneBundle& scene,
                                const WorkloadTrace& trace,
                                const std::vector<RunConfig>& configs,
                                int jobs) {
  for (std::size_t i = 0; i < configs.size(); ++i) {
    Status valid = validate_run_config(configs[i]);
    if (!valid.ok()) throw InvalidConfigError(i, std::move(valid));
  }
  std::vector<RunResult> results(configs.size());
  parallel_for(jobs, configs.size(), [&](std::size_t i) {
    results[i] = run_walkthrough(scene, trace, configs[i]);
  });
  return results;
}

WorkloadTrace::ForEachFrame trace_runner(int jobs) {
  return [jobs](std::size_t n, const std::function<void(std::size_t)>& fn) {
    parallel_for(jobs, n, fn);
  };
}

}  // namespace sccpipe::exec
