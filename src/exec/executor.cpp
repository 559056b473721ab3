#include "sccpipe/exec/executor.hpp"

#include <string>
#include <utility>

namespace sccpipe::exec {

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
