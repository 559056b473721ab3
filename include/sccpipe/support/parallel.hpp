#pragma once

/// \file parallel.hpp
/// Host threads for every layer: the worker-count default, the fixed-size
/// thread pool, and the index-parallel loop over it. `exec` re-exports all
/// of them; `core` composes a functional run's frames with parallel_for.
///
/// jobs semantics: 0 = default_jobs(); 1 = run inline on the calling
/// thread (no pool, no thread creation); N > 1 = fixed pool of N worker
/// threads for the duration of the call.

#include <cstddef>
#include <functional>
#include <vector>

namespace sccpipe {

/// Worker count used when a caller passes jobs = 0: the SCCPIPE_JOBS
/// environment variable if set to a positive integer, otherwise
/// std::thread::hardware_concurrency() (at least 1). Read on every call.
int default_jobs();

/// Fixed-size thread pool. Threads start in the constructor and join in
/// the destructor; submit() never blocks (unbounded queue).
class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const;

  /// Enqueue one task. Tasks must not throw (wrap user work that can).
  void submit(std::function<void()> fn);

 private:
  struct Impl;
  Impl* impl_;
};

/// Run fn(0..n-1), spreading indices across \p jobs workers. Blocks until
/// every index has run. If any invocation throws, the exception from the
/// lowest index is rethrown after all tasks finish (deterministic error
/// reporting); later indices still run. Each call owns its workers, so
/// nested and concurrent calls cannot deadlock.
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

}  // namespace sccpipe
