#include "sccpipe/support/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "sccpipe/support/args.hpp"
#include "sccpipe/support/check.hpp"

namespace sccpipe {

Status check_jobs_env() {
  int jobs = 0;
  return env_count("SCCPIPE_JOBS", kMaxJobs, &jobs);
}

int default_jobs() {
  int jobs = 0;
  if (env_count("SCCPIPE_JOBS", kMaxJobs, &jobs).ok() && jobs > 0) {
    return jobs;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

// ----------------------------------------------------------------- ThreadPool

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::function<void()>> queue;
  std::vector<std::thread> workers;
  bool stopping = false;

  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return stopping || !queue.empty(); });
        if (queue.empty()) return;  // stopping and drained
        task = std::move(queue.front());
        queue.pop_front();
      }
      task();
    }
  }
};

ThreadPool::ThreadPool(int threads) : impl_(new Impl) {
  SCCPIPE_CHECK(threads >= 1);
  impl_->workers.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

int ThreadPool::size() const {
  return static_cast<int>(impl_->workers.size());
}

void ThreadPool::submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    SCCPIPE_CHECK_MSG(!impl_->stopping, "submit() after shutdown");
    impl_->queue.push_back(std::move(fn));
  }
  impl_->cv.notify_one();
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

}  // namespace sccpipe
