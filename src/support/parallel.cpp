#include "sccpipe/support/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sccpipe/support/check.hpp"

namespace sccpipe {

int default_jobs() {
  if (const char* env = std::getenv("SCCPIPE_JOBS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
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

// -------------------------------------------------------------- band pool

namespace {

/// One pause of a polling loop: keeps the core busy-waiting without
/// hammering the cache line being polled.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Polls \p ready until it holds or \p budget has passed; returns its last
/// value.
template <class Ready>
bool spin_until(const Ready& ready, std::chrono::microseconds budget) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  for (;;) {
    for (int i = 0; i < 64; ++i) {
      if (ready()) return true;
      cpu_relax();
    }
    if (std::chrono::steady_clock::now() >= deadline) return ready();
  }
}

/// How long an idle helper polls for the next call before it sleeps. A
/// functional frame issues its band calls a fraction of a millisecond
/// apart, so helpers stay awake through a film and pick up each call at
/// once instead of paying a thread wake-up per call; between films they
/// sleep.
constexpr std::chrono::microseconds kHelperSpin{2000};

/// How long a for_each_band caller that ran out of bands polls for the
/// helpers' last bands before it sleeps.
constexpr std::chrono::microseconds kCallerSpin{2000};

/// A replicated band claimed this long ago, or twice the mean run time of
/// the call's finished bands if that is longer, is run again by the caller.
constexpr std::int64_t kMinPatienceNs = 50'000;

constexpr unsigned char kOpen = 0;       // no run has committed
constexpr unsigned char kCommitted = 1;  // one run has won the band

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One for_each_band or for_each_row_band_replicated call. Helpers hold it
/// by shared_ptr, so a helper that joins after the last index was claimed
/// finds nothing to do and touches nothing but this object — the caller
/// waits only for bands that were claimed, never for helpers, which is
/// what keeps nested and concurrent calls deadlock-free. A replicated call
/// waits not even for those: it reruns a band whose claimant lags.
struct BandJob {
  using Run = std::function<void(std::size_t, BandCommit&)>;

  BandJob(std::size_t n, Run run, bool replicated)
      : n(n),
        run_fn(std::move(run)),
        replicated(replicated),
        left(n),
        state(new std::atomic<unsigned char>[n]),
        claimed_at(new std::atomic<std::int64_t>[n]) {
    for (std::size_t i = 0; i < n; ++i) {
      state[i].store(kOpen, std::memory_order_relaxed);
      claimed_at[i].store(0, std::memory_order_relaxed);
    }
  }

  const std::size_t n;
  const Run run_fn;
  const bool replicated;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> left;  // bands without a finished winning run
  std::unique_ptr<std::atomic<unsigned char>[]> state;
  std::unique_ptr<std::atomic<std::int64_t>[]> claimed_at;  // now_ns()
  std::atomic<std::int64_t> run_ns{0};  // summed time of finished runs
  std::atomic<std::size_t> runs{0};

  std::mutex error_mu;
  std::exception_ptr error;
  std::size_t error_index = 0;

  bool has_unclaimed() const {
    return next.load(std::memory_order_relaxed) < n;
  }

  /// One run of band \p i; finishes the band if this run won its commit.
  void run(std::size_t i) {
    BandCommit commit(state[i]);
    try {
      run_fn(i, commit);
    } catch (...) {
      if (commit.commit()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error || i < error_index) {
          error = std::current_exception();
          error_index = i;
        }
      }
    }
    if (!commit.commit()) return;
    if (left.fetch_sub(1, std::memory_order_acq_rel) == 1) left.notify_all();
  }

  void drain() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      if (!replicated) {
        run(i);
        continue;
      }
      const std::int64_t t0 = now_ns();
      claimed_at[i].store(t0, std::memory_order_relaxed);
      run(i);
      run_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
      runs.fetch_add(1, std::memory_order_relaxed);
    }
  }

  bool finished() const { return left.load(std::memory_order_acquire) == 0; }

  /// Called by the caller once every index is claimed.
  void wait() {
    if (replicated) {
      rerun_laggards();
      return;
    }
    if (spin_until([&] { return finished(); }, kCallerSpin)) return;
    for (std::size_t l; (l = left.load(std::memory_order_acquire)) != 0;) {
      left.wait(l, std::memory_order_acquire);
    }
  }

 private:
  /// Polls until every band is done, rerunning (once each) bands whose
  /// first run has gone on past the patience. The rerun never waits for
  /// anything, so the call ends within about one band time of the last
  /// band any running thread could finish.
  void rerun_laggards() {
    std::vector<bool> rerun(n, false);
    // A claimant preempted between claiming a band and stamping it counts
    // from here.
    const std::int64_t waiting_since = now_ns();
    for (;;) {
      for (int spin = 0; spin < 64; ++spin) {
        if (finished()) return;
        cpu_relax();
      }
      const std::size_t done_runs = runs.load(std::memory_order_relaxed);
      const std::int64_t mean =
          done_runs == 0
              ? 0
              : run_ns.load(std::memory_order_relaxed) /
                    static_cast<std::int64_t>(done_runs);
      const std::int64_t patience = std::max(kMinPatienceNs, 2 * mean);
      const std::int64_t now = now_ns();
      for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t stamp = claimed_at[i].load(std::memory_order_relaxed);
        const std::int64_t since = stamp != 0 ? stamp : waiting_since;
        if (rerun[i] || now - since < patience ||
            state[i].load(std::memory_order_acquire) != kOpen) {
          continue;
        }
        rerun[i] = true;
        run(i);
        break;
      }
    }
  }
};

/// The process-wide helpers. Each runs help() on a ThreadPool thread for
/// the pool's lifetime: join any published call that still has unclaimed
/// bands, else poll for a new one for kHelperSpin, else sleep until one is
/// published.
class BandPool {
 public:
  explicit BandPool(int helpers) : threads_(helpers) {
    for (int i = 0; i < helpers; ++i) threads_.submit([this] { help(); });
  }
  BandPool(const BandPool&) = delete;
  BandPool& operator=(const BandPool&) = delete;

  ~BandPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    posted_.fetch_add(1, std::memory_order_seq_cst);
    posted_.notify_all();
    // threads_ joins once every help() has returned.
  }

  /// Runs \p job's bands on the caller and any free helpers; returns once
  /// every band is done.
  void run(const std::shared_ptr<BandJob>& job) {
    publish(job);
    job->drain();
    retire(job.get());
    job->wait();
  }

 private:
  void publish(std::shared_ptr<BandJob> job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_.push_back(std::move(job));
    }
    posted_.fetch_add(1, std::memory_order_seq_cst);
    if (sleeping_.load(std::memory_order_seq_cst) > 0) posted_.notify_all();
  }

  /// Unlists \p job once its caller has found no unclaimed band left.
  void retire(const BandJob* job) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it =
        std::find_if(open_.begin(), open_.end(),
                     [&](const auto& j) { return j.get() == job; });
    if (it != open_.end()) open_.erase(it);
  }

  void help() {
    for (;;) {
      const std::uint32_t seen = posted_.load(std::memory_order_seq_cst);
      std::shared_ptr<BandJob> job;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_) return;
        for (const auto& j : open_) {
          if (j->has_unclaimed()) {
            job = j;
            break;
          }
        }
      }
      if (job) {
        job->drain();
        continue;
      }
      const auto posted = [&] {
        return posted_.load(std::memory_order_acquire) != seen;
      };
      if (spin_until(posted, kHelperSpin)) continue;
      // Announce the sleep before re-reading posted_ inside wait(); publish()
      // bumps posted_ before reading sleeping_, so one of the two sees the
      // other and no wake-up is lost.
      sleeping_.fetch_add(1, std::memory_order_seq_cst);
      posted_.wait(seen, std::memory_order_seq_cst);
      sleeping_.fetch_sub(1, std::memory_order_seq_cst);
    }
  }

  std::mutex mu_;
  std::vector<std::shared_ptr<BandJob>> open_;  // published, not yet retired
  bool stopping_ = false;
  std::atomic<std::uint32_t> posted_{0};  // bumped by every publish and stop
  std::atomic<int> sleeping_{0};          // helpers blocked in posted_.wait
  ThreadPool threads_;                    // last: joins before the rest dies
};

/// default_jobs() - 1 helpers, created at the first multi-band call, or
/// none at all when that is zero.
BandPool* band_pool() {
  static const std::unique_ptr<BandPool> pool = [] {
    const int helpers = default_jobs() - 1;
    return helpers > 0 ? std::make_unique<BandPool>(helpers) : nullptr;
  }();
  return pool.get();
}

}  // namespace

bool BandCommit::commit() {
  if (!asked_) {
    asked_ = true;
    unsigned char open = kOpen;
    won_ = state_.compare_exchange_strong(open, kCommitted,
                                          std::memory_order_acq_rel);
  }
  return won_;
}

bool BandCommit::taken() const {
  return !won_ && state_.load(std::memory_order_relaxed) != kOpen;
}

void for_each_band(std::size_t n,
                   const std::function<void(std::size_t)>& fn) {
  BandPool* const pool = n > 1 ? band_pool() : nullptr;
  if (pool == nullptr) {
    // Inline, in index order: the reference the pooled path must match,
    // with the same error contract (every index runs; the lowest failure,
    // which is the first, is rethrown).
    std::exception_ptr first_error;
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

  // Every band runs once, so fn can stay the caller's: the call does not
  // return while a run of it is still going.
  const auto job = std::make_shared<BandJob>(
      n, [&fn](std::size_t i, BandCommit&) { fn(i); }, false);
  pool->run(job);
  if (job->error) std::rethrow_exception(job->error);
}

void for_each_row_band_replicated(
    int rows, std::function<void(int, int, BandCommit&)> fn) {
  const std::size_t n = band_count(rows);
  const auto run = [rows, fn = std::move(fn)](std::size_t b,
                                               BandCommit& commit) {
    const int begin = static_cast<int>(b) * kBandRows;
    fn(begin, std::min(rows, begin + kBandRows), commit);
  };
  BandPool* const pool = n > 1 ? band_pool() : nullptr;
  if (pool == nullptr) {
    for (std::size_t b = 0; b < n; ++b) {
      std::atomic<unsigned char> state{kOpen};
      BandCommit commit(state);
      run(b, commit);
    }
    return;
  }
  const auto job = std::make_shared<BandJob>(n, run, true);
  pool->run(job);
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace sccpipe
