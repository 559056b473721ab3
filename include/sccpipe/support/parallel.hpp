#pragma once

/// \file parallel.hpp
/// Host threads for the layers below `core`: the worker-count default, the
/// fixed-size thread pool, and the process-wide band pool the pixel kernels
/// (render, filters) split their rows across.
///
/// Band contract: for_each_band(n, fn) runs fn(0..n-1), each index exactly
/// once, and returns when every index has finished. Callers choose bands
/// whose writes are disjoint and whose boundaries never depend on the
/// thread count, so the result is bit-identical to running the bands in
/// index order on one thread — which is exactly what happens when
/// SCCPIPE_JOBS=1.

#include <atomic>
#include <cstddef>
#include <functional>

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

/// Rows per pixel band. Fixed, so band boundaries (and thus every
/// floating-point decision inside a band) never depend on the thread count.
inline constexpr int kBandRows = 16;

/// Number of kBandRows-row bands covering \p rows rows.
inline std::size_t band_count(int rows) {
  return rows <= 0 ? 0
                   : static_cast<std::size_t>((rows + kBandRows - 1) /
                                              kBandRows);
}

/// Run fn(0..n-1) on the process-wide band pool and block until every
/// index has run. The pool starts at the first call with n > 1, with
/// default_jobs() - 1 helper threads; the calling thread drains bands too,
/// so a call always makes progress even when every helper is busy. With
/// SCCPIPE_JOBS=1 (read once, at that first call) everything runs inline
/// and no thread is ever created.
///
/// Safe to call from several threads at once and from inside a band: the
/// callers share the helpers without deadlock. If any invocation throws,
/// the exception of the lowest index is rethrown after all indices have
/// finished (exec::parallel_for's contract).
void for_each_band(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Handed to every run of a replicated band (for_each_row_band_replicated).
class BandCommit {
 public:
  explicit BandCommit(std::atomic<unsigned char>& state) : state_(state) {}

  /// True for exactly one run of the band, the first to ask; only that run
  /// may write the band's output, and it must do so before it returns.
  /// Asking again repeats the first answer.
  bool commit();

  /// True once another run of the band has committed: this run's result
  /// will be dropped, so it may stop early.
  bool taken() const;

 private:
  std::atomic<unsigned char>& state_;
  bool asked_ = false;
  bool won_ = false;
};

/// Row bands that never wait on a stalled thread: fn(row_begin, row_end,
/// commit) for the kBandRows-row bands of \p rows rows (half-open, disjoint
/// windows). fn must compute its band into storage of its own and copy it
/// out only if commit.commit() says so. A band whose run is still going
/// well after the typical band has finished is run again by the caller,
/// and the first run to finish wins: a helper thread that lost its core
/// mid-band then costs one band's work instead of the whole time it is
/// off-core. The call returns once every band has a committed run.
///
/// A losing run can still be executing after the call has returned. fn is
/// therefore moved into the call's shared state, must own everything it
/// reads (capture by value or shared_ptr), and may touch the caller's
/// output only after winning its commit. fn must not throw.
void for_each_row_band_replicated(
    int rows, std::function<void(int, int, BandCommit&)> fn);

}  // namespace sccpipe
