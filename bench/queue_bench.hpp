#pragma once

// Shared hold-pattern queue driver for the event-queue benchmarks
// (bench/micro_queue.cpp and the queue_ops_* rows of bench/perf_baseline).
//
// The driver isolates *queue operations* — schedule, cancel, dispatch —
// from everything else the engines do: it prefills N pending events
// (duplicate-heavy timestamps on a coarse grid), then runs a steady-state pop-push churn where every dispatched
// event schedules one replacement, with a periodic cancel + re-arm mixed
// in. The pending population therefore *holds* at N throughout the
// measured window, so each tier probes the heap at a controlled depth
// (sift cost is log(N)) instead of the mixed depths an end-to-end run
// sees.
//
// Both engines (Simulator with the 4-ary key heap, reference::Scheduler
// with the binary AoS heap) consume the same deterministic RNG stream and
// dispatch in the same (time, seq) order, so their op counts are
// cross-checked equal and the wall-clock ratio isolates queue layout.

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "sccpipe/support/check.hpp"
#include "sccpipe/support/rng.hpp"
#include "sccpipe/support/time.hpp"

namespace sccpipe::bench {

/// Deterministic hold-pattern churn on one engine. Engine must expose
/// schedule_at / cancel / step / now (Simulator and reference::Scheduler
/// both qualify).
template <class Engine, class Handle>
struct QueueHoldDriver {
  Engine eng;
  Rng rng;
  std::uint64_t dispatched = 0;
  std::uint64_t cancels = 0;
  std::vector<Handle> armed;  // rotating cancellable-timeout pool
  std::uint64_t target = 0;

  explicit QueueHoldDriver(std::uint64_t seed) : rng(seed) {}

  /// One replacement event on a coarse time grid (heavy same-timestamp
  /// collisions).
  void schedule_one() {
    const SimTime when =
        eng.now() + SimTime::ns(static_cast<std::int64_t>(1 + rng.below(64)) * 100);
    eng.schedule_at(when, [this] { pump(); });
  }

  void pump() {
    ++dispatched;
    if (dispatched >= target) return;
    schedule_one();  // hold the pending population constant
    if ((dispatched & 7) == 0 && !armed.empty()) {
      // Retry-layer shape: cancel a pending timeout, arm a fresh one.
      const std::size_t idx = rng.below(armed.size());
      if (eng.cancel(armed[idx])) ++cancels;
      armed[idx] = eng.schedule_at(
          eng.now() + SimTime::ms(static_cast<double>(1 + rng.below(50))),
          [this] { pump(); });
    }
  }

  /// Prefill \p pending events, then dispatch until \p dispatches fire.
  /// Returns wall seconds of the measured churn (prefill excluded).
  template <class Now, class Seconds>
  double run(std::size_t pending, std::uint64_t dispatches, Now now_fn,
             Seconds seconds_since) {
    target = ~std::uint64_t{0};  // prefill callbacks must not early-out
    const std::size_t timeouts = pending / 8 + 1;
    for (std::size_t i = 0; i + timeouts < pending; ++i) schedule_one();
    armed.reserve(timeouts);
    for (std::size_t i = 0; i < timeouts; ++i) {
      armed.push_back(eng.schedule_at(
          eng.now() + SimTime::ms(static_cast<double>(1 + rng.below(50))),
          [this] { pump(); }));
    }
    target = dispatches;
    const auto t0 = now_fn();
    while (dispatched < target && eng.step()) {
    }
    SCCPIPE_CHECK(dispatched == target);
    return seconds_since(t0);
  }
};

/// Pull `"speedup": <num>` out of the metric object named \p name in a
/// perf-baseline JSON record (the format is ours, so a scan is enough).
/// Shared by perf_baseline --check and micro_queue --check.
inline std::optional<double> committed_metric_speedup(const std::string& json,
                                                      const std::string& name) {
  const std::string tag = "\"name\": \"" + name + "\"";
  std::size_t at = json.find(tag);
  if (at == std::string::npos) return std::nullopt;
  const std::string key = "\"speedup\": ";
  at = json.find(key, at);
  if (at == std::string::npos) return std::nullopt;
  return std::strtod(json.c_str() + at + key.size(), nullptr);
}

}  // namespace sccpipe::bench
