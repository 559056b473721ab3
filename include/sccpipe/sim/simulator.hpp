#pragma once

/// \file simulator.hpp
/// Single-threaded discrete-event simulation core. All timed behaviour in
/// sccpipe (NoC transfers, memory accesses, stage compute, power sampling)
/// is expressed as events on one Simulator instance.
///
/// Determinism: events with equal timestamps are dispatched in scheduling
/// order (a monotonically increasing sequence number breaks ties), so a
/// given workload always produces bit-identical results.
///
/// Concurrency: a Simulator is strictly single-threaded. Parallel
/// experiment execution (exec/executor.hpp) runs one independent Simulator
/// per worker thread; instances share nothing.
///
/// Hot-path layout (structure of arrays): the priority queue is a
/// cache-line-aligned 4-ary implicit min-heap (sim/dary_heap.hpp) holding
/// only (time, seq, slot) keys padded to 32 bytes — a sibling group is
/// exactly two aligned cache lines and a sift walks log4(n) levels — while
/// callbacks live in a pooled slot table indexed by the key's slot.
/// Callbacks are `SimCallback` (inline fixed-capacity storage, see
/// callback.hpp), so steady-state schedule/cancel/dispatch performs zero
/// heap allocations; SimulatorStats counts the container growths so tests
/// can assert exactly that.
///
/// One construction per event: the slot table is a list of fixed-size
/// chunks, allocated raw and never moved, so a slot's address is stable
/// for the Simulator's life. schedule_at()/schedule_after() are templates
/// that take a slot and build the caller's callable directly in it; the
/// dispatch runs the callable in place, then destroys it and returns the
/// slot to the pool once the call has returned (also when it throws).
/// The running event is no longer pending — cancel() of its own handle
/// returns false — and no event it schedules can land in its slot.
///
/// Cancellation is O(1): every pending event owns a pooled slot recording
/// the sequence number that currently occupies it. cancel() destroys the
/// callback, frees the slot and leaves the heap key behind as a tombstone
/// that step() discards when it surfaces. When tombstones outnumber live
/// events the key heap is compacted in one O(n) pass over PODs, so
/// retry/timeout-heavy workloads (most armed timeouts are cancelled, not
/// dispatched) stay linear instead of quadratic.
///
/// Livelock guard: run_guarded() drains the queue one timestamp at a time
/// and stops with DeadlineExceeded when a single timestamp dispatches more
/// events than its budget — the signature of a zero-delay self-reschedule
/// cycle, the one way a model can spin without the clock advancing.

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sccpipe/sim/callback.hpp"
#include "sccpipe/sim/dary_heap.hpp"
#include "sccpipe/support/status.hpp"
#include "sccpipe/support/time.hpp"

namespace sccpipe {

/// Opaque handle used to cancel a scheduled event.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return seq_ != 0; }

 private:
  friend class Simulator;
  EventHandle(std::uint32_t slot, std::uint64_t seq)
      : slot_(slot), seq_(seq) {}
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;
};

/// Allocation/occupancy counters of one Simulator, for tests and the perf
/// harness. `allocs` counts every growth of the event containers (key heap,
/// slot pool, free list); after warm-up it must stay flat — the perf-smoke
/// test asserts schedule/cancel/dispatch churn leaves it unchanged.
struct SimulatorStats {
  std::uint64_t allocs = 0;        ///< container growths (reallocations)
  std::uint64_t compactions = 0;   ///< tombstone sweeps of the key heap
  std::uint64_t peak_events = 0;   ///< max simultaneous live pending events
};

/// The event-driven scheduler.
class Simulator {
 public:
  using Callback = SimCallback;

  /// \p size_hint pre-reserves the key heap and slot pool for that many
  /// simultaneously pending events (they still grow on demand).
  explicit Simulator(std::size_t size_hint = kDefaultSizeHint);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Grow the reserved event capacity (no-op when already that large).
  void reserve_events(std::size_t expected_pending);

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedule \p fn at absolute time \p when (must not be in the past).
  /// The callable is built once, directly in its event slot (an empty
  /// InplaceFunction is a CheckError).
  template <typename F>
  EventHandle schedule_at(SimTime when, F&& fn) {
    using D = std::remove_cvref_t<F>;
    if (when < now_) [[unlikely]] fail_in_past(when);
    if constexpr (kIsInplaceFunction<D>) {
      if (fn == nullptr) [[unlikely]] fail_empty();
    }
    const std::uint64_t seq = next_seq_++;
    std::uint32_t slot;
    if constexpr (std::is_nothrow_constructible_v<D, F&&>) {
      slot = acquire_slot(seq);
      slot_fn(slot).emplace(std::forward<F>(fn));
    } else {
      // A throwing copy must not leave a live slot behind: copy first,
      // then move (nothrow) into the slot.
      D copy(std::forward<F>(fn));
      slot = acquire_slot(seq);
      slot_fn(slot).emplace(std::move(copy));
    }
    return push_key(HeapKey{when, seq, slot});
  }

  /// Schedule \p fn \p delay after now (delay must be non-negative).
  template <typename F>
  EventHandle schedule_after(SimTime delay, F&& fn) {
    return schedule_at(delay_to_when(delay), std::forward<F>(fn));
  }

  /// Cancel a pending event. Returns false if it already ran, was already
  /// cancelled, or the handle is empty. O(1); the captured state is
  /// destroyed immediately.
  bool cancel(EventHandle handle);

  /// Dispatch the next event. Returns false when the queue is empty.
  bool step();

  /// Batched same-timestamp dispatch: run every event sharing the front
  /// key's timestamp — including events a callback schedules *at* that
  /// same timestamp — up to \p max_events, in one pass over the heap
  /// front. Returns the number dispatched (0 when the queue is empty).
  /// A return value of \p max_events with the front still at the same
  /// timestamp means the batch was cut — what run_guarded() keys on.
  std::uint64_t run_timestamp(std::uint64_t max_events);

  /// Run until the queue drains. Returns the final simulated time.
  SimTime run();

  /// Run until the queue drains or simulated time would exceed \p deadline.
  /// Events at exactly \p deadline still run.
  SimTime run_until(SimTime deadline);

  /// Timestamp of the next live event, or SimTime::max() when the queue is
  /// empty. Discards surfaced tombstones as a side effect (which is why it
  /// is not const); O(tombstones at the front).
  SimTime next_event_time();

  /// Number of events dispatched so far (for tests and sanity limits).
  std::uint64_t dispatched() const { return dispatched_; }

  /// Number of live (non-cancelled) events currently pending.
  std::size_t pending() const;

  /// Allocation/compaction/occupancy counters (see SimulatorStats).
  const SimulatorStats& stats() const { return stats_; }

  static constexpr std::size_t kDefaultSizeHint = 1024;
  /// Callback slots per chunk of the slot table. A chunk is one ~272 KB
  /// allocation, which glibc's malloc serves from fresh pages that stay untouched
  /// until their slots are used; 256-slot chunks landed in freed heap
  /// holes and raised a CLI run's peak RSS by ~0.2 MB.
  static constexpr std::size_t kSlotsPerChunk = 1024;

 private:
  SimTime delay_to_when(SimTime delay) const;
  [[noreturn]] void fail_in_past(SimTime when) const;
  [[noreturn]] static void fail_empty();

  /// Hot heap entry: the ordering key plus the slot that holds the cold
  /// callback. Trivially copyable — sifts never touch callbacks — and
  /// padded to 32 bytes so a sibling group of four fills exactly two
  /// cache lines (see dary_heap.hpp).
  struct alignas(32) HeapKey {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;

    /// Strict (when, seq) dispatch order — "a dispatches before b". seq is
    /// unique, so this is a total order: heap-internal strategy cannot
    /// change the pop sequence.
    static bool before(const HeapKey& a, const HeapKey& b) {
      if (a.when != b.when) return a.when < b.when;
      return a.seq < b.seq;
    }
  };
  static_assert(sizeof(HeapKey) == 32, "heap keys are two per cache line");

  /// Uninitialised storage for one callback: constructed (empty) when
  /// its slot is first handed out, destroyed with the Simulator.
  union Slot {
    Slot() {}
    ~Slot() {}
    Callback fn;
  };

  /// Acquire an empty slot for the event \p seq and return its index
  /// (counts container growths).
  std::uint32_t acquire_slot(std::uint64_t seq);
  /// Push the key of an event whose callback is already in its slot.
  EventHandle push_key(const HeapKey& key);
  /// Pop the front key and dispatch its callback (front must be live).
  void dispatch_front();
  void add_chunk();
  Callback& slot_fn(std::uint32_t slot) {
    return chunks_[slot / kSlotsPerChunk][slot % kSlotsPerChunk].fn;
  }

  DaryKeyHeap<HeapKey> heap_;
  // slot -> seq of the event occupying it (0 = free or running). A heap
  // key whose slot no longer records its seq is a tombstone.
  std::vector<std::uint64_t> slot_seq_;
  // slot -> callback of the occupying event (cold storage, touched only at
  // schedule/cancel/dispatch of that one event, never during sifts), in
  // chunks that never move.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;  // slot pool (reused, never shrunk)
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t dispatched_ = 0;
  std::size_t live_pending_ = 0;
  std::size_t tombstones_ = 0;  // cancelled keys still in heap_
  SimulatorStats stats_;

  bool is_tombstone(const HeapKey& key) const {
    return slot_seq_[key.slot] != key.seq;
  }
  void release_slot(std::uint32_t slot);
  void compact_if_worthwhile();
  void drop_front_tombstones();
};

/// Drain \p sim until its queue empties or the next event lies past
/// \p deadline (events at exactly \p deadline still run), one timestamp at
/// a time. A timestamp that would dispatch more than
/// \p max_events_per_timestamp events without the clock advancing is a
/// livelock: the drain stops there, leaving the rest pending, and returns
/// DeadlineExceeded instead of spinning forever. The budget counts events,
/// never wall time, so the verdict is deterministic.
Status run_guarded(Simulator& sim, SimTime deadline,
                   std::uint64_t max_events_per_timestamp);

}  // namespace sccpipe
