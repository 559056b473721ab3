#pragma once

/// \file reference_scheduler.hpp
/// The pre-optimisation event engine, transcribed verbatim: an
/// array-of-structs binary heap whose entries own heap-allocating
/// std::function callbacks (sifts drag the closures along), with the same
/// O(1) slot-table cancel and lazy tombstone compaction the optimised
/// engine uses. Dispatch order is (when, seq) — exactly Simulator's — so
///
///  * the event-ordering determinism test replays one chaos workload on
///    both engines and diffs the recorded dispatch traces;
///  * bench/perf_baseline measures the allocation-free SoA engine against
///    this one, giving the machine-independent event-churn speedup ratio.
///    Because cancel policy and compaction thresholds are identical, the
///    ratio isolates the two things the optimisation changed: callback
///    storage (std::function vs inline) and heap layout (AoS vs POD keys).
///
/// Deliberately not optimised; see filters/reference.hpp for the rule.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sccpipe/support/check.hpp"
#include "sccpipe/support/time.hpp"

namespace sccpipe::reference {

class Scheduler {
 public:
  using Callback = std::function<void()>;

  struct Handle {
    std::uint32_t slot = 0;
    std::uint64_t seq = 0;
    bool valid() const { return seq != 0; }
  };

  Scheduler() { heap_.reserve(1024); }

  Handle schedule_at(SimTime when, Callback fn) {
    SCCPIPE_CHECK(when >= now_);
    SCCPIPE_CHECK(fn != nullptr);
    const std::uint64_t seq = next_seq_++;
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slot_seq_.size());
      slot_seq_.push_back(0);
    }
    slot_seq_[slot] = seq;
    heap_.push_back(Event{when, seq, slot, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end());
    ++live_pending_;
    return Handle{slot, seq};
  }

  Handle schedule_after(SimTime delay, Callback fn) {
    SCCPIPE_CHECK(!delay.is_negative());
    return schedule_at(now_ + delay, std::move(fn));
  }

  bool cancel(Handle handle) {
    if (!handle.valid()) return false;
    if (handle.slot >= slot_seq_.size()) return false;
    if (slot_seq_[handle.slot] != handle.seq) return false;
    release_slot(handle.slot);
    --live_pending_;
    ++tombstones_;
    compact_if_worthwhile();
    return true;
  }

  bool step() {
    drop_front_tombstones();
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end());
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    release_slot(ev.slot);
    now_ = ev.when;
    --live_pending_;
    ev.fn();
    return true;
  }

  SimTime run() {
    while (step()) {
    }
    return now_;
  }

  SimTime now() const { return now_; }
  std::size_t pending() const { return live_pending_; }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    Callback fn;

    // std::push_heap builds a max-heap; invert to dispatch the earliest
    // (when, seq) first — identical ordering to Simulator's HeapKey.
    friend bool operator<(const Event& a, const Event& b) {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  static constexpr std::size_t kMinTombstonesForCompaction = 64;

  bool is_tombstone(const Event& ev) const {
    return slot_seq_[ev.slot] != ev.seq;
  }

  void release_slot(std::uint32_t slot) {
    slot_seq_[slot] = 0;
    free_slots_.push_back(slot);
  }

  void compact_if_worthwhile() {
    if (tombstones_ < kMinTombstonesForCompaction ||
        tombstones_ * 2 < heap_.size()) {
      return;
    }
    std::erase_if(heap_, [&](const Event& ev) { return is_tombstone(ev); });
    std::make_heap(heap_.begin(), heap_.end());
    tombstones_ = 0;
  }

  void drop_front_tombstones() {
    while (!heap_.empty() && is_tombstone(heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.pop_back();
      --tombstones_;
    }
  }

  std::vector<Event> heap_;
  std::vector<std::uint64_t> slot_seq_;  // slot -> occupying seq (0 = free)
  std::vector<std::uint32_t> free_slots_;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::size_t live_pending_ = 0;
  std::size_t tombstones_ = 0;
};

}  // namespace sccpipe::reference
