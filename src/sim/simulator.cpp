#include "sccpipe/sim/simulator.hpp"

#include <algorithm>
#include <sstream>
#include <string>

#include "sccpipe/support/check.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define SCCPIPE_SLOT_PREFETCH(addr) __builtin_prefetch((addr), 0, 1)
#else
#define SCCPIPE_SLOT_PREFETCH(addr) ((void)0)
#endif

namespace sccpipe {

namespace {
// Compaction threshold: rebuild the heap only once tombstones both dominate
// the heap and are numerous enough that the O(n) pass amortises away.
constexpr std::size_t kMinTombstonesForCompaction = 64;
}  // namespace

Simulator::Simulator(std::size_t size_hint) { reserve_events(size_hint); }

Simulator::~Simulator() {
  for (std::uint32_t slot = 0; slot < slot_seq_.size(); ++slot) {
    slot_fn(slot).~Callback();
  }
}

void Simulator::reserve_events(std::size_t expected_pending) {
  heap_.reserve(expected_pending);
  slot_seq_.reserve(expected_pending);
  free_slots_.reserve(expected_pending);
  while (chunks_.size() * kSlotsPerChunk < expected_pending) add_chunk();
}

void Simulator::add_chunk() {
  // Raw storage: a slot's memory is first touched when it is handed out.
  chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(kSlotsPerChunk));
}

std::uint32_t Simulator::acquire_slot(std::uint64_t seq) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slot_seq_.size());
    if (slot == chunks_.size() * kSlotsPerChunk) {
      ++stats_.allocs;
      add_chunk();
    }
    if (slot_seq_.size() == slot_seq_.capacity()) ++stats_.allocs;
    slot_seq_.push_back(0);
    ::new (static_cast<void*>(&slot_fn(slot))) Callback();
    // The free list must be able to hold every slot without growing on a
    // release (slots return to it on the dispatch path). Grow geometrically.
    if (free_slots_.capacity() < slot_seq_.size()) {
      ++stats_.allocs;
      free_slots_.reserve(slot_seq_.size() * 2);
    }
  }
  slot_seq_[slot] = seq;
  return slot;
}

EventHandle Simulator::push_key(const HeapKey& key) {
  if (heap_.size() == heap_.capacity()) ++stats_.allocs;
  heap_.push(key);
  ++live_pending_;
  stats_.peak_events =
      std::max<std::uint64_t>(stats_.peak_events, live_pending_);
  return EventHandle{key.slot, key.seq};
}

void Simulator::fail_in_past(SimTime when) const {
  std::ostringstream msg;
  msg << "schedule_at(" << when.to_string() << ") is before now="
      << now_.to_string();
  detail::check_failed("when >= now_", __FILE__, __LINE__, msg.str());
}

void Simulator::fail_empty() {
  detail::check_failed("fn != nullptr", __FILE__, __LINE__, {});
}

SimTime Simulator::delay_to_when(SimTime delay) const {
  SCCPIPE_CHECK_MSG(!delay.is_negative(),
                    "negative delay " << delay.to_string());
  return now_ + delay;
}

bool Simulator::cancel(EventHandle handle) {
  if (!handle.valid()) return false;
  if (handle.slot_ >= slot_seq_.size()) return false;
  // The slot records which seq currently occupies it; a mismatch means the
  // event was dispatched or cancelled already (the slot may even have been
  // reused by a newer event — seqs are unique, so the compare still works).
  if (slot_seq_[handle.slot_] != handle.seq_) return false;
  slot_fn(handle.slot_) = nullptr;  // captured state dies right now
  release_slot(handle.slot_);
  --live_pending_;
  ++tombstones_;
  compact_if_worthwhile();
  return true;
}

void Simulator::release_slot(std::uint32_t slot) {
  slot_seq_[slot] = 0;
  free_slots_.push_back(slot);
}

void Simulator::compact_if_worthwhile() {
  // Lazy compaction: tombstoned keys pad every sift. Once they are the
  // majority, one O(n) filter + rebuild pass over the POD keys reclaims
  // the heap (the callbacks were already destroyed at cancel time).
  if (tombstones_ < kMinTombstonesForCompaction ||
      tombstones_ * 2 < heap_.size()) {
    return;
  }
  heap_.remove_and_rebuild(
      [&](const HeapKey& key) { return is_tombstone(key); });
  tombstones_ = 0;
  ++stats_.compactions;
}

void Simulator::drop_front_tombstones() {
  while (!heap_.empty() && is_tombstone(heap_.front())) {
    heap_.pop_front();
    --tombstones_;
  }
}

void Simulator::dispatch_front() {
  const HeapKey key = heap_.front();
  Callback& fn = slot_fn(key.slot);
  // The slot table is far larger than the key array (one callback-sized
  // entry per slot), so the callback line usually misses where the keys
  // hit. Start its load now — it resolves while pop_front sifts — and
  // once the new front is known, start the *next* dispatch's slot load so
  // it resolves while the current callback runs.
  SCCPIPE_SLOT_PREFETCH(&fn);
  heap_.pop_front();
  if (!heap_.empty()) SCCPIPE_SLOT_PREFETCH(&slot_fn(heap_.front().slot));
  slot_seq_[key.slot] = 0;  // running, no longer pending or cancellable
  now_ = key.when;
  --live_pending_;
  ++dispatched_;
  // Run the callable where it was built. Its slot rejoins the pool only
  // after the call returns (or throws), so nothing the callback schedules
  // can overwrite it mid-call.
  struct Release {
    Simulator& sim;
    std::uint32_t slot;
    ~Release() {
      sim.slot_fn(slot) = nullptr;
      sim.release_slot(slot);
    }
  } release{*this, key.slot};
  fn();
}

bool Simulator::step() {
  drop_front_tombstones();
  if (heap_.empty()) return false;
  dispatch_front();
  return true;
}

std::uint64_t Simulator::run_timestamp(std::uint64_t max_events) {
  drop_front_tombstones();
  if (heap_.empty() || max_events == 0) return 0;
  const SimTime ts = heap_.front().when;
  std::uint64_t n = 0;
  do {
    dispatch_front();
    ++n;
    drop_front_tombstones();
  } while (n < max_events && !heap_.empty() && heap_.front().when == ts);
  return n;
}

SimTime Simulator::run() {
  while (step()) {
  }
  return now_;
}

SimTime Simulator::run_until(SimTime deadline) {
  for (;;) {
    drop_front_tombstones();
    if (heap_.empty() || heap_.front().when > deadline) break;
    // All events at the front timestamp are <= deadline: batch them.
    run_timestamp(~std::uint64_t{0});
  }
  return now_;
}

SimTime Simulator::next_event_time() {
  drop_front_tombstones();
  return heap_.empty() ? SimTime::max() : heap_.front().when;
}

std::size_t Simulator::pending() const { return live_pending_; }

Status run_guarded(Simulator& sim, SimTime deadline,
                   std::uint64_t max_events_per_timestamp) {
  for (;;) {
    const SimTime ts = sim.next_event_time();
    if (ts == SimTime::max() || ts > deadline) return Status();
    // A batch cut at the budget with the front still at the same instant
    // is budget + 1 events without the clock moving: a livelock.
    if (sim.run_timestamp(max_events_per_timestamp) ==
            max_events_per_timestamp &&
        sim.next_event_time() == ts) {
      return Status(StatusCode::DeadlineExceeded,
                    "event loop livelocked: more than " +
                        std::to_string(max_events_per_timestamp) +
                        " events at t=" + ts.to_string() +
                        " without the clock advancing");
    }
  }
}

}  // namespace sccpipe
