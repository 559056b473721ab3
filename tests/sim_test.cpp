#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "sccpipe/sim/fair_share.hpp"
#include "sccpipe/sim/reference_scheduler.hpp"
#include "sccpipe/sim/resource.hpp"
#include "sccpipe/sim/simulator.hpp"
#include "sccpipe/sim/trace.hpp"
#include "sccpipe/support/check.hpp"
#include "sccpipe/support/rng.hpp"

namespace sccpipe {
namespace {

using namespace sccpipe::literals;

// --------------------------------------------------------------- Simulator

TEST(Simulator, DispatchesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3_ms, [&] { order.push_back(3); });
  sim.schedule_at(1_ms, [&] { order.push_back(1); });
  sim.schedule_at(2_ms, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3_ms);
}

TEST(Simulator, FifoAtEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5_ms, [&, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime seen = SimTime::zero();
  sim.schedule_at(2_ms, [&] {
    sim.schedule_after(3_ms, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 5_ms);
}

TEST(Simulator, RejectsPastAndNegative) {
  Simulator sim;
  sim.schedule_at(1_ms, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(SimTime::us(500), [] {}), CheckError);
  EXPECT_THROW(sim.schedule_after(SimTime::ms(-1), [] {}), CheckError);
}

TEST(Simulator, CancelPreventsDispatch) {
  Simulator sim;
  bool ran = false;
  auto h = sim.schedule_at(1_ms, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));  // double cancel fails
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.dispatched(), 0u);
}

TEST(Simulator, CancelAfterRunFails) {
  Simulator sim;
  auto h = sim.schedule_at(1_ms, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(h));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1_ms, [&] { ++count; });
  sim.schedule_at(2_ms, [&] { ++count; });
  sim.schedule_at(5_ms, [&] { ++count; });
  sim.run_until(2_ms);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, StaleHandleAfterSlotReuseFails) {
  // Cancelling frees the event's slot for reuse; a stale handle to the old
  // occupant must not cancel the new one.
  Simulator sim;
  bool first = false, second = false;
  auto h1 = sim.schedule_at(1_ms, [&] { first = true; });
  EXPECT_TRUE(sim.cancel(h1));
  auto h2 = sim.schedule_at(2_ms, [&] { second = true; });  // may reuse slot
  EXPECT_FALSE(sim.cancel(h1));  // stale: must miss
  sim.run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
  EXPECT_TRUE(h2.valid());
}

TEST(Simulator, RunUntilSkipsCancelledFrontWithoutOverrunning) {
  // A cancelled event earlier than the deadline must not cause run_until to
  // dispatch a live event that lies beyond the deadline.
  Simulator sim;
  int count = 0;
  auto h = sim.schedule_at(1_ms, [&] { ++count; });
  sim.schedule_at(5_ms, [&] { ++count; });
  sim.cancel(h);
  sim.run_until(2_ms);
  EXPECT_EQ(count, 0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(count, 1);
}

TEST(Simulator, RunUntilMidHeapWithTombstonesAndSameCycleCancel) {
  // The tombstone-peek path: run_until must stop mid-heap while cancelled
  // entries are still buried in it — including one cancelled *during the
  // deadline cycle itself*, after dispatch of that cycle has begun — and
  // the resume primitives (next_event_time / run_until / run) must skip
  // every corpse without dispatching it.
  Simulator sim;
  std::vector<int> fired;
  auto arm = [&](int id, SimTime at) {
    return sim.schedule_at(at, [&fired, id] { fired.push_back(id); });
  };
  EventHandle at3_second;  // shares the deadline cycle, cancelled mid-cycle
  EventHandle at5;
  arm(1, 1_ms);
  arm(2, 2_ms);
  sim.schedule_at(3_ms, [&] {
    fired.push_back(3);
    // Same-cycle cancel: this event has the deadline timestamp and sits in
    // the cycle currently dispatching, but has not run yet.
    EXPECT_TRUE(sim.cancel(at3_second));
    // And one beyond the deadline, leaving a tombstone mid-heap.
    EXPECT_TRUE(sim.cancel(at5));
  });
  at3_second = arm(30, 3_ms);
  auto at4a = arm(40, 4_ms);
  auto at4b = arm(41, 4_ms);
  at5 = arm(5, 5_ms);
  arm(7, 7_ms);
  arm(8, 8_ms);
  arm(9, 9_ms);
  // Pre-run tombstones sitting between the deadline and the survivors.
  EXPECT_TRUE(sim.cancel(at4a));
  EXPECT_TRUE(sim.cancel(at4b));

  sim.run_until(3_ms);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3_ms);
  // Live survivors: 7, 8, 9; the 4 ms / 5 ms tombstones are still heaped.
  EXPECT_EQ(sim.pending(), 3u);
  // next_event_time discards the surfaced corpses to find the first live
  // event, without dispatching anything.
  EXPECT_EQ(sim.next_event_time(), 7_ms);
  EXPECT_EQ(fired.size(), 3u);
  // Every cancelled handle is spent.
  EXPECT_FALSE(sim.cancel(at4a));
  EXPECT_FALSE(sim.cancel(at5));
  EXPECT_FALSE(sim.cancel(at3_second));

  // A second run_until stops short of the last survivor.
  sim.run_until(8_ms);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 7, 8}));
  EXPECT_EQ(sim.next_event_time(), 9_ms);
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 7, 8, 9}));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, NextEventTimePeeksWithoutDispatching) {
  Simulator sim;
  EXPECT_EQ(sim.next_event_time(), SimTime::max());
  int count = 0;
  sim.schedule_at(2_ms, [&] { ++count; });
  EXPECT_EQ(sim.next_event_time(), 2_ms);
  EXPECT_EQ(count, 0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(2_ms);  // inclusive: the event at exactly the deadline runs
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.next_event_time(), SimTime::max());
}

TEST(Simulator, StressScheduleCancelCycles) {
  // >10k schedule/cancel cycles modelled on the RCCE retry pattern: every
  // transfer arms a timeout that is almost always cancelled when the reply
  // beats it. The old implementation re-sorted the tombstone list per
  // cancel (quadratic); this asserts correctness at a scale where that
  // would dominate, and the ctest timeout catches any blow-up.
  Simulator sim;
  const int kCycles = 12000;
  int replies = 0, timeouts = 0;
  std::function<void(int)> transfer = [&](int i) {
    if (i >= kCycles) return;
    auto timeout = sim.schedule_after(10_ms, [&] { ++timeouts; });
    sim.schedule_after(1_ms, [&, timeout, i] {
      ++replies;
      EXPECT_TRUE(sim.cancel(timeout));
      transfer(i + 1);
    });
  };
  transfer(0);
  sim.run();
  EXPECT_EQ(replies, kCycles);
  EXPECT_EQ(timeouts, 0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.dispatched(), static_cast<std::uint64_t>(kCycles));
  EXPECT_EQ(sim.now(), SimTime::ms(kCycles));
}

TEST(Simulator, StressMixedCancellationKeepsOrderAndCounts) {
  // Bulk schedule + cancel every other event, across enough events to force
  // several lazy compactions; survivors must still dispatch in (time, seq)
  // order with exact pending/dispatched accounting.
  Simulator sim;
  const int kEvents = 20000;
  std::vector<EventHandle> handles;
  std::vector<int> fired;
  handles.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    // Colliding timestamps (i / 4) exercise the seq tie-break too.
    handles.push_back(
        sim.schedule_at(SimTime::us(i / 4), [&fired, i] { fired.push_back(i); }));
  }
  int cancelled = 0;
  for (int i = 0; i < kEvents; i += 2) {
    EXPECT_TRUE(sim.cancel(handles[static_cast<std::size_t>(i)]));
    EXPECT_FALSE(sim.cancel(handles[static_cast<std::size_t>(i)]));
    ++cancelled;
  }
  EXPECT_EQ(sim.pending(), static_cast<std::size_t>(kEvents - cancelled));
  sim.run();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kEvents - cancelled));
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  for (const int i : fired) EXPECT_EQ(i % 2, 1);
  EXPECT_EQ(sim.dispatched(), static_cast<std::uint64_t>(kEvents - cancelled));
  for (int i = 1; i < kEvents; i += 2) {
    EXPECT_FALSE(sim.cancel(handles[static_cast<std::size_t>(i)]));
  }
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_after(1_us, chain);
  };
  sim.schedule_after(1_us, chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), SimTime::us(100));
}

// ---------------------------------------------------- in-place dispatch

TEST(Simulator, CallbackGrowingTheSlotTableMidCallKeepsOrder) {
  // The running callable lives in its slot while it schedules several
  // chunks' worth of events: the slot table grows under it, and neither
  // its captured state nor the dispatch order may suffer.
  Simulator sim(8);
  constexpr int kNew = 3 * static_cast<int>(Simulator::kSlotsPerChunk) + 7;
  std::vector<int> order;
  std::vector<int> payload(64, 7);  // non-trivial captured state
  sim.schedule_at(1_us, [&sim, &order, payload] {
    for (int i = 0; i < kNew; ++i) {
      // Descending times, with every fourth event tied to its predecessor
      // at the same instant: dispatch must follow (time, schedule order).
      const int t = 2 * kNew - 2 * i + (i % 4 == 3 ? 2 : 0);
      sim.schedule_at(SimTime::us(1 + t), [&order, i] { order.push_back(i); });
    }
    EXPECT_EQ(payload, std::vector<int>(64, 7));
    order.push_back(-1);
  });
  sim.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kNew) + 1);
  EXPECT_EQ(order.front(), -1);
  std::vector<int> expected;
  for (int i = kNew - 1; i >= 0; --i) expected.push_back(i);
  // A tied pair (i-1, i) dispatches in schedule order: i-1 first.
  for (std::size_t j = 0; j + 1 < expected.size(); ++j) {
    if (expected[j] % 4 == 3) {
      std::swap(expected[j], expected[j + 1]);
      ++j;
    }
  }
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), order.begin() + 1));
  EXPECT_GT(sim.stats().allocs, 0u);
  EXPECT_EQ(sim.dispatched(), static_cast<std::uint64_t>(kNew) + 1);
}

TEST(Simulator, RunningEventCannotCancelItselfButCanCancelOthers) {
  Simulator sim;
  EventHandle self, other;
  bool self_cancelled = true, other_cancelled = false, other_ran = false;
  self = sim.schedule_at(1_ms, [&] {
    self_cancelled = sim.cancel(self);
    other_cancelled = sim.cancel(other);
  });
  other = sim.schedule_at(2_ms, [&] { other_ran = true; });
  sim.run();
  EXPECT_FALSE(self_cancelled);
  EXPECT_TRUE(other_cancelled);
  EXPECT_FALSE(other_ran);
  EXPECT_EQ(sim.dispatched(), 1u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, CallableIsMovedAtMostOnceIntoItsSlot) {
  struct Counted {
    int* moves;
    int* copies;
    int* moves_at_call;
    Counted(int* m, int* c, int* at) : moves(m), copies(c), moves_at_call(at) {}
    Counted(Counted&& o) noexcept
        : moves(o.moves), copies(o.copies), moves_at_call(o.moves_at_call) {
      ++*moves;
    }
    Counted(const Counted& o)
        : moves(o.moves), copies(o.copies), moves_at_call(o.moves_at_call) {
      ++*copies;
    }
    void operator()() { *moves_at_call = *moves; }
  };
  Simulator sim;
  int moves = 0, copies = 0, at_call = -1;
  sim.schedule_at(1_us, Counted(&moves, &copies, &at_call));
  sim.run();
  EXPECT_LE(at_call, 1);
  EXPECT_EQ(copies, 0);

  moves = 0;
  at_call = -1;
  sim.schedule_after(1_us, Counted(&moves, &copies, &at_call));
  sim.run();
  EXPECT_LE(at_call, 1);
  EXPECT_EQ(copies, 0);
}

TEST(Simulator, ThrowingCallbackStillFreesItsSlot) {
  Simulator sim(4);
  sim.schedule_at(1_us, [] { SCCPIPE_CHECK_MSG(false, "boom"); });
  EXPECT_THROW(sim.step(), CheckError);
  EXPECT_EQ(sim.pending(), 0u);
  // The freed slot is reused: four more pending events fit the reserve.
  int ran = 0;
  for (int i = 0; i < 4; ++i) sim.schedule_after(1_us, [&] { ++ran; });
  sim.run();
  EXPECT_EQ(ran, 4);
  EXPECT_EQ(sim.stats().allocs, 0u);
}

// ------------------------------------------------------------- FlowResource

TEST(FlowResource, SerialisesOverlappingRequests) {
  FlowResource r("link");
  EXPECT_EQ(r.acquire(SimTime::zero(), 10_ms), 10_ms);
  // Arrives at 5 ms but must wait until 10 ms.
  EXPECT_EQ(r.acquire(5_ms, 10_ms), 20_ms);
  EXPECT_EQ(r.queue_delay(), 5_ms);
  EXPECT_EQ(r.busy_time(), 20_ms);
  EXPECT_EQ(r.request_count(), 2u);
}

TEST(FlowResource, IdleGapNoQueueing) {
  FlowResource r("link");
  r.acquire(SimTime::zero(), 1_ms);
  EXPECT_EQ(r.acquire(10_ms, 1_ms), 11_ms);
  EXPECT_EQ(r.queue_delay(), SimTime::zero());
}

TEST(FlowResource, ServesInCallOrderEvenWithEarlierTimestamps) {
  // Downstream mesh links see arrival times computed ahead of simulated
  // time; the resource serialises in call order.
  FlowResource r("link");
  EXPECT_EQ(r.acquire(5_ms, 1_ms), 6_ms);
  EXPECT_EQ(r.acquire(4_ms, 1_ms), 7_ms);  // queued behind the first
}

TEST(FlowResource, Utilization) {
  FlowResource r("link");
  r.acquire(SimTime::zero(), 5_ms);
  EXPECT_DOUBLE_EQ(r.utilization(10_ms), 0.5);
}

// --------------------------------------------------------- FairShareResource

// Completion events are rounded up to the next nanosecond (see
// FairShareResource::reschedule), so completion times match to ~2 ns.
void expect_near_time(SimTime actual, SimTime expected) {
  EXPECT_LE(std::abs(actual.to_ns() - expected.to_ns()), 4)
      << "actual=" << actual.to_string()
      << " expected=" << expected.to_string();
}

TEST(FairShare, SingleFlowFullRate) {
  Simulator sim;
  FairShareResource r(sim, "mc", 100.0);  // 100 B/s
  SimTime done = SimTime::zero();
  r.start_flow(50.0, [&] { done = sim.now(); });
  sim.run();
  expect_near_time(done, SimTime::ms(500));
}

TEST(FairShare, TwoFlowsShareBandwidth) {
  Simulator sim;
  FairShareResource r(sim, "mc", 100.0);
  SimTime done_a, done_b;
  r.start_flow(50.0, [&] { done_a = sim.now(); });
  r.start_flow(50.0, [&] { done_b = sim.now(); });
  sim.run();
  // Both drain at 50 B/s -> 1 s each.
  expect_near_time(done_a, 1_sec);
  expect_near_time(done_b, 1_sec);
}

TEST(FairShare, LateArrivalStretchesFirstFlow) {
  Simulator sim;
  FairShareResource r(sim, "mc", 100.0);
  SimTime done_a, done_b;
  r.start_flow(100.0, [&] { done_a = sim.now(); });  // alone: 1 s
  sim.schedule_at(SimTime::ms(500), [&] {
    r.start_flow(50.0, [&] { done_b = sim.now(); });
  });
  sim.run();
  // A has 50 B left at 0.5 s, then drains at 50 B/s -> finishes at 1.5 s.
  // B's 50 B at 50 B/s -> also 1.5 s.
  expect_near_time(done_a, SimTime::ms(1500));
  expect_near_time(done_b, SimTime::ms(1500));
}

TEST(FairShare, RateCapLimitsBelowShare) {
  Simulator sim;
  FairShareResource r(sim, "mc", 1000.0);
  SimTime done = SimTime::zero();
  r.start_flow(100.0, [&] { done = sim.now(); }, /*rate_cap=*/10.0);
  sim.run();
  expect_near_time(done, SimTime::sec(10));
}

TEST(FairShare, ZeroByteFlowCompletesImmediately) {
  Simulator sim;
  FairShareResource r(sim, "mc", 100.0);
  bool done = false;
  r.start_flow(0.0, [&] { done = true; });
  EXPECT_TRUE(done);
  EXPECT_EQ(r.active_flows(), 0u);
}

TEST(FairShare, CompletionCallbackCanChainFlows) {
  Simulator sim;
  FairShareResource r(sim, "mc", 100.0);
  SimTime second_done = SimTime::zero();
  r.start_flow(100.0, [&] {
    r.start_flow(100.0, [&] { second_done = sim.now(); });
  });
  sim.run();
  expect_near_time(second_done, 2_sec);
  EXPECT_EQ(r.flows_completed(), 2u);
}

TEST(FairShare, ManyConcurrentFlowsAllFinish) {
  Simulator sim;
  FairShareResource r(sim, "mc", 1000.0);
  int finished = 0;
  for (int i = 1; i <= 10; ++i) {
    r.start_flow(i * 10.0, [&] { ++finished; });
  }
  sim.run();
  EXPECT_EQ(finished, 10);
  EXPECT_DOUBLE_EQ(r.bytes_completed(), 550.0);
}

// ------------------------------------------------------------------- Trace

TEST(StepTrace, ValueAtTime) {
  StepTrace t;
  t.record(1_sec, 10.0);
  t.record(2_sec, 20.0);
  EXPECT_EQ(t.at(SimTime::ms(500)), 0.0);
  EXPECT_EQ(t.at(1_sec), 10.0);
  EXPECT_EQ(t.at(SimTime::ms(1500)), 10.0);
  EXPECT_EQ(t.at(3_sec), 20.0);
}

TEST(StepTrace, Integration) {
  StepTrace t;
  t.record(SimTime::zero(), 10.0);
  t.record(1_sec, 20.0);
  // 10 W for 1 s + 20 W for 1 s = 30 J.
  EXPECT_DOUBLE_EQ(t.integrate(SimTime::zero(), 2_sec), 30.0);
  EXPECT_DOUBLE_EQ(t.integrate(SimTime::ms(500), SimTime::ms(1500)),
                   5.0 + 10.0);
}

TEST(StepTrace, CoalescesEqualValues) {
  StepTrace t;
  t.record(SimTime::zero(), 5.0);
  t.record(1_sec, 5.0);
  EXPECT_EQ(t.size(), 1u);
}

TEST(StepTrace, OverwriteAtSameInstant) {
  StepTrace t;
  t.record(1_sec, 5.0);
  t.record(1_sec, 7.0);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.at(1_sec), 7.0);
}

TEST(StepTrace, SampleGrid) {
  StepTrace t;
  t.record(SimTime::zero(), 1.0);
  t.record(2_sec, 3.0);
  const auto samples = t.sample(SimTime::zero(), 4_sec, 1_sec);
  EXPECT_EQ(samples, (std::vector<double>{1.0, 1.0, 3.0, 3.0, 3.0}));
}

TEST(StepTrace, RejectsTimeTravel) {
  StepTrace t;
  t.record(2_sec, 1.0);
  EXPECT_THROW(t.record(1_sec, 2.0), CheckError);
}

// ------------------------------------------------------- allocation-free

TEST(SimulatorStats, SteadyStateChurnPerformsNoAllocations) {
  // A retry-heavy workload: every dispatched event schedules a successor
  // and arms a timeout that is almost always cancelled. After warm-up the
  // slot pool and key heap are saturated, so further schedule/cancel/
  // dispatch churn must not grow any container.
  Simulator sim(64);
  Rng rng{0xbeefcafe};
  std::vector<EventHandle> timeouts;
  std::uint64_t fired = 0;
  std::function<void()> body = [&] {
    ++fired;
    // Arm a timeout, cancel a previously armed one (the common retry
    // pattern: most timeouts never fire).
    timeouts.push_back(sim.schedule_after(
        SimTime::ms(5.0 + static_cast<double>(rng.below(10))), [] {}));
    if (timeouts.size() > 4) {
      sim.cancel(timeouts.front());
      timeouts.erase(timeouts.begin());
    }
    if (fired < 50'000) {
      sim.schedule_after(SimTime::us(static_cast<double>(rng.below(100))),
                         [&] { body(); });
    }
  };
  sim.schedule_after(1_us, [&] { body(); });

  // Warm up: let the pools reach their steady-state footprint.
  while (fired < 5'000 && sim.step()) {
  }
  const std::uint64_t allocs_after_warmup = sim.stats().allocs;
  sim.run();
  EXPECT_EQ(fired, 50'000u);
  EXPECT_EQ(sim.stats().allocs, allocs_after_warmup)
      << "steady-state schedule/cancel/dispatch must not allocate";
  EXPECT_GE(sim.stats().peak_events, 4u);
}

TEST(SimulatorStats, ReserveUpFrontAvoidsAllGrowth) {
  Simulator sim(1024);
  for (int i = 0; i < 1000; ++i) {
    sim.schedule_at(SimTime::us(static_cast<double>(i)), [] {});
  }
  EXPECT_EQ(sim.stats().allocs, 0u);
  EXPECT_EQ(sim.stats().peak_events, 1000u);
  sim.run();
  EXPECT_EQ(sim.stats().allocs, 0u);
}

// --------------------------------------------- old-vs-new dispatch order

// One chaos workload, driven twice — once on the allocation-free SoA
// engine, once on the reference AoS/std::function engine — recording every
// dispatch as (time, event id). The traces must match exactly: the SoA
// rewrite changed the heap layout, not the dispatch order.
TEST(SimulatorDeterminism, MatchesReferenceSchedulerOnChaosWorkload) {
  struct Dispatch {
    std::int64_t at_ns;
    int id;
    bool operator==(const Dispatch&) const = default;
  };

  // Engine-agnostic driver: `schedule(delay_us, id)` and `cancel_oldest()`
  // express the workload; each engine supplies its own implementations.
  struct Driver {
    std::function<void(int, int)> schedule;  // (delay_us, id)
    std::function<void()> cancel_oldest;
  };
  constexpr int kSeedEvents = 40;
  constexpr int kChainLen = 60;
  auto run_workload = [](Driver d) {
    Rng rng{0x5cc9e7e1};
    for (int i = 0; i < kSeedEvents; ++i) {
      d.schedule(static_cast<int>(rng.below(50)), i);
    }
    // Interleave cancellations: every third seed event's successor chain
    // is cut short by cancelling the oldest pending timeout.
    for (int i = 0; i < kSeedEvents / 3; ++i) d.cancel_oldest();
  };

  // --- optimised engine -------------------------------------------------
  std::vector<Dispatch> trace_new;
  {
    Simulator sim;
    std::vector<EventHandle> pending;
    std::function<void(int, int)> sched = [&](int delay_us, int id) {
      pending.push_back(sim.schedule_after(
          SimTime::us(static_cast<double>(delay_us)), [&, id] {
            trace_new.push_back(Dispatch{sim.now().to_ns(), id});
            if (id < kSeedEvents * kChainLen) {
              sched((id * 7 + 3) % 41, id + kSeedEvents);
            }
          }));
    };
    run_workload(Driver{[&](int delay, int id) { sched(delay, id); },
                        [&] {
                          if (!pending.empty()) {
                            sim.cancel(pending.front());
                            pending.erase(pending.begin());
                          }
                        }});
    sim.run();
  }

  // --- reference engine -------------------------------------------------
  std::vector<Dispatch> trace_ref;
  {
    reference::Scheduler sim;
    std::vector<reference::Scheduler::Handle> pending;
    std::function<void(int, int)> sched = [&](int delay_us, int id) {
      pending.push_back(sim.schedule_after(
          SimTime::us(static_cast<double>(delay_us)), [&, id] {
            trace_ref.push_back(Dispatch{sim.now().to_ns(), id});
            if (id < kSeedEvents * kChainLen) {
              sched((id * 7 + 3) % 41, id + kSeedEvents);
            }
          }));
    };
    run_workload(Driver{[&](int delay, int id) { sched(delay, id); },
                        [&] {
                          if (!pending.empty()) {
                            sim.cancel(pending.front());
                            pending.erase(pending.begin());
                          }
                        }});
    sim.run();
  }

  ASSERT_FALSE(trace_new.empty());
  EXPECT_EQ(trace_new, trace_ref);
}

// ------------------------------------- batched same-timestamp dispatch

TEST(RunTimestamp, DispatchesEveryCoTimedEventIncludingNewcomers) {
  Simulator sim;
  std::vector<int> log;
  sim.schedule_at(SimTime::us(1), [&] {
    log.push_back(1);
    // A newcomer *at the current timestamp* joins the running batch.
    sim.schedule_at(sim.now(), [&] { log.push_back(3); });
  });
  sim.schedule_at(SimTime::us(1), [&] { log.push_back(2); });
  sim.schedule_at(SimTime::us(2), [&] { log.push_back(4); });
  EXPECT_EQ(sim.run_timestamp(~std::uint64_t{0}), 3u);
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::us(1));
  EXPECT_EQ(sim.next_event_time(), SimTime::us(2));
  EXPECT_EQ(sim.run_timestamp(~std::uint64_t{0}), 1u);
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.run_timestamp(~std::uint64_t{0}), 0u);  // drained
}

TEST(RunTimestamp, BudgetCutsABatchMidTimestamp) {
  Simulator sim;
  int ran = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime::us(7), [&] { ++ran; });
  }
  EXPECT_EQ(sim.run_timestamp(4), 4u);
  EXPECT_EQ(ran, 4);
  // The front is still at the cut timestamp — exactly the signal the
  // livelock guard (run_guarded) keys on.
  EXPECT_EQ(sim.next_event_time(), SimTime::us(7));
  EXPECT_EQ(sim.run_timestamp(~std::uint64_t{0}), 6u);
  EXPECT_EQ(ran, 10);
}

TEST(RunTimestamp, SkipsFrontTombstones) {
  Simulator sim;
  int ran = 0;
  const EventHandle dead = sim.schedule_at(SimTime::us(1), [&] { ++ran; });
  sim.schedule_at(SimTime::us(2), [&] { ++ran; });
  sim.cancel(dead);
  EXPECT_EQ(sim.run_timestamp(~std::uint64_t{0}), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), SimTime::us(2));
}

// ------------------------------------------------- event-loop livelock guard

// A zero-delay self-reschedule cycle pins the clock: without the guard the
// drain spins forever. With a small event budget it must stop with a typed
// DeadlineExceeded right at the budget instead of hanging.
TEST(LivelockGuard, ZeroDelayCycleTripsTypedDeadline) {
  Simulator sim;
  constexpr std::uint64_t kBudget = 1000;
  std::function<void()> spin;
  std::uint64_t spins = 0;
  spin = [&] {
    ++spins;
    sim.schedule_at(sim.now(), [&] { spin(); });
  };
  sim.schedule_at(SimTime::us(2), [&] { spin(); });
  bool later_ran = false;
  sim.schedule_at(SimTime::us(50), [&] { later_ran = true; });
  const Status st = run_guarded(sim, SimTime::max(), kBudget);

  EXPECT_EQ(st.code(), StatusCode::DeadlineExceeded) << st.to_string();
  EXPECT_NE(st.message().find("livelock"), std::string::npos) << st.message();
  // The budget bounds the wasted work: the cycle was cut off at the limit,
  // the clock never advanced, and later events stay pending.
  EXPECT_EQ(spins, kBudget);
  EXPECT_EQ(sim.now(), SimTime::us(2));
  EXPECT_FALSE(later_ran);
  EXPECT_EQ(sim.pending(), 2u);
}

// Same-timestamp bursts *below* the budget are legitimate (a frame boundary
// routinely fires many co-timed events) and must not trip the guard; nor
// may a burst of exactly the budget once the clock moves on.
TEST(LivelockGuard, CoTimedBurstBelowBudgetIsNotAStall) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 60; ++i) {
    sim.schedule_at(SimTime::us(3), [&] { ++fired; });
  }
  for (int i = 0; i < 64; ++i) {
    sim.schedule_at(SimTime::us(4), [&] { ++fired; });
  }
  const Status st = run_guarded(sim, SimTime::max(), 64);
  EXPECT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(fired, 124);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(LivelockGuard, StopsAfterTheDeadlineInclusive) {
  Simulator sim;
  std::vector<int> fired;
  for (int i = 1; i <= 4; ++i) {
    sim.schedule_at(SimTime::ms(i), [&fired, i] { fired.push_back(i); });
  }
  EXPECT_TRUE(run_guarded(sim, 2_ms, 8).ok());
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.next_event_time(), 3_ms);
  EXPECT_TRUE(run_guarded(sim, SimTime::max(), 8).ok());
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
}

}  // namespace
}  // namespace sccpipe
