// Randomised stress tests: the deterministic simulator, the fluid
// bandwidth model and the rendezvous layer are exercised with hundreds of
// randomly generated scenarios and checked against global invariants
// (ordering, conservation, termination) rather than single examples.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sccpipe/rcce/rcce.hpp"
#include "sccpipe/sim/fair_share.hpp"
#include "sccpipe/sim/reference_scheduler.hpp"
#include "sccpipe/sim/simulator.hpp"
#include "sccpipe/support/rng.hpp"

namespace sccpipe {
namespace {

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, SimulatorDispatchOrderIsNonDecreasing) {
  Rng rng{GetParam()};
  Simulator sim;
  std::vector<SimTime> dispatched;
  // Random initial schedule; some events schedule follow-ups, some cancel
  // a random pending handle.
  std::vector<EventHandle> handles;
  for (int i = 0; i < 200; ++i) {
    const SimTime when = SimTime::us(static_cast<double>(rng.below(10000)));
    handles.push_back(sim.schedule_at(when, [&, i] {
      dispatched.push_back(sim.now());
      if (i % 3 == 0) {
        sim.schedule_after(SimTime::us(static_cast<double>(rng.below(100))),
                           [&] { dispatched.push_back(sim.now()); });
      }
    }));
  }
  // Cancel a random subset up-front.
  int cancelled = 0;
  for (int i = 0; i < 40; ++i) {
    if (sim.cancel(handles[rng.below(handles.size())])) ++cancelled;
  }
  sim.run();
  EXPECT_TRUE(std::is_sorted(dispatched.begin(), dispatched.end()));
  EXPECT_GE(dispatched.size(), 200u - static_cast<std::size_t>(cancelled));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST_P(FuzzSeeds, FairShareConservesBytesAndTerminates) {
  Rng rng{GetParam() ^ 0xfa1e};
  Simulator sim;
  FairShareResource mc(sim, "mc", 1.0e6 + static_cast<double>(rng.below(1000000)));
  double requested = 0.0;
  int completions = 0;
  const int n = 30 + static_cast<int>(rng.below(50));
  // Flows arrive over time with random sizes and caps.
  for (int i = 0; i < n; ++i) {
    const double bytes = 1.0 + static_cast<double>(rng.below(5000000));
    const double cap =
        rng.below(3) == 0 ? 1.0e4 + static_cast<double>(rng.below(100000)) : 0.0;
    const SimTime at = SimTime::ms(static_cast<double>(rng.below(5000)));
    requested += bytes;
    sim.schedule_at(at, [&, bytes, cap] {
      mc.start_flow(bytes, [&] { ++completions; }, cap);
    });
  }
  sim.run();
  EXPECT_EQ(completions, n);
  EXPECT_EQ(mc.active_flows(), 0u);
  EXPECT_NEAR(mc.bytes_completed(), requested, 1e-6 * requested);
}

TEST_P(FuzzSeeds, FairShareNeverFinishesFasterThanCapacityAllows) {
  Rng rng{GetParam() ^ 0xcab5};
  Simulator sim;
  const double capacity = 1.0e6;
  FairShareResource mc(sim, "mc", capacity);
  double total_bytes = 0.0;
  SimTime last_done;
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    const double bytes = 1000.0 + static_cast<double>(rng.below(1000000));
    total_bytes += bytes;
    mc.start_flow(bytes, [&] { last_done = sim.now(); });
  }
  sim.run();
  // All arrive at t=0; the aggregate can at best run at full capacity.
  EXPECT_GE(last_done.to_sec() + 1e-6, total_bytes / capacity);
}

TEST_P(FuzzSeeds, RcceRandomTrafficDeliversEverythingInPairFifoOrder) {
  Rng rng{GetParam() ^ 0x5cc};
  Simulator sim;
  SccChip chip(sim);
  RcceComm comm(chip);

  struct Expected {
    std::vector<int> sent;    // tags in send order per pair
    std::vector<int> got;
  };
  std::map<std::pair<CoreId, CoreId>, Expected> pairs;
  const int messages = 60;
  int delivered = 0;
  for (int tag = 0; tag < messages; ++tag) {
    const CoreId from = static_cast<CoreId>(rng.below(8));
    CoreId to = static_cast<CoreId>(rng.below(8));
    if (to == from) to = (to + 1) % 8;
    auto& exp = pairs[{from, to}];
    exp.sent.push_back(tag);
    const double bytes = 64.0 + static_cast<double>(rng.below(50000));
    // Post send and recv at random times (either side may arrive first).
    sim.schedule_at(SimTime::us(static_cast<double>(rng.below(2000))),
                    [&comm, from, to, bytes] {
                      comm.send(from, to, bytes, [] {});
                    });
    sim.schedule_at(SimTime::us(static_cast<double>(rng.below(2000))),
                    [&comm, &exp, &delivered, from, to, tag] {
                      (void)tag;
                      comm.recv(to, from, [&exp, &delivered] {
                        // Tag resolution: pair-FIFO means the i-th receive
                        // completion corresponds to the i-th send.
                        exp.got.push_back(
                            exp.sent[exp.got.size()]);
                        ++delivered;
                      });
                    });
  }
  sim.run();
  EXPECT_EQ(delivered, messages);
  EXPECT_EQ(comm.messages_delivered(), static_cast<std::uint64_t>(messages));
  for (auto& [key, exp] : pairs) {
    EXPECT_EQ(exp.got, exp.sent);
  }
}

// ---------------------------------------------------------------------------
// Queue equivalence: the d-ary key heap vs the reference binary heap.
// ---------------------------------------------------------------------------

/// One scripted event of a randomized soup: scheduled up-front at a coarse
/// time grid (heavy timestamp collisions); its callback may
/// spawn children *at the current timestamp* (stressing same-time batched
/// dispatch) and may cancel another scripted event mid-run (stressing
/// tombstones and compaction).
struct SoupEvent {
  std::uint64_t id = 0;
  std::uint64_t t_us = 0;
  int children = 0;
  std::int64_t cancel_idx = -1;
};

/// Replay one script on either engine (Simulator or reference::Scheduler —
/// both expose schedule_at/cancel/run with the same (when, seq) dispatch
/// order) and record the dispatch sequence.
template <typename Engine>
std::vector<std::uint64_t> run_event_soup(
    Engine& eng, const std::vector<SoupEvent>& script,
    const std::vector<std::size_t>& upfront_cancels) {
  std::vector<std::uint64_t> order;
  using Handle = decltype(eng.schedule_at(SimTime::zero(), [] {}));
  std::vector<Handle> handles;
  handles.reserve(script.size());
  for (const SoupEvent& ev : script) {
    auto cb = [&eng, &order, &handles, ev] {
      order.push_back(ev.id);
      if (ev.cancel_idx >= 0) {
        eng.cancel(handles[static_cast<std::size_t>(ev.cancel_idx)]);
      }
      for (int c = 0; c < ev.children; ++c) {
        const std::uint64_t child_id = ev.id * 1000 + static_cast<std::uint64_t>(c);
        // Same-timestamp child: must run within the current batch, after
        // every already-pending event of this timestamp.
        eng.schedule_at(eng.now(),
                        [&order, child_id] { order.push_back(child_id); });
      }
    };
    const SimTime when = SimTime::us(static_cast<double>(ev.t_us));
    handles.push_back(eng.schedule_at(when, std::move(cb)));
  }
  // A burst of up-front cancels (with repeats, so double-cancel paths run
  // too): enough tombstones to cross the compaction threshold in both
  // engines before the first dispatch.
  for (std::size_t idx : upfront_cancels) eng.cancel(handles[idx]);
  eng.run();
  return order;
}

std::vector<SoupEvent> make_soup_script(std::uint64_t seed,
                                        std::vector<std::size_t>* cancels) {
  Rng rng{seed};
  std::vector<SoupEvent> script;
  const std::uint64_t n = 300 + rng.below(200);
  for (std::uint64_t i = 0; i < n; ++i) {
    SoupEvent ev;
    ev.id = i + 1;
    ev.t_us = rng.below(40);  // ~10 events per timestamp on average
    ev.children = rng.below(5) == 0 ? static_cast<int>(1 + rng.below(2)) : 0;
    ev.cancel_idx = rng.below(8) == 0
                        ? static_cast<std::int64_t>(rng.below(n))
                        : std::int64_t{-1};
    script.push_back(ev);
  }
  for (int i = 0; i < 200; ++i) cancels->push_back(rng.below(n));
  return script;
}

TEST_P(FuzzSeeds, DaryQueueMatchesReferenceBinaryHeapDispatchOrder) {
  const std::uint64_t seed = GetParam() ^ 0xdeadu;
  std::vector<std::size_t> cancels;
  const std::vector<SoupEvent> script = make_soup_script(seed, &cancels);
  Simulator dary;
  reference::Scheduler binary;
  const auto dary_order = run_event_soup(dary, script, cancels);
  const auto binary_order = run_event_soup(binary, script, cancels);
  EXPECT_EQ(dary_order, binary_order) << "seed=" << seed;
  EXPECT_EQ(dary.pending(), 0u);
  EXPECT_EQ(binary.pending(), 0u);
}

TEST_P(FuzzSeeds, DaryQueueReplayHasIdenticalStatsAndOrder) {
  const std::uint64_t seed = GetParam() ^ 0xbeefu;
  std::vector<std::size_t> cancels;
  const std::vector<SoupEvent> script = make_soup_script(seed, &cancels);
  Simulator a;
  Simulator b;
  const auto order_a = run_event_soup(a, script, cancels);
  const auto order_b = run_event_soup(b, script, cancels);
  EXPECT_EQ(order_a, order_b) << "seed=" << seed;
  EXPECT_EQ(a.stats().allocs, b.stats().allocs);
  EXPECT_EQ(a.stats().compactions, b.stats().compactions);
  EXPECT_EQ(a.stats().peak_events, b.stats().peak_events);
  EXPECT_EQ(a.dispatched(), b.dispatched());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

}  // namespace
}  // namespace sccpipe
