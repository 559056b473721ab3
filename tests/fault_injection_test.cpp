// Deterministic fault injection (sim/fault.hpp) and the transport
// timeout/retry machinery built on it: same seed => bit-identical fault
// schedule and simulated timing; retry exhaustion => typed error, never a
// hang; zero-fault plan => bit-identical to no fault layer at all.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "sccpipe/core/walkthrough.hpp"
#include "sccpipe/sim/fault.hpp"

namespace sccpipe {
namespace {

// Shared small scene (built once; the binary's only expensive setup).
const SceneBundle& shared_scene() {
  static SceneBundle* scene = [] {
    CityParams city;
    city.blocks_x = 4;
    city.blocks_z = 4;
    return new SceneBundle(city, CameraConfig{}, 80, 8);
  }();
  return *scene;
}

const WorkloadTrace& shared_trace() {
  static WorkloadTrace* trace =
      new WorkloadTrace(WorkloadTrace::build(shared_scene(), 4));
  return *trace;
}

RunConfig base_config() {
  RunConfig cfg;
  cfg.scenario = Scenario::HostRenderer;
  cfg.pipelines = 3;
  return cfg;
}

// ------------------------------------------------------------ retry policy

TEST(RetryPolicy, BackoffGrowsExponentially) {
  RetryPolicy rp;
  rp.backoff = SimTime::ms(2);
  EXPECT_EQ(rp.backoff_after(1), SimTime::ms(2));
  EXPECT_EQ(rp.backoff_after(2), SimTime::ms(4));
  EXPECT_EQ(rp.backoff_after(3), SimTime::ms(8));
  EXPECT_EQ(rp.backoff_after(10), SimTime::ms(1024));
}

// -------------------------------------------------------------- plan parse

TEST(FaultPlan, DefaultPlanIsDisabled) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.rcce_drop_rate = 0.01;
  EXPECT_TRUE(plan.enabled());
}

TEST(FaultPlan, ParsesTheFullGrammar) {
  FaultPlan plan;
  const Status st = plan.parse(
      "seed=9;horizon=2s;window=20ms;rcce-drop=0.05;rcce-delay=0.1:3ms;"
      "rcce-corrupt=0.02;host-corrupt=0.03;"
      "host-drop=0.01;host-delay=0.2:500us;reorder=0.05:2ms;"
      "duplicate=0.04:1ms;burst-loss=0.01:0.2:0.9;"
      "link-degrade=3:0.5;link-down=2;"
      "router-degrade=1:0.25;mc-degrade=2:0.75;mc-stall=1;core-fail=7@150ms");
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_EQ(plan.horizon, SimTime::sec(2));
  EXPECT_EQ(plan.window, SimTime::ms(20));
  EXPECT_DOUBLE_EQ(plan.rcce_drop_rate, 0.05);
  EXPECT_DOUBLE_EQ(plan.rcce_delay_rate, 0.1);
  EXPECT_EQ(plan.rcce_delay, SimTime::ms(3));
  EXPECT_DOUBLE_EQ(plan.host_drop_rate, 0.01);
  EXPECT_DOUBLE_EQ(plan.host_delay_rate, 0.2);
  EXPECT_EQ(plan.host_delay, SimTime::us(500));
  EXPECT_DOUBLE_EQ(plan.rcce_corrupt_rate, 0.02);
  EXPECT_DOUBLE_EQ(plan.host_corrupt_rate, 0.03);
  EXPECT_DOUBLE_EQ(plan.host_reorder_rate, 0.05);
  EXPECT_EQ(plan.host_reorder_delay, SimTime::ms(2));
  EXPECT_DOUBLE_EQ(plan.host_duplicate_rate, 0.04);
  EXPECT_EQ(plan.host_duplicate_lag, SimTime::ms(1));
  EXPECT_DOUBLE_EQ(plan.burst_enter_rate, 0.01);
  EXPECT_DOUBLE_EQ(plan.burst_exit_rate, 0.2);
  EXPECT_DOUBLE_EQ(plan.burst_loss_rate, 0.9);
  ASSERT_EQ(plan.core_failures.size(), 1u);
  EXPECT_EQ(plan.core_failures[0].core, 7);
  EXPECT_EQ(plan.core_failures[0].at, SimTime::ms(150));
  EXPECT_EQ(plan.link_degrade_count, 3);
  EXPECT_DOUBLE_EQ(plan.link_degrade_factor, 0.5);
  EXPECT_EQ(plan.link_down_count, 2);
  EXPECT_EQ(plan.router_degrade_count, 1);
  EXPECT_EQ(plan.mc_degrade_count, 2);
  EXPECT_DOUBLE_EQ(plan.mc_degrade_factor, 0.75);
  EXPECT_EQ(plan.mc_stall_count, 1);
  EXPECT_TRUE(plan.enabled());
}

TEST(FaultPlan, RejectsMalformedInput) {
  FaultPlan plan;
  const Status unknown = plan.parse("bogus-key=1");
  EXPECT_EQ(unknown.code(), StatusCode::InvalidArgument);
  EXPECT_FALSE(unknown.message().empty());
  EXPECT_FALSE(plan.parse("rcce-drop=1.5").ok());  // rate out of [0, 1]
  EXPECT_FALSE(plan.parse("rcce-drop=abc").ok());
  EXPECT_FALSE(plan.parse("horizon=12parsecs").ok());
  // Times past 1e15 ns would overflow the clock; 1e15 ns itself is kept.
  EXPECT_FALSE(plan.parse("window=1e300ms").ok());
  EXPECT_FALSE(plan.parse("host-delay=0.5:1e16ns").ok());
  EXPECT_TRUE(plan.parse("horizon=1e6s").ok());
  EXPECT_FALSE(plan.parse("window=0").ok());  // scheduled faults need both
  EXPECT_FALSE(plan.parse("horizon=0ms").ok());
  EXPECT_FALSE(plan.parse("link-degrade=3:2").ok());  // factor > 1
  EXPECT_FALSE(plan.parse("link-degrade=3:").ok());   // empty factor
  EXPECT_FALSE(plan.parse("rcce-drop").ok());         // missing =
  EXPECT_FALSE(plan.parse("core-fail=5").ok());       // missing @time
  EXPECT_FALSE(plan.parse("core-fail=-1@10ms").ok()); // negative core
  EXPECT_FALSE(plan.parse("reorder=1.5").ok());       // rate out of [0, 1]
  EXPECT_FALSE(plan.parse("reorder=0.1:xyz").ok());   // bad delay
  EXPECT_FALSE(plan.parse("duplicate=-0.1").ok());    // negative rate
  EXPECT_FALSE(plan.parse("burst-loss=0.1").ok());    // missing exit rate
  EXPECT_FALSE(plan.parse("burst-loss=0.1:2").ok());  // exit rate > 1
  EXPECT_FALSE(plan.parse("burst-loss=0.1:0.2:9").ok());  // loss > 1
}

// ------------------------------------------------------ schedule determinism

FaultPlan window_heavy_plan(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.horizon = SimTime::sec(2);
  plan.window = SimTime::ms(10);
  plan.link_degrade_count = 4;
  plan.link_down_count = 2;
  plan.router_degrade_count = 2;
  plan.mc_degrade_count = 2;
  plan.mc_stall_count = 1;
  return plan;
}

TEST(FaultInjector, SameSeedSameSchedule) {
  const FaultPlan plan = window_heavy_plan(1234);
  FaultInjector a(plan, 96, 24, 4);
  FaultInjector b(plan, 96, 24, 4);
  ASSERT_EQ(a.schedule().size(), b.schedule().size());
  EXPECT_EQ(a.schedule().size(), 11u);  // the five counts above
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  for (std::size_t i = 0; i < a.schedule().size(); ++i) {
    EXPECT_EQ(a.schedule()[i].kind, b.schedule()[i].kind);
    EXPECT_EQ(a.schedule()[i].start, b.schedule()[i].start);
    EXPECT_EQ(a.schedule()[i].target, b.schedule()[i].target);
  }
}

TEST(FaultInjector, DifferentSeedDifferentSchedule) {
  FaultInjector a(window_heavy_plan(1), 96, 24, 4);
  FaultInjector b(window_heavy_plan(2), 96, 24, 4);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(FaultInjector, MessageFatesAreDeterministic) {
  FaultPlan plan;
  plan.seed = 77;
  plan.rcce_drop_rate = 0.3;
  plan.rcce_delay_rate = 0.3;
  FaultInjector a(plan, 96, 24, 4);
  FaultInjector b(plan, 96, 24, 4);
  for (int i = 0; i < 200; ++i) {
    SimTime ea = SimTime::zero(), eb = SimTime::zero();
    const MessageFate da = a.rcce_message_fate(SimTime::ms(i), 0, 1, &ea);
    const MessageFate db = b.rcce_message_fate(SimTime::ms(i), 0, 1, &eb);
    EXPECT_EQ(da, db);
    EXPECT_EQ(ea, eb);
  }
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_GT(a.rcce_drops(), 0u);
  EXPECT_GT(a.rcce_delays(), 0u);
}

TEST(FaultInjector, LinkDownWindowDelaysAndDegrades) {
  FaultPlan plan;
  plan.seed = 5;
  plan.link_down_count = 1;
  plan.horizon = SimTime::sec(1);
  plan.window = SimTime::ms(50);
  FaultInjector inj(plan, 96, 24, 4);
  ASSERT_EQ(inj.schedule().size(), 1u);
  const FaultEvent& ev = inj.schedule().front();
  EXPECT_EQ(ev.kind, FaultKind::LinkDown);
  // Inside the window the link is unavailable until the window's end;
  // outside it answers immediately.
  const SimTime mid = ev.start + SimTime::ms(1);
  EXPECT_EQ(inj.link_available(ev.target, mid), ev.end);
  EXPECT_EQ(inj.link_available(ev.target, ev.end), ev.end);
  EXPECT_EQ(inj.link_available(ev.target, SimTime::zero()), SimTime::zero());
  // Other links are unaffected.
  const int other = (ev.target + 1) % 96;
  EXPECT_EQ(inj.link_available(other, mid), mid);
}

// ---------------------------------------------- queries vs a full scan

// Test-local oracles: every window query as a plain scan of schedule(),
// with no shortcut for a kind the plan does not contain.
SimTime scan_available(const FaultInjector& inj, FaultKind kind, int target,
                       SimTime at) {
  SimTime t = at;
  for (bool moved = true; moved;) {
    moved = false;
    for (const FaultEvent& ev : inj.schedule()) {
      if (ev.kind == kind && ev.target == target && ev.start <= t &&
          t < ev.end) {
        t = ev.end;
        moved = true;
      }
    }
  }
  return t;
}

double scan_slowdown(const FaultInjector& inj, FaultKind kind, int target,
                     SimTime at) {
  double factor = 1.0;
  for (const FaultEvent& ev : inj.schedule()) {
    if (ev.kind == kind && ev.target == target && ev.start <= at &&
        at < ev.end) {
      factor = std::min(factor, ev.factor);
    }
  }
  return 1.0 / factor;
}

// Compares all eight window queries with the scan on every target and on a
// time grid plus each event's edges; returns the number of queries whose
// answer a planned fault moved, so a caller can tell the plan was reached.
int expect_queries_match_scan(const FaultInjector& inj, int links, int tiles,
                              int mcs, int cores, const std::string& name) {
  std::vector<SimTime> times;
  for (int i = 0; i <= 120; ++i) {
    times.push_back(inj.plan().horizon * (i / 100.0));
  }
  for (const FaultEvent& ev : inj.schedule()) {
    for (const SimTime t : {ev.start, ev.end}) {
      times.push_back(t);
      if (t > SimTime::zero()) times.push_back(t - SimTime::ns(1));
    }
  }
  int moved = 0;
  const auto avail = [&](SimTime got, FaultKind kind, int target, SimTime at) {
    EXPECT_EQ(got, scan_available(inj, kind, target, at))
        << name << " " << fault_kind_name(kind) << " target " << target
        << " at " << at.to_ns();
    moved += got != at;
  };
  const auto slow = [&](double got, FaultKind kind, int target, SimTime at) {
    EXPECT_EQ(got, scan_slowdown(inj, kind, target, at))
        << name << " " << fault_kind_name(kind) << " target " << target
        << " at " << at.to_ns();
    moved += got != 1.0;
  };
  for (const SimTime at : times) {
    for (int l = 0; l < links; ++l) {
      avail(inj.link_available(l, at), FaultKind::LinkDown, l, at);
      slow(inj.link_slowdown(l, at), FaultKind::LinkDegrade, l, at);
      slow(inj.link_latency_factor(l, at), FaultKind::LinkLatency, l, at);
    }
    for (int t = 0; t < tiles; ++t) {
      slow(inj.router_slowdown(t, at), FaultKind::RouterDegrade, t, at);
    }
    for (int m = 0; m < mcs; ++m) {
      avail(inj.mc_available(m, at), FaultKind::McStall, m, at);
      slow(inj.mc_slowdown(m, at), FaultKind::McDegrade, m, at);
    }
    for (int c = 0; c < cores; ++c) {
      avail(inj.core_available(c, at), FaultKind::CoreStall, c, at);
      slow(inj.core_slowdown(c, at), FaultKind::SlowCore, c, at);
    }
  }
  return moved;
}

TEST(FaultInjector, EveryQueryMatchesAFullScanOfTheSchedule) {
  const auto base = [](std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.horizon = SimTime::ms(200);
    plan.window = SimTime::ms(20);
    return plan;
  };
  const std::vector<std::pair<FaultKind, void (*)(FaultPlan&)>> alone = {
      {FaultKind::LinkDegrade, [](FaultPlan& p) { p.link_degrade_count = 4; }},
      {FaultKind::LinkDown, [](FaultPlan& p) { p.link_down_count = 4; }},
      {FaultKind::RouterDegrade,
       [](FaultPlan& p) { p.router_degrade_count = 3; }},
      {FaultKind::McDegrade, [](FaultPlan& p) { p.mc_degrade_count = 2; }},
      {FaultKind::McStall, [](FaultPlan& p) { p.mc_stall_count = 2; }},
      {FaultKind::SlowCore,
       [](FaultPlan& p) {
         p.slow_cores.push_back({14, 4.0, SimTime::ms(30)});
       }},
      {FaultKind::LinkLatency,
       [](FaultPlan& p) {
         p.degraded_links.push_back({1, 2, 3.0, SimTime::ms(40)});
       }},
      {FaultKind::CoreStall,
       [](FaultPlan& p) {
         p.stalls.push_back({26, SimTime::ms(15), SimTime::ms(4)});
       }},
  };
  for (const std::uint64_t seed : {1u, 7u, 23u}) {
    FaultPlan all = base(seed);
    for (const auto& [kind, add] : alone) {
      FaultPlan plan = base(seed);
      add(plan);
      add(all);
      const FaultInjector inj(plan, 96, 24, 4, 6);
      for (const auto& [other, unused] : alone) {
        EXPECT_EQ(inj.planned(other), other == kind)
            << fault_kind_name(kind) << " plan, " << fault_kind_name(other);
      }
      EXPECT_GT(expect_queries_match_scan(inj, 96, 24, 4, 48,
                                          fault_kind_name(kind)),
                0)
          << fault_kind_name(kind) << " seed " << seed;
    }
    const FaultInjector every(all, 96, 24, 4, 6);
    EXPECT_GT(expect_queries_match_scan(every, 96, 24, 4, 48, "all"), 0);

    // No window kind: a disabled plan, and message fates alone.
    FaultPlan messages = base(seed);
    messages.rcce_drop_rate = 0.1;
    for (const FaultPlan& none : {base(seed), messages}) {
      const FaultInjector inj(none, 96, 24, 4, 6);
      EXPECT_EQ(expect_queries_match_scan(inj, 96, 24, 4, 48, "none"), 0);
    }

    // Overlapping LinkDown windows on one link: a message waits out every
    // window it runs into.
    FaultPlan chained = base(seed);
    chained.link_down_count = 8;
    chained.window = SimTime::ms(60);
    const FaultInjector one_link(chained, 1, 24, 4);
    const std::vector<FaultEvent>& downs = one_link.schedule();
    EXPECT_TRUE(std::adjacent_find(downs.begin(), downs.end(),
                                   [](const FaultEvent& a,
                                      const FaultEvent& b) {
                                     return b.start < a.end;
                                   }) != downs.end());
    EXPECT_GT(expect_queries_match_scan(one_link, 1, 24, 4, 48, "chained"),
              0);
  }
}

// ------------------------------------------------------- walkthrough runs

TEST(FaultWalkthrough, SameSeedBitIdenticalRun) {
  RunConfig cfg = base_config();
  cfg.fault = window_heavy_plan(42);
  cfg.fault.rcce_drop_rate = 0.05;
  cfg.fault.rcce_delay_rate = 0.05;
  cfg.fault.host_drop_rate = 0.02;
  cfg.rcce.retry.max_attempts = 16;
  cfg.rcce.retry.timeout = SimTime::ms(2);

  const RunResult a = run_walkthrough(shared_scene(), shared_trace(), cfg);
  const RunResult b = run_walkthrough(shared_scene(), shared_trace(), cfg);
  ASSERT_FALSE(a.fault.failed) << a.fault.failure;
  EXPECT_GT(a.fault.fingerprint, 0u);
  // Bit-identical fault schedule + decisions...
  EXPECT_EQ(a.fault.fingerprint, b.fault.fingerprint);
  EXPECT_EQ(a.fault.rcce_drops, b.fault.rcce_drops);
  EXPECT_EQ(a.fault.rcce_retransmissions, b.fault.rcce_retransmissions);
  // ...and therefore bit-identical simulated timing.
  EXPECT_EQ(a.walkthrough, b.walkthrough);
  ASSERT_EQ(a.frame_done_ms.size(), b.frame_done_ms.size());
  for (std::size_t i = 0; i < a.frame_done_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.frame_done_ms[i], b.frame_done_ms[i]);
  }
}

TEST(FaultWalkthrough, ZeroFaultPlanIsIdenticalToNoFaultLayer) {
  const RunConfig plain = base_config();
  RunConfig zero = base_config();
  zero.fault.seed = 999;  // a seed alone enables nothing
  ASSERT_FALSE(zero.fault.enabled());

  const RunResult a = run_walkthrough(shared_scene(), shared_trace(), plain);
  const RunResult b = run_walkthrough(shared_scene(), shared_trace(), zero);
  EXPECT_FALSE(b.fault.enabled);
  EXPECT_EQ(a.walkthrough, b.walkthrough);
  ASSERT_EQ(a.frame_done_ms.size(), b.frame_done_ms.size());
  for (std::size_t i = 0; i < a.frame_done_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.frame_done_ms[i], b.frame_done_ms[i]);
  }
}

TEST(FaultWalkthrough, RetryExhaustionSurfacesTypedErrorNotAHang) {
  RunConfig cfg = base_config();
  cfg.fault.seed = 3;
  cfg.fault.rcce_drop_rate = 1.0;  // every payload is lost
  cfg.rcce.retry.max_attempts = 3;
  cfg.rcce.retry.timeout = SimTime::ms(1);

  // If retry exhaustion hung the rendezvous this call would never return
  // (the ctest TIMEOUT would flag it); instead the run drains and reports.
  const RunResult r = run_walkthrough(shared_scene(), shared_trace(), cfg);
  EXPECT_TRUE(r.fault.failed);
  EXPECT_EQ(r.fault.failure_code, StatusCode::RetriesExhausted);
  EXPECT_FALSE(r.fault.failure.empty());
  EXPECT_FALSE(r.fault.stage_errors.empty());
  EXPECT_EQ(r.fault.frames_completed, 0);
  EXPECT_GE(r.fault.rcce_transfers_failed, 1u);
  // Two retransmissions per failed transfer (3 attempts).
  EXPECT_EQ(r.fault.rcce_retransmissions, 2u * r.fault.rcce_transfers_failed);
  EXPECT_GT(r.walkthrough, SimTime::zero());
}

TEST(FaultWalkthrough, DelaysAloneDegradeTimingButComplete) {
  const RunResult clean =
      run_walkthrough(shared_scene(), shared_trace(), base_config());

  RunConfig cfg = base_config();
  cfg.fault.seed = 11;
  cfg.fault.rcce_delay_rate = 0.5;
  cfg.fault.rcce_delay = SimTime::ms(2);
  cfg.fault.host_delay_rate = 0.5;
  cfg.fault.host_delay = SimTime::ms(2);
  const RunResult r = run_walkthrough(shared_scene(), shared_trace(), cfg);
  ASSERT_FALSE(r.fault.failed) << r.fault.failure;
  EXPECT_EQ(r.frame_done_ms.size(), 8u);
  EXPECT_GT(r.fault.rcce_delays + r.fault.host_delays, 0u);
  EXPECT_GE(r.walkthrough, clean.walkthrough);
}

TEST(FaultWalkthrough, WindowFaultsDegradeTimingButComplete) {
  const RunConfig plain = base_config();
  const RunResult clean =
      run_walkthrough(shared_scene(), shared_trace(), plain);

  RunConfig cfg = base_config();
  cfg.fault.seed = 21;
  cfg.fault.horizon = clean.walkthrough;  // windows land inside the run
  cfg.fault.window = SimTime::ms(30);
  cfg.fault.link_down_count = 4;
  cfg.fault.mc_stall_count = 2;
  cfg.fault.mc_degrade_count = 2;
  cfg.fault.router_degrade_count = 2;
  const RunResult r = run_walkthrough(shared_scene(), shared_trace(), cfg);
  ASSERT_FALSE(r.fault.failed) << r.fault.failure;
  EXPECT_EQ(r.frame_done_ms.size(), 8u);
  // NoC/MC faults never lose payloads — they only cost time.
  EXPECT_GE(r.walkthrough, clean.walkthrough);
}

TEST(FaultWalkthrough, HostLinkLossRecoversWithRetries) {
  RunConfig cfg = base_config();
  cfg.fault.seed = 8;
  cfg.fault.host_drop_rate = 0.3;
  cfg.rcce.retry.max_attempts = 16;
  cfg.rcce.retry.timeout = SimTime::ms(2);
  const RunResult r = run_walkthrough(shared_scene(), shared_trace(), cfg);
  ASSERT_FALSE(r.fault.failed) << r.fault.failure;
  EXPECT_EQ(r.frame_done_ms.size(), 8u);
  EXPECT_GT(r.fault.host_drops, 0u);
  EXPECT_EQ(r.fault.host_retransmissions, r.fault.host_drops);
}

TEST(FaultWalkthrough, TimelineGainsFaultAnnotations) {
  RunConfig cfg = base_config();
  cfg.fault.seed = 13;
  cfg.fault.rcce_drop_rate = 0.1;
  cfg.fault.link_down_count = 2;
  cfg.rcce.retry.max_attempts = 16;
  cfg.rcce.retry.timeout = SimTime::ms(2);
  TimelineRecorder timeline;
  cfg.timeline = &timeline;
  const RunResult r = run_walkthrough(shared_scene(), shared_trace(), cfg);
  ASSERT_FALSE(r.fault.failed) << r.fault.failure;
  std::size_t fault_spans = 0;
  for (const TimelineRecorder::Span& s : timeline.spans()) {
    if (s.category == "fault") ++fault_spans;
  }
  // The two scheduled windows plus one span per message-fate decision.
  EXPECT_EQ(fault_spans, 2u + r.fault.rcce_drops + r.fault.rcce_delays +
                             r.fault.host_drops + r.fault.host_delays);
}

}  // namespace
}  // namespace sccpipe
