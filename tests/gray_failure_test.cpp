// Gray-failure tolerance (sim/fault fail-slow fates + core/recovery
// detector + walkthrough mitigation ladder): the fault grammar rejects
// malformed fail-slow specs with typed errors, a factor-1.0 plan is
// byte-identical to no plan at all, the median-relative detector never
// flags a uniform slowdown, the policy ladder (off / dvfs / migrate /
// rebalance) takes exactly the actions its ceiling allows while the frame
// ledger balances to zero loss, a slow-then-dead core resolves as ONE
// escalated incident, and the whole path is deterministic from run to
// run. Also pins the LatencyHistogram's quantiles to quantile_sorted()
// bit-for-bit — the transport report's p50/p99 ride on that equivalence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sccpipe/core/recovery.hpp"
#include "sccpipe/core/walkthrough.hpp"
#include "sccpipe/filters/image.hpp"
#include "sccpipe/sim/fault.hpp"
#include "sccpipe/support/stats.hpp"

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

// Clean reference run: supplies the deterministic placement (to pick
// victim cores) and the fault-free walkthrough length (to pick onsets
// that land mid-stream).
const RunResult& clean_run() {
  static RunResult* r = new RunResult(
      run_walkthrough(shared_scene(), shared_trace(), base_config()));
  return *r;
}

SimTime mid_run_instant(double fraction) {
  return SimTime::ms(clean_run().walkthrough.to_ms() * fraction);
}

// Gray-detector tuning for the 8-frame run: windows must be wide enough
// that several stage cores report in each (the threshold is relative to
// the *median* reporter, so a window with one lone reporter can never
// flag), and K small enough that onset at 30% still leaves K suspicious
// windows before the run drains.
RunConfig gray_config(GrayPolicy policy) {
  RunConfig cfg = base_config();
  cfg.recovery.heartbeat_period = SimTime::ms(2);
  cfg.recovery.detection_deadline = SimTime::ms(5);
  cfg.gray.detect_factor = 1.2;
  cfg.gray.detect_windows = 2;
  cfg.gray.policy = policy;
  return cfg;
}

RunConfig slow_core_config(GrayPolicy policy, double factor,
                           double fraction) {
  RunConfig cfg = gray_config(policy);
  cfg.fault.seed = 11;
  const CoreId victim = clean_run().placement.pipeline_cores[1][2];
  cfg.fault.slow_cores.push_back(
      SlowCore{victim, factor, mid_run_instant(fraction)});
  return cfg;
}

void expect_same_frames(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.walkthrough, b.walkthrough);
  ASSERT_EQ(a.frame_done_ms.size(), b.frame_done_ms.size());
  for (std::size_t i = 0; i < a.frame_done_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.frame_done_ms[i], b.frame_done_ms[i]);
  }
}

void expect_ledger_balances(const GrayReport& g) {
  EXPECT_EQ(g.frames_offered, g.frames_delivered + g.frames_shed);
}

// ------------------------------------------------------- grammar rejects

TEST(GrayGrammar, AcceptedSpellings) {
  FaultPlan plan;
  ASSERT_TRUE(plan.parse("slow-core=5:4@100ms").ok());
  ASSERT_TRUE(plan.parse("slow-core=9:1.5@250ms").ok());  // repeatable
  ASSERT_EQ(plan.slow_cores.size(), 2u);
  EXPECT_EQ(plan.slow_cores[0].core, 5);
  EXPECT_DOUBLE_EQ(plan.slow_cores[0].factor, 4.0);
  EXPECT_EQ(plan.slow_cores[0].at, SimTime::ms(100));
  ASSERT_TRUE(plan.parse("degraded-link=2-3:2@50ms").ok());
  ASSERT_EQ(plan.degraded_links.size(), 1u);
  EXPECT_EQ(plan.degraded_links[0].tile_a, 2);
  EXPECT_EQ(plan.degraded_links[0].tile_b, 3);
  ASSERT_TRUE(plan.parse("intermittent-stall=7:10ms:2ms").ok());
  ASSERT_EQ(plan.stalls.size(), 1u);
  EXPECT_EQ(plan.stalls[0].period, SimTime::ms(10));
  EXPECT_EQ(plan.stalls[0].duration, SimTime::ms(2));
  EXPECT_TRUE(plan.enabled());
}

TEST(GrayGrammar, SlowCoreRejectsSpeedupsAndJunk) {
  const char* bad[] = {
      "slow-core=5:0.5@100ms",  // factor < 1 is a speed-up, not a fault
      "slow-core=5:0@100ms",    // zero factor
      "slow-core=5:-2@100ms",   // negative factor
      "slow-core=5:4",          // missing onset
      "slow-core=5@100ms",      // missing factor
      "slow-core=x:4@100ms",    // junk core
      "slow-core=5:4@banana",   // junk time
  };
  for (const char* spec : bad) {
    FaultPlan plan;
    const Status st = plan.parse(spec);
    EXPECT_FALSE(st.ok()) << spec;
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument) << spec;
  }
}

TEST(GrayGrammar, DegradedLinkRejectsSelfLinksAndJunk) {
  const char* bad[] = {
      "degraded-link=3-3:2@50ms",   // self-link
      "degraded-link=3-4:0.9@50ms", // factor < 1
      "degraded-link=3:2@50ms",     // missing endpoint
      "degraded-link=3-4:2",        // missing onset
      "degraded-link=a-b:2@50ms",   // junk tiles
  };
  for (const char* spec : bad) {
    FaultPlan plan;
    const Status st = plan.parse(spec);
    EXPECT_FALSE(st.ok()) << spec;
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument) << spec;
  }
}

TEST(GrayGrammar, StallRejectsOverlapsAndSecondTrains) {
  const char* bad[] = {
      "intermittent-stall=7:10ms:10ms",  // duration == period overlaps
      "intermittent-stall=7:10ms:15ms",  // duration > period
      "intermittent-stall=7:0ms:0ms",    // degenerate train
      "intermittent-stall=7:10ms",       // missing duration
  };
  for (const char* spec : bad) {
    FaultPlan plan;
    const Status st = plan.parse(spec);
    EXPECT_FALSE(st.ok()) << spec;
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument) << spec;
  }
  // A second train on one core always overlaps the first eventually.
  FaultPlan plan;
  ASSERT_TRUE(plan.parse("intermittent-stall=7:10ms:2ms").ok());
  const Status st = plan.parse("intermittent-stall=7:20ms:5ms");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::InvalidArgument);
}

TEST(GrayConfigValidation, TypedErrorsOnBadTuning) {
  GrayConfig cfg;  // disabled (factor 0) is always valid
  EXPECT_TRUE(validate_gray(cfg).ok());
  cfg.detect_factor = 1.0;  // the median core itself would sit on the line
  EXPECT_EQ(validate_gray(cfg).code(), StatusCode::InvalidArgument);
  cfg.detect_factor = 2.0;
  cfg.detect_windows = 0;
  EXPECT_EQ(validate_gray(cfg).code(), StatusCode::InvalidArgument);
  cfg.detect_windows = 3;
  EXPECT_TRUE(validate_gray(cfg).ok());

  GrayPolicy policy;
  EXPECT_TRUE(parse_gray_policy("off", &policy).ok());
  EXPECT_EQ(policy, GrayPolicy::Off);
  EXPECT_TRUE(parse_gray_policy("rebalance", &policy).ok());
  EXPECT_EQ(policy, GrayPolicy::Rebalance);
  EXPECT_EQ(parse_gray_policy("yolo", &policy).code(),
            StatusCode::InvalidArgument);
}

// ------------------------------------------------- histogram equivalence

TEST(LatencyHistogramTest, HistogramMatchesSortQuantiles) {
  // Deterministic mixed-scale samples: sub-bucket clusters, negatives
  // (clamp low), and values past the bucket cap (clamp high). The
  // histogram must agree with quantile_sorted() bit-for-bit — the
  // transport report's p50/p99 and the gray detector's window p50 both
  // lean on this equivalence.
  std::uint64_t s = 0x9e3779b97f4a7c15ULL;
  const auto next = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return static_cast<double>(s % 100000) / 7.0 - 100.0;
  };
  LatencyHistogram h(0.5, 64);
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) {
    const double x = next();
    h.add(x);
    samples.push_back(x);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile(q), quantile_sorted(samples, q)) << "q=" << q;
  }
  // clear() keeps the bucket spine but forgets the samples.
  h.clear();
  EXPECT_TRUE(h.empty());
  h.add(3.25);
  EXPECT_EQ(h.quantile(0.5), 3.25);
}

// --------------------------------------------------- metamorphic: factor 1

TEST(GrayMetamorphic, FactorOnePlanIsByteIdenticalToNoFault) {
  RunConfig cfg = base_config();
  ASSERT_TRUE(cfg.fault.parse("slow-core=14:1.0@10ms").ok());
  ASSERT_TRUE(cfg.fault.parse("degraded-link=2-3:1.0@10ms").ok());
  EXPECT_FALSE(cfg.fault.enabled());  // a 1.0 "fault" is no fault at all
  const RunResult r = run_walkthrough(shared_scene(), shared_trace(), cfg);
  EXPECT_FALSE(r.fault.enabled);
  expect_same_frames(r, clean_run());
}

TEST(GrayMetamorphic, UniformSlowdownNeverFlagsAnyone) {
  // Every chip core slows by the same factor from the first instant: each
  // core's EWMA baseline absorbs its own (stage-dependent) service-time
  // inflation and the median-relative threshold sees every norm move
  // together — a fleet-wide slowdown is not a *gray* failure, only an
  // outlier is.
  RunConfig cfg = gray_config(GrayPolicy::Rebalance);
  cfg.fault.seed = 11;
  for (int core = 0; core < 48; ++core) {
    cfg.fault.slow_cores.push_back(SlowCore{core, 4.0, SimTime::zero()});
  }
  const RunResult r = run_walkthrough(shared_scene(), shared_trace(), cfg);
  ASSERT_FALSE(r.fault.failed) << r.fault.failure;
  ASSERT_TRUE(r.gray.enabled);
  EXPECT_EQ(r.gray.flags_raised, 0);
  EXPECT_TRUE(r.gray.actions.empty());
  EXPECT_EQ(r.frame_done_ms.size(), 8u);
  // The slowdown itself is real even though no one is flagged.
  EXPECT_GT(r.walkthrough, clean_run().walkthrough);
  expect_ledger_balances(r.gray);
}

// ----------------------------------------------------- mitigation ladder

TEST(GrayLadder, PolicyOffObservesWithoutActing) {
  const RunResult r = run_walkthrough(
      shared_scene(), shared_trace(),
      slow_core_config(GrayPolicy::Off, 8.0, 0.3));
  ASSERT_FALSE(r.fault.failed) << r.fault.failure;
  ASSERT_TRUE(r.gray.enabled);
  ASSERT_GE(r.gray.flags_raised, 1);
  EXPECT_EQ(r.gray.dvfs_boosts, 0);
  EXPECT_EQ(r.gray.migrations, 0);
  EXPECT_EQ(r.gray.rebalances, 0);
  EXPECT_EQ(r.gray.frames_drained, 0);
  for (const GrayActionRecord& a : r.gray.actions) {
    EXPECT_EQ(a.action, "observe");
    EXPECT_GT(a.evidence.norm,
              1.2 * a.evidence.median_norm);  // evidence is attached
  }
  EXPECT_EQ(r.frame_done_ms.size(), 8u);
  expect_ledger_balances(r.gray);
  EXPECT_EQ(r.gray.frames_shed, 0u);
  EXPECT_GT(r.gray.post_mitigation_fps, 0.0);
}

TEST(GrayLadder, DvfsPolicyBoostsTheStragglersIsland) {
  const RunResult r = run_walkthrough(
      shared_scene(), shared_trace(),
      slow_core_config(GrayPolicy::Dvfs, 8.0, 0.3));
  ASSERT_FALSE(r.fault.failed) << r.fault.failure;
  ASSERT_GE(r.gray.flags_raised, 1);
  EXPECT_GE(r.gray.dvfs_boosts, 1);
  EXPECT_EQ(r.gray.migrations, 0);  // the ceiling stops below migration
  EXPECT_EQ(r.gray.rebalances, 0);
  EXPECT_EQ(r.frame_done_ms.size(), 8u);
  expect_ledger_balances(r.gray);
  EXPECT_EQ(r.gray.frames_shed, 0u);
}

TEST(GrayLadder, MigratePolicyDrainsToASpareWithoutReplay) {
  const RunResult r = run_walkthrough(
      shared_scene(), shared_trace(),
      slow_core_config(GrayPolicy::Migrate, 8.0, 0.3));
  ASSERT_FALSE(r.fault.failed) << r.fault.failure;
  EXPECT_GE(r.gray.dvfs_boosts, 1);  // rung 1 fires before rung 2
  ASSERT_GE(r.gray.migrations, 1);
  EXPECT_GE(r.recovery.spares_used, 1);
  // The straggler is alive: in-flight strips *drain* through the rebuilt
  // channels, they are not checkpoint replays after a death.
  EXPECT_EQ(r.recovery.frames_replayed, 0u);
  EXPECT_EQ(r.recovery.failures_detected, 0u);
  bool saw_migrate = false;
  for (const GrayActionRecord& a : r.gray.actions) {
    if (a.action == "migrate") {
      saw_migrate = true;
      EXPECT_GE(a.migrated_to, 0);
    }
  }
  EXPECT_TRUE(saw_migrate);
  // Mitigation never loses a frame.
  EXPECT_EQ(r.frame_done_ms.size(), 8u);
  expect_ledger_balances(r.gray);
  EXPECT_EQ(r.gray.frames_shed, 0u);
}

TEST(GrayLadder, RebalanceKicksInWhenNoSpareExists) {
  RunConfig cfg = slow_core_config(GrayPolicy::Rebalance, 8.0, 0.3);
  cfg.recovery.max_spares = 0;  // starve rung 2 so the ladder reaches 3
  const RunResult r = run_walkthrough(shared_scene(), shared_trace(), cfg);
  ASSERT_FALSE(r.fault.failed) << r.fault.failure;
  EXPECT_GE(r.gray.dvfs_boosts, 1);
  EXPECT_EQ(r.gray.migrations, 0);
  EXPECT_GE(r.gray.rebalances, 1);
  EXPECT_EQ(r.frame_done_ms.size(), 8u);
  expect_ledger_balances(r.gray);
  EXPECT_EQ(r.gray.frames_shed, 0u);
}

// --------------------------------------------------------- determinism

TEST(GrayDeterminism, IdenticalAcrossRuns) {
  const RunConfig cfg = slow_core_config(GrayPolicy::Rebalance, 8.0, 0.3);
  const RunResult a = run_walkthrough(shared_scene(), shared_trace(), cfg);
  const RunResult b = run_walkthrough(shared_scene(), shared_trace(), cfg);
  ASSERT_FALSE(a.fault.failed) << a.fault.failure;
  expect_same_frames(a, b);
  EXPECT_EQ(a.gray.flags_raised, b.gray.flags_raised);
  EXPECT_EQ(a.gray.dvfs_boosts, b.gray.dvfs_boosts);
  EXPECT_EQ(a.gray.migrations, b.gray.migrations);
  EXPECT_EQ(a.gray.rebalances, b.gray.rebalances);
  EXPECT_EQ(a.gray.frames_drained, b.gray.frames_drained);
  ASSERT_EQ(a.gray.actions.size(), b.gray.actions.size());
  for (std::size_t i = 0; i < a.gray.actions.size(); ++i) {
    EXPECT_EQ(a.gray.actions[i].action, b.gray.actions[i].action);
    EXPECT_EQ(a.gray.actions[i].core, b.gray.actions[i].core);
    EXPECT_DOUBLE_EQ(a.gray.actions[i].flagged_at_ms,
                     b.gray.actions[i].flagged_at_ms);
    EXPECT_DOUBLE_EQ(a.gray.actions[i].evidence.norm,
                     b.gray.actions[i].evidence.norm);
  }
  EXPECT_DOUBLE_EQ(a.gray.post_mitigation_fps, b.gray.post_mitigation_fps);
}

// ------------------------------------------------- slow-then-dead merge

TEST(GrayEscalation, SlowThenDeadIsOneIncident) {
  // The victim turns slow, gets flagged, then goes silent: the fail-stop
  // verdict *escalates* the open gray incident instead of opening a
  // second overlapping one, so exactly one FailureRecord exists and the
  // re-sent frames are counted once (as recovery replays).
  RunConfig cfg = gray_config(GrayPolicy::Off);
  cfg.fault.seed = 11;
  const CoreId victim = clean_run().placement.pipeline_cores[1][2];
  cfg.fault.slow_cores.push_back(
      SlowCore{victim, 8.0, mid_run_instant(0.3)});
  // The 8x slowdown stretches the walkthrough to roughly twice the clean
  // length, so 1.4x of the *clean* run is mid-stream here — late enough
  // that the detector has flagged the straggler, early enough that frames
  // are still in flight when it goes silent.
  cfg.fault.core_failures.push_back({victim, mid_run_instant(1.4)});
  const RunResult r = run_walkthrough(shared_scene(), shared_trace(), cfg);
  ASSERT_FALSE(r.fault.failed) << r.fault.failure;
  ASSERT_GE(r.gray.flags_raised, 1);
  ASSERT_EQ(r.recovery.failures.size(), 1u);
  const FailureRecord& rec = r.recovery.failures[0];
  EXPECT_EQ(rec.core, victim);
  EXPECT_TRUE(rec.gray_escalated);
  EXPECT_TRUE(rec.recovered);
  EXPECT_EQ(r.gray.escalations, 1);
  bool saw_escalation = false;
  for (const GrayActionRecord& a : r.gray.actions) {
    if (a.action == "escalate-fail-stop") saw_escalation = true;
  }
  EXPECT_TRUE(saw_escalation);
  // One coherent incident: the drain counter stays out of the replay
  // books and vice versa.
  EXPECT_EQ(r.gray.frames_drained, 0);
  EXPECT_EQ(r.recovery.failures_detected, 1u);
  EXPECT_EQ(r.frame_done_ms.size(), 8u);
}

// ------------------------------------------------------------ chaos mix

TEST(GrayChaos, SlowCorePlusCoreFailPlusBurstLossConverges) {
  const auto& cores = clean_run().placement.pipeline_cores;
  RunConfig cfg = gray_config(GrayPolicy::Rebalance);
  cfg.fault.seed = 17;
  cfg.fault.slow_cores.push_back(
      SlowCore{cores[1][2], 6.0, mid_run_instant(0.2)});
  cfg.fault.core_failures.push_back({cores[0][3], mid_run_instant(0.45)});
  cfg.fault.rcce_drop_rate = 0.03;
  cfg.fault.burst_enter_rate = 0.05;
  cfg.fault.burst_exit_rate = 0.5;
  cfg.fault.burst_loss_rate = 0.8;
  cfg.rcce.retry.max_attempts = 16;
  cfg.rcce.retry.timeout = SimTime::ms(2);

  const RunResult a = run_walkthrough(shared_scene(), shared_trace(), cfg);
  const RunResult b = run_walkthrough(shared_scene(), shared_trace(), cfg);
  // The cocktail is fully seeded: same outcome twice.
  EXPECT_EQ(a.fault.failed, b.fault.failed);
  EXPECT_EQ(a.fault.fingerprint, b.fault.fingerprint);
  expect_same_frames(a, b);
  EXPECT_EQ(a.gray.flags_raised, b.gray.flags_raised);
  EXPECT_EQ(a.gray.escalations, b.gray.escalations);

  // And the outcome is full convergence: the fail-stop remaps, the
  // straggler is mitigated, retries absorb the bursts, no frame is lost.
  ASSERT_FALSE(a.fault.failed) << a.fault.failure;
  EXPECT_EQ(a.recovery.failures_recovered, 1u);
  EXPECT_EQ(a.recovery.frames_lost, 0u);
  EXPECT_EQ(a.frame_done_ms.size(), 8u);
  expect_ledger_balances(a.gray);
  EXPECT_EQ(a.gray.frames_shed, 0u);
}

// -------------------------------------------------- weighted strip split

TEST(DivideRowsWeighted, EqualWeightsReproduceDivideRows) {
  for (const int height : {7, 80, 400, 401}) {
    for (int k = 1; k <= 7; ++k) {
      const std::vector<double> w(static_cast<std::size_t>(k), 1.0);
      EXPECT_EQ(divide_rows_weighted(height, w), divide_rows(height, k))
          << "height=" << height << " k=" << k;
    }
  }
}

TEST(DivideRowsWeighted, WeightsShiftRowsButCoverEverything) {
  const std::vector<double> w = {1.0, 0.25, 1.0};
  const auto strips = divide_rows_weighted(90, w);
  ASSERT_EQ(strips.size(), 3u);
  int total = 0, y = 0;
  for (const StripRange& s : strips) {
    EXPECT_EQ(s.y0, y);  // contiguous, in order
    EXPECT_GE(s.rows, 1);
    y += s.rows;
    total += s.rows;
  }
  EXPECT_EQ(total, 90);
  // The down-weighted middle strip is the thin one.
  EXPECT_LT(strips[1].rows, strips[0].rows);
  EXPECT_LT(strips[1].rows, strips[2].rows);
}

TEST(DivideRowsWeighted, TinyWeightStillGetsARow) {
  const auto strips = divide_rows_weighted(10, {1.0, 1e-6, 1.0});
  ASSERT_EQ(strips.size(), 3u);
  EXPECT_EQ(strips[1].rows, 1);
  EXPECT_EQ(strips[0].rows + strips[1].rows + strips[2].rows, 10);
}

}  // namespace
}  // namespace sccpipe
