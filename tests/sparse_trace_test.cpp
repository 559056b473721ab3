// Sparse workload traces: a trace built for just the strip counts a run
// reads ({1, cfg.pipelines}) must drive run_walkthrough to exactly the
// result of the all-k trace, for every feasible configuration and for the
// chaos paths that reshape pipelines mid-run. Also covers the dry-run
// config validation the CLI and the sweep call before any build. Part of
// the ThreadSanitizer job (the parallel {1, k} build).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sccpipe/exec/executor.hpp"

namespace sccpipe {
namespace {

constexpr int kFullK = 8;

const SceneBundle& shared_scene() {
  static SceneBundle* scene = [] {
    CityParams city;
    city.blocks_x = 4;
    city.blocks_z = 4;
    return new SceneBundle(city, CameraConfig{}, 80, 8);
  }();
  return *scene;
}

const WorkloadTrace& full_trace() {
  static WorkloadTrace* trace =
      new WorkloadTrace(WorkloadTrace::build(shared_scene(), kFullK));
  return *trace;
}

WorkloadTrace sparse_trace(const RunConfig& cfg) {
  return WorkloadTrace::build(shared_scene(), strip_counts_for({cfg}));
}

// Every field of a RunResult that a run computes, flattened to text so a
// mismatch prints the field that diverged.
std::string fingerprint(const RunResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << "walkthrough " << r.walkthrough.to_ns() << " events "
     << r.events_dispatched << '\n';
  os << "chip " << r.chip_energy_joules << ' ' << r.mean_chip_watts
     << " host " << r.host_busy_sec << ' ' << r.host_extra_energy_joules
     << '\n';
  for (const double ms : r.frame_done_ms) os << "frame " << ms << '\n';
  for (const StageReport& s : r.stages) {
    os << "stage " << stage_name(s.kind) << ' ' << s.pipeline << ' '
       << s.core << ' ' << s.busy_ms << ' ' << s.frames << ' '
       << s.wait_ms.q1 << ' ' << s.wait_ms.median << ' ' << s.wait_ms.q3
       << '\n';
  }
  for (const auto& pl : r.placement.pipeline_cores) {
    os << "pipeline";
    for (const CoreId c : pl) os << ' ' << c;
    os << '\n';
  }
  os << "fabric " << r.fabric.mesh_total_bytes << ' '
     << r.fabric.mesh_max_link_bytes;
  for (const double b : r.fabric.mc_bulk_bytes) os << ' ' << b;
  for (const auto p : r.fabric.mc_latency_streams_peak) os << ' ' << p;
  os << '\n';
  const FaultReport& f = r.fault;
  os << "fault " << f.failed << ' ' << f.failure << ' '
     << f.frames_completed << ' ' << f.fingerprint << ' ' << f.rcce_drops
     << ' ' << f.host_drops << ' ' << f.rcce_retransmissions << ' '
     << f.host_retransmissions << '\n';
  const RecoveryReport& rc = r.recovery;
  os << "recovery " << rc.failures_detected << ' ' << rc.failures_recovered
     << ' ' << rc.frames_replayed << ' ' << rc.frames_lost << ' '
     << rc.spares_used << ' ' << rc.pipelines_lost << ' '
     << rc.heartbeats_sent << ' ' << rc.checkpoint_writes << ' '
     << rc.checkpoint_replays << ' ' << rc.max_detection_latency_ms << ' '
     << rc.post_failure_fps << '\n';
  for (const FailureRecord& fr : rc.failures) {
    os << "failure " << fr.core << ' ' << fr.pipeline << ' '
       << fr.detected_at_ms << ' ' << fr.remapped_to << ' ' << fr.degraded
       << '\n';
  }
  const GrayReport& g = r.gray;
  os << "gray " << g.flags_raised << ' ' << g.dvfs_boosts << ' '
     << g.migrations << ' ' << g.rebalances << ' ' << g.escalations << ' '
     << g.frames_drained << ' ' << g.frames_offered << ' '
     << g.frames_delivered << ' ' << g.frames_shed << ' '
     << g.post_mitigation_fps << '\n';
  for (const GrayActionRecord& a : g.actions) {
    os << "action " << a.core << ' ' << a.action << ' ' << a.flagged_at_ms
       << ' ' << a.after_stage_ms << '\n';
  }
  os << "transport " << r.transport.csv() << '\n';
  return os.str();
}

/// Runs \p cfg on the full and on its {1, k} trace; returns the sparse run.
RunResult expect_sparse_matches_full(const RunConfig& cfg,
                                     const std::string& label) {
  const RunResult full = run_walkthrough(shared_scene(), full_trace(), cfg);
  RunResult sparse = run_walkthrough(shared_scene(), sparse_trace(cfg), cfg);
  EXPECT_EQ(fingerprint(full), fingerprint(sparse)) << label;
  return sparse;
}

// ------------------------------------------------------------ StripCounts

TEST(StripCounts, SetOperations) {
  const StripCounts s{4, 1, 4};
  EXPECT_TRUE(s.contains(1));
  EXPECT_TRUE(s.contains(4));
  EXPECT_FALSE(s.contains(2));
  EXPECT_FALSE(s.contains(0));
  EXPECT_FALSE(s.contains(StripCounts::kMax + 1));
  EXPECT_EQ(s.max(), 4);
  EXPECT_EQ(s.values(), (std::vector<int>{1, 4}));
  EXPECT_EQ(s.to_string(), "{1,4}");
  EXPECT_EQ(StripCounts::up_to(3), (StripCounts{1, 2, 3}));
  EXPECT_EQ(StripCounts{}.max(), 0);
  StripCounts bad;
  EXPECT_THROW(bad.insert(0), CheckError);
  EXPECT_THROW(bad.insert(StripCounts::kMax + 1), CheckError);
}

TEST(StripCounts, ForConfigsIsOnePlusEachPipelineCount) {
  RunConfig a;
  a.pipelines = 5;
  RunConfig b;
  b.pipelines = 3;
  EXPECT_EQ(strip_counts_for({a}), (StripCounts{1, 5}));
  EXPECT_EQ(strip_counts_for({a, b, a}), (StripCounts{1, 3, 5}));
  EXPECT_EQ(strip_counts_for({}), (StripCounts{1}));
}

// ------------------------------------------------------------ sparse trace

TEST(SparseTrace, ReadingAnUnbuiltStripCountThrows) {
  const WorkloadTrace trace =
      WorkloadTrace::build(shared_scene(), StripCounts{1, 3});
  EXPECT_EQ(trace.max_k(), 3);
  EXPECT_NO_THROW(trace.load(0, 3, 2));
  EXPECT_THROW(trace.load(0, 2, 0), CheckError);
  EXPECT_THROW(trace.load(0, 4, 0), CheckError);
  RunConfig cfg;
  cfg.pipelines = 2;  // reads k = 2, which {1, 3} lacks
  EXPECT_THROW(run_walkthrough(shared_scene(), trace, cfg), CheckError);
  const WorkloadTrace no_whole =
      WorkloadTrace::build(shared_scene(), StripCounts{3});
  cfg.pipelines = 3;  // reads k = 1 too
  EXPECT_THROW(run_walkthrough(shared_scene(), no_whole, cfg), CheckError);
}

TEST(SparseTrace, StripLoadsEqualTheFullTrace) {
  const WorkloadTrace sparse =
      WorkloadTrace::build(shared_scene(), StripCounts{1, 5, 7});
  for (int frame = 0; frame < sparse.frame_count(); ++frame) {
    for (const int k : sparse.strip_counts().values()) {
      for (int s = 0; s < k; ++s) {
        const RenderLoad& a = full_trace().load(frame, k, s);
        const RenderLoad& b = sparse.load(frame, k, s);
        EXPECT_EQ(a.nodes_visited, b.nodes_visited);
        EXPECT_EQ(a.tris_accepted, b.tris_accepted);
        EXPECT_EQ(a.projected_pixels, b.projected_pixels);
      }
    }
  }
}

TEST(SparseTrace, ParallelBuildIsBitIdentical) {
  for (const int k : {4, 7}) {
    const StripCounts ks{1, k};
    const WorkloadTrace serial = WorkloadTrace::build(shared_scene(), ks);
    const WorkloadTrace parallel =
        WorkloadTrace::build(shared_scene(), ks, exec::trace_runner(8));
    ASSERT_EQ(parallel.strip_counts(), ks);
    for (int frame = 0; frame < serial.frame_count(); ++frame) {
      for (const int kk : ks.values()) {
        for (int s = 0; s < kk; ++s) {
          const RenderLoad& a = serial.load(frame, kk, s);
          const RenderLoad& b = parallel.load(frame, kk, s);
          EXPECT_EQ(a.nodes_visited, b.nodes_visited);
          EXPECT_EQ(a.tris_accepted, b.tris_accepted);
          EXPECT_EQ(a.projected_pixels, b.projected_pixels);
        }
      }
    }
  }
}

TEST(SparseTrace, RunsMatchTheFullTraceOnEveryFeasibleConfig) {
  int feasible = 0;
  for (const Scenario sc :
       {Scenario::SingleRenderer, Scenario::RendererPerPipeline,
        Scenario::HostRenderer}) {
    for (const Arrangement ar :
         {Arrangement::Unordered, Arrangement::Ordered, Arrangement::Flipped}) {
      for (const PlatformKind pf : {PlatformKind::Scc, PlatformKind::Cluster}) {
        for (int k = 1; k <= kFullK; ++k) {
          RunConfig cfg;
          cfg.scenario = sc;
          cfg.arrangement = ar;
          cfg.platform = pf;
          cfg.pipelines = k;
          if (!validate_run_config(cfg).ok()) continue;
          ++feasible;
          expect_sparse_matches_full(
              cfg, std::string(scenario_name(sc)) + " " +
                       arrangement_name(ar) +
                       (pf == PlatformKind::Scc ? " scc k=" : " cluster k=") +
                       std::to_string(k));
        }
      }
    }
  }
  // k <= 8 per (ordered, flipped, unordered). SCC: 1-rend and mcpc 7+7+8,
  // n-rend 7+7+7. Cluster node: 1-rend and mcpc 8+8+8, n-rend 7+7+8.
  EXPECT_EQ(feasible, 2 * 22 + 21 + 2 * 24 + 22);
}

// Chaos paths that reshape pipelines mid-run still read only k = 1 and
// k = cfg.pipelines.
class SparseChaos : public ::testing::Test {
 protected:
  static RunConfig base(Scenario sc) {
    RunConfig cfg;
    cfg.scenario = sc;
    cfg.pipelines = 3;
    return cfg;
  }
  static RunResult clean(const RunConfig& cfg) {
    return run_walkthrough(shared_scene(), full_trace(), cfg);
  }
  static SimTime at(const RunResult& clean_run, double fraction) {
    return SimTime::ms(clean_run.walkthrough.to_ms() * fraction);
  }
};

TEST_F(SparseChaos, McpcCoreFailRemapAndDegrade) {
  const RunConfig cfg0 = base(Scenario::HostRenderer);
  const RunResult c = clean(cfg0);
  for (const int spares : {-1, 0}) {
    RunConfig cfg = cfg0;
    cfg.fault.seed = 4;
    cfg.fault.core_failures.push_back(
        {c.placement.pipeline_cores[1][2], at(c, 0.3)});
    cfg.recovery.heartbeat_period = SimTime::us(200);
    cfg.recovery.detection_deadline = SimTime::us(500);
    cfg.recovery.max_spares = spares;
    const RunResult r =
        expect_sparse_matches_full(cfg, spares == 0 ? "degrade" : "remap");
    EXPECT_EQ(r.recovery.failures_detected, 1);
    EXPECT_EQ(r.recovery.spares_used, spares == 0 ? 0 : 1);
    EXPECT_EQ(r.recovery.pipelines_lost, spares == 0 ? 1 : 0);
  }
}

TEST_F(SparseChaos, NRendGrayLadderUnderRebalancePolicy) {
  // The rebalance policy lets the ladder climb as far as n-rend goes:
  // DVFS boost, then drain-migration of the straggler onto a spare.
  const RunConfig cfg0 = base(Scenario::RendererPerPipeline);
  const RunResult c = clean(cfg0);
  RunConfig cfg = cfg0;
  cfg.recovery.heartbeat_period = SimTime::ms(2);
  cfg.recovery.detection_deadline = SimTime::ms(5);
  cfg.gray.detect_factor = 1.2;
  cfg.gray.detect_windows = 2;
  cfg.gray.policy = GrayPolicy::Rebalance;
  cfg.fault.seed = 11;
  cfg.fault.slow_cores.push_back(
      SlowCore{c.placement.pipeline_cores[1][4], 8.0, at(c, 0.3)});
  const RunResult r = expect_sparse_matches_full(cfg, "n-rend gray ladder");
  EXPECT_GE(r.gray.dvfs_boosts, 1);
  EXPECT_GE(r.gray.migrations, 1);
}

TEST_F(SparseChaos, McpcOverload) {
  RunConfig cfg = base(Scenario::HostRenderer);
  cfg.overload.window = 4;
  cfg.overload.queue_depth = 2;
  cfg.overload.offered_fps = 1e5;
  cfg.overload.frame_deadline = SimTime::ms(50);
  cfg.rcce.retry.max_attempts = 8;
  ASSERT_TRUE(cfg.fault.parse("host-drop=0.1;reorder=0.05:1ms").ok());
  const RunResult r = expect_sparse_matches_full(cfg, "mcpc overload");
  EXPECT_GT(r.transport.shed_admission + r.transport.shed_deadline, 0u);
}

// ------------------------------------------------------- config dry run

TEST(RunConfigValidation, InfeasiblePlacementsAreTypedErrors) {
  RunConfig cfg;  // mcpc, ordered, SCC
  for (const int k : {0, -1, 8, 9, StripCounts::kMax + 1}) {
    cfg.pipelines = k;
    EXPECT_EQ(validate_run_config(cfg).code(), StatusCode::InvalidArgument)
        << k;
  }
  cfg.pipelines = 7;
  EXPECT_TRUE(validate_run_config(cfg).ok());
  cfg.pipelines = 8;
  cfg.scenario = Scenario::RendererPerPipeline;
  EXPECT_FALSE(validate_run_config(cfg).ok());
  cfg.arrangement = Arrangement::Unordered;
  EXPECT_FALSE(validate_run_config(cfg).ok());
  cfg.scenario = Scenario::HostRenderer;
  EXPECT_TRUE(validate_run_config(cfg).ok());
  cfg.scenario = Scenario::SingleCore;
  cfg.pipelines = 1;
  EXPECT_FALSE(validate_run_config(cfg).ok());
}

TEST(RunConfigValidation, DryRunAgreesWithThePlacement) {
  const MeshTopology scc(ChipConfig::scc().mesh_layout);
  for (const Scenario sc :
       {Scenario::SingleRenderer, Scenario::RendererPerPipeline,
        Scenario::HostRenderer}) {
    for (const Arrangement ar :
         {Arrangement::Unordered, Arrangement::Ordered, Arrangement::Flipped}) {
      for (const bool isolate : {false, true}) {
        for (int k = 1; k <= 12; ++k) {
          RunConfig cfg;
          cfg.scenario = sc;
          cfg.arrangement = ar;
          cfg.isolate_blur_tile = isolate;
          cfg.pipelines = k;
          const bool ok = validate_run_config(cfg).ok();
          if (ok) {
            EXPECT_NO_THROW(make_placement(scc, ar, placement_request(cfg)));
          } else {
            EXPECT_THROW(make_placement(scc, ar, placement_request(cfg)),
                         CheckError);
          }
        }
      }
    }
  }
}

TEST(RunConfigValidation, FaultTargetsAndExclusionsAreChecked) {
  RunConfig cfg;
  cfg.pipelines = 2;
  cfg.fault.core_failures.push_back({48, SimTime::ms(1)});  // SCC has 0..47
  EXPECT_FALSE(validate_run_config(cfg).ok());
  cfg.fault.core_failures.clear();
  cfg.fault.slow_cores.push_back(SlowCore{-1, 2.0, SimTime::ms(1)});
  EXPECT_FALSE(validate_run_config(cfg).ok());
  cfg.fault.slow_cores.clear();
  cfg.overload.window = 4;
  EXPECT_TRUE(validate_run_config(cfg).ok());
  cfg.scenario = Scenario::RendererPerPipeline;
  EXPECT_FALSE(validate_run_config(cfg).ok());
}

TEST(RunConfigValidation, DvfsLevelsAndDegradedLinksAreChecked) {
  RunConfig cfg;
  cfg.pipelines = 2;
  for (const int mhz : {7, -1, 1000}) {
    cfg.blur_mhz = mhz;
    EXPECT_EQ(validate_run_config(cfg).code(), StatusCode::InvalidArgument)
        << "blur " << mhz;
    cfg.blur_mhz = 0;
    cfg.tail_mhz = mhz;
    EXPECT_EQ(validate_run_config(cfg).code(), StatusCode::InvalidArgument)
        << "tail " << mhz;
    cfg.tail_mhz = 0;
  }
  cfg.blur_mhz = 533;
  cfg.tail_mhz = 400;
  EXPECT_TRUE(validate_run_config(cfg).ok());

  // SCC: 6x4 tiles. 0-1 and 0-6 are links; 0-7 is a diagonal, 0-99 and
  // 23-24 leave the mesh — but 23-24 is a link on the 8x4 cluster node.
  const auto with_link = [](RunConfig c, TileId a, TileId b) {
    c.fault.degraded_links.push_back(DegradedLink{a, b, 2.0, SimTime::ms(1)});
    return c;
  };
  RunConfig plain;
  plain.pipelines = 2;
  EXPECT_TRUE(validate_run_config(with_link(plain, 0, 1)).ok());
  EXPECT_TRUE(validate_run_config(with_link(plain, 6, 0)).ok());
  for (const auto& [a, b] :
       std::vector<std::pair<TileId, TileId>>{{0, 7}, {0, 99}, {-1, 0},
                                              {23, 24}, {5, 6}}) {
    EXPECT_EQ(validate_run_config(with_link(plain, a, b)).code(),
              StatusCode::InvalidArgument)
        << a << "-" << b;
  }
  RunConfig cluster = plain;
  cluster.platform = PlatformKind::Cluster;
  EXPECT_TRUE(validate_run_config(with_link(cluster, 23, 31)).ok());
  EXPECT_FALSE(validate_run_config(with_link(cluster, 31, 32)).ok());
}

TEST(RunConfigValidation, FrameSizeMustCoverTheStripCount) {
  EXPECT_TRUE(validate_frame_size(4, StripCounts{1, 4}).ok());
  EXPECT_TRUE(validate_frame_size(1, StripCounts{1}).ok());
  EXPECT_EQ(validate_frame_size(3, StripCounts{1, 4}).code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(validate_frame_size(6, StripCounts::up_to(7)).code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(validate_frame_size(0, StripCounts{1}).code(),
            StatusCode::InvalidArgument);
}

// The CLI and the sweep read --scenario(s), --arrangement(s) and
// --platform(s) through these: a typo must be rejected, never mapped to a
// default.
TEST(RunConfigValidation, ConfigNamesParseOrFail) {
  for (const PlatformKind p : {PlatformKind::Scc, PlatformKind::Cluster}) {
    PlatformKind got = p == PlatformKind::Scc ? PlatformKind::Cluster
                                              : PlatformKind::Scc;
    EXPECT_TRUE(parse_platform(platform_name(p), &got));
    EXPECT_EQ(got, p);
  }
  for (const Arrangement a : {Arrangement::Unordered, Arrangement::Ordered,
                              Arrangement::Flipped}) {
    Arrangement got = Arrangement::Unordered;
    EXPECT_TRUE(parse_arrangement(arrangement_name(a), &got));
    EXPECT_EQ(got, a);
  }
  const std::pair<const char*, Scenario> scenarios[] = {
      {"1-rend", Scenario::SingleRenderer},
      {"n-rend", Scenario::RendererPerPipeline},
      {"mcpc", Scenario::HostRenderer},
      {"external", Scenario::HostRenderer}};
  for (const auto& [name, want] : scenarios) {
    Scenario got = Scenario::SingleCore;
    EXPECT_TRUE(parse_scenario(name, &got)) << name;
    EXPECT_EQ(got, want) << name;
  }

  PlatformKind platform = PlatformKind::Cluster;
  Arrangement arrangement = Arrangement::Flipped;
  Scenario scenario = Scenario::SingleCore;
  for (const char* typo : {"clustr", "SCC", "", "scc "}) {
    EXPECT_FALSE(parse_platform(typo, &platform)) << typo;
  }
  EXPECT_FALSE(parse_arrangement("bogus", &arrangement));
  EXPECT_FALSE(parse_scenario("bogus", &scenario));
  EXPECT_FALSE(parse_scenario("", &scenario));
  // A rejected name leaves the output alone.
  EXPECT_EQ(platform, PlatformKind::Cluster);
  EXPECT_EQ(arrangement, Arrangement::Flipped);
  EXPECT_EQ(scenario, Scenario::SingleCore);
}

}  // namespace
}  // namespace sccpipe
