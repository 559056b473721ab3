#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <ios>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "sccpipe/core/walkthrough.hpp"
#include "sccpipe/filters/filters.hpp"
#include "sccpipe/sim/fault.hpp"
#include "sccpipe/support/crc.hpp"

namespace sccpipe {
namespace {

/// Shared scene for all integration tests: small city, 120x120 frames,
/// 12-frame walkthrough, up to 4 pipelines. Built once per binary.
class WalkthroughFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CityParams city;
    city.blocks_x = 5;
    city.blocks_z = 5;
    scene_ = new SceneBundle(city, CameraConfig{}, 120, 12);
    trace_ = new WorkloadTrace(WorkloadTrace::build(*scene_, 4));
  }
  static void TearDownTestSuite() {
    delete trace_;
    delete scene_;
    trace_ = nullptr;
    scene_ = nullptr;
  }

  static const SceneBundle& scene() { return *scene_; }
  static const WorkloadTrace& trace() { return *trace_; }

  static RunConfig config(Scenario s, int k,
                          Arrangement a = Arrangement::Ordered) {
    RunConfig cfg;
    cfg.scenario = s;
    cfg.pipelines = k;
    cfg.arrangement = a;
    return cfg;
  }

  static SceneBundle* scene_;
  static WorkloadTrace* trace_;
};

SceneBundle* WalkthroughFixture::scene_ = nullptr;
WorkloadTrace* WalkthroughFixture::trace_ = nullptr;

// ------------------------------------------------------------ WorkloadTrace

TEST_F(WalkthroughFixture, TraceDimensions) {
  EXPECT_EQ(trace().frame_count(), 12);
  EXPECT_EQ(trace().max_k(), 4);
  EXPECT_THROW(trace().load(0, 5, 0), CheckError);
  EXPECT_THROW(trace().load(12, 1, 0), CheckError);
  EXPECT_THROW(trace().load(0, 2, 2), CheckError);
}

TEST_F(WalkthroughFixture, TraceLoadsAreMeaningful) {
  const RenderLoad& whole = trace().whole(0);
  EXPECT_GT(whole.nodes_visited, 0.0);
  EXPECT_GT(whole.tris_accepted, 0.0);
  EXPECT_GT(whole.projected_pixels, 0.0);
  // Strips see no more triangles than the whole frame.
  for (int s = 0; s < 4; ++s) {
    EXPECT_LE(trace().load(3, 4, s).tris_accepted, 1.0 + whole.tris_accepted);
  }
}

// --------------------------------------------------------- one-core baseline

TEST_F(WalkthroughFixture, SingleCoreBreakdownCoversAllStages) {
  const SingleCoreBreakdown b =
      run_single_core(scene(), trace(), config(Scenario::SingleCore, 1));
  EXPECT_EQ(b.per_stage.size(), 7u);  // render + 5 filters + transfer
  SimTime sum = SimTime::zero();
  for (const auto& [kind, t] : b.per_stage) {
    EXPECT_GT(t, SimTime::zero()) << stage_name(kind);
    sum += t;
  }
  EXPECT_EQ(sum, b.total);
  // Blur dominates the filters (Fig. 8).
  EXPECT_GT(b.stage_time(StageKind::Blur), b.stage_time(StageKind::Sepia));
  EXPECT_GT(b.stage_time(StageKind::Blur), b.stage_time(StageKind::Swap));
}

TEST_F(WalkthroughFixture, SingleCoreReducedVariants) {
  const RunConfig cfg = config(Scenario::SingleCore, 1);
  const SingleCoreBreakdown full = run_single_core(scene(), trace(), cfg);
  const SingleCoreBreakdown rt =
      run_single_core(scene(), trace(), cfg, false, true);
  const SingleCoreBreakdown r =
      run_single_core(scene(), trace(), cfg, false, false);
  // Paper §VI-A: render+transfer ~104 s << full 382 s; render-only ~94 s.
  EXPECT_LT(rt.total, 0.5 * full.total);
  EXPECT_LT(r.total, rt.total);
  EXPECT_EQ(r.per_stage.size(), 1u);
}

// The §VI-A one-core baseline that Figs. 8-10 divide by, pinned in ns. It
// runs the same located chip operations as every pipelined run, so a
// change to a chip or memory chain moves these with the walkthrough times.
TEST_F(WalkthroughFixture, SingleCoreTotalsArePinned) {
  struct Pin {
    PlatformKind platform;
    bool filters;
    bool transfer;
    std::int64_t total_ns;
  };
  const Pin pins[] = {
      {PlatformKind::Scc, true, true, 1223063445},
      {PlatformKind::Scc, true, false, 1187946537},
      {PlatformKind::Scc, false, true, 385106377},
      {PlatformKind::Scc, false, false, 349989469},
      {PlatformKind::Cluster, true, true, 106951789},
      {PlatformKind::Cluster, true, false, 103288105},
      {PlatformKind::Cluster, false, true, 17940316},
      {PlatformKind::Cluster, false, false, 14276632},
  };
  for (const Pin& pin : pins) {
    RunConfig cfg = config(Scenario::SingleCore, 1);
    cfg.platform = pin.platform;
    EXPECT_EQ(
        run_single_core(scene(), trace(), cfg, pin.filters, pin.transfer)
            .total.to_ns(),
        pin.total_ns)
        << platform_name(pin.platform) << " filters=" << pin.filters
        << " transfer=" << pin.transfer;
  }
}

// ------------------------------------------------------------ full pipeline

TEST_F(WalkthroughFixture, EveryScenarioCompletesAllFrames) {
  for (const Scenario s :
       {Scenario::SingleRenderer, Scenario::RendererPerPipeline,
        Scenario::HostRenderer}) {
    for (int k = 1; k <= 4; k += 3) {
      const RunResult r = run_walkthrough(scene(), trace(), config(s, k));
      EXPECT_EQ(r.frame_done_ms.size(), 12u) << scenario_name(s);
      EXPECT_GT(r.walkthrough, SimTime::zero());
      // Frames arrive in order.
      for (std::size_t i = 1; i < r.frame_done_ms.size(); ++i) {
        EXPECT_LT(r.frame_done_ms[i - 1], r.frame_done_ms[i]);
      }
    }
  }
}

TEST_F(WalkthroughFixture, PipeliningBeatsSingleCore) {
  const SingleCoreBreakdown base =
      run_single_core(scene(), trace(), config(Scenario::SingleCore, 1));
  const RunResult r =
      run_walkthrough(scene(), trace(), config(Scenario::SingleRenderer, 1));
  EXPECT_LT(r.walkthrough, base.total);
}

TEST_F(WalkthroughFixture, MorePipelinesNeverMuchSlower) {
  for (const Scenario s :
       {Scenario::RendererPerPipeline, Scenario::HostRenderer}) {
    SimTime prev = SimTime::zero();
    for (int k = 1; k <= 4; ++k) {
      const RunResult r = run_walkthrough(scene(), trace(), config(s, k));
      if (k > 1) {
        EXPECT_LT(r.walkthrough, prev * 1.1)
            << scenario_name(s) << " k=" << k;
      }
      prev = r.walkthrough;
    }
  }
}

TEST_F(WalkthroughFixture, RunsAreDeterministic) {
  const RunResult a =
      run_walkthrough(scene(), trace(), config(Scenario::HostRenderer, 3));
  const RunResult b =
      run_walkthrough(scene(), trace(), config(Scenario::HostRenderer, 3));
  EXPECT_EQ(a.walkthrough, b.walkthrough);
  EXPECT_EQ(a.frame_done_ms, b.frame_done_ms);
  EXPECT_EQ(a.chip_energy_joules, b.chip_energy_joules);
}

TEST_F(WalkthroughFixture, ArrangementsAreWithinNoiseOfEachOther) {
  // The paper's central null result (§VI-A): arrangement does not matter.
  for (const Scenario s :
       {Scenario::SingleRenderer, Scenario::RendererPerPipeline,
        Scenario::HostRenderer}) {
    const double t_unordered =
        run_walkthrough(scene(), trace(),
                        config(s, 3, Arrangement::Unordered))
            .walkthrough.to_sec();
    const double t_ordered =
        run_walkthrough(scene(), trace(), config(s, 3, Arrangement::Ordered))
            .walkthrough.to_sec();
    const double t_flipped =
        run_walkthrough(scene(), trace(), config(s, 3, Arrangement::Flipped))
            .walkthrough.to_sec();
    EXPECT_NEAR(t_unordered / t_ordered, 1.0, 0.06) << scenario_name(s);
    EXPECT_NEAR(t_flipped / t_ordered, 1.0, 0.06) << scenario_name(s);
  }
}

TEST_F(WalkthroughFixture, StageReportsAreComplete) {
  const RunResult r =
      run_walkthrough(scene(), trace(), config(Scenario::HostRenderer, 2));
  // 2 pipelines x 5 filters + connect + transfer.
  EXPECT_EQ(r.stages.size(), 12u);
  const StageReport* blur = r.stage(StageKind::Blur, 1);
  ASSERT_NE(blur, nullptr);
  EXPECT_EQ(blur->frames, 12);
  EXPECT_GT(blur->busy_ms, 0.0);
  EXPECT_EQ(blur->wait_ms.count, 12u);
  const StageReport* connect = r.stage(StageKind::Connect);
  ASSERT_NE(connect, nullptr);
  EXPECT_GT(connect->busy_ms, 0.0);
}

TEST_F(WalkthroughFixture, WalkthroughAtLeastMaxStageBusy) {
  // Lower bound: the pipeline can never beat its busiest stage.
  const RunResult r =
      run_walkthrough(scene(), trace(), config(Scenario::HostRenderer, 2));
  for (const StageReport& st : r.stages) {
    EXPECT_GE(r.walkthrough.to_ms(), st.busy_ms);
  }
}

TEST_F(WalkthroughFixture, PowerAndEnergyAccounting) {
  const RunResult a =
      run_walkthrough(scene(), trace(), config(Scenario::HostRenderer, 1));
  const RunResult b =
      run_walkthrough(scene(), trace(), config(Scenario::HostRenderer, 4));
  // More pipelines -> more allocated cores -> higher mean power (Fig. 14).
  EXPECT_GT(b.mean_chip_watts, a.mean_chip_watts);
  // Energy == mean power x duration (definition consistency).
  EXPECT_NEAR(a.chip_energy_joules,
              a.mean_chip_watts * a.walkthrough.to_sec(),
              0.01 * a.chip_energy_joules);
  // The host worked (rendered) and its extra energy is accounted.
  EXPECT_GT(a.host_busy_sec, 0.0);
  EXPECT_NEAR(a.host_extra_energy_joules, a.host_busy_sec * 28.0, 1e-6);
}

TEST_F(WalkthroughFixture, HostSpendsLittleTimeBusy) {
  // §VI-B: the MCPC idles most of the run.
  const RunResult r =
      run_walkthrough(scene(), trace(), config(Scenario::HostRenderer, 4));
  EXPECT_LT(r.host_busy_sec, 0.3 * r.walkthrough.to_sec());
}

TEST_F(WalkthroughFixture, DvfsBlurBoostSpeedsUpAndCostsPower) {
  RunConfig base = config(Scenario::HostRenderer, 1);
  base.isolate_blur_tile = true;
  RunConfig fast = base;
  fast.blur_mhz = 800;
  const RunResult r0 = run_walkthrough(scene(), trace(), base);
  const RunResult r1 = run_walkthrough(scene(), trace(), fast);
  EXPECT_LT(r1.walkthrough.to_sec(), 0.85 * r0.walkthrough.to_sec());
  EXPECT_GT(r1.mean_chip_watts, r0.mean_chip_watts + 1.0);
  // Fig. 16: the gain is clearly below the 1.5x frequency ratio.
  EXPECT_GT(r1.walkthrough.to_sec(), r0.walkthrough.to_sec() / 1.5);
}

TEST_F(WalkthroughFixture, DvfsTailSlowdownSavesPowerNotTime) {
  RunConfig fast = config(Scenario::HostRenderer, 1);
  fast.isolate_blur_tile = true;
  fast.blur_mhz = 800;
  RunConfig mixed = fast;
  mixed.tail_mhz = 400;
  const RunResult r1 = run_walkthrough(scene(), trace(), fast);
  const RunResult r2 = run_walkthrough(scene(), trace(), mixed);
  // §VI-D: performance similar, power lower.
  EXPECT_NEAR(r2.walkthrough.to_sec(), r1.walkthrough.to_sec(),
              0.12 * r1.walkthrough.to_sec());
  EXPECT_LT(r2.mean_chip_watts, r1.mean_chip_watts - 2.0);
}

TEST_F(WalkthroughFixture, ClusterIsMuchFasterThanScc) {
  // Fig. 13: modern HPC cores finish the walkthrough several times sooner.
  for (const Scenario s :
       {Scenario::SingleRenderer, Scenario::RendererPerPipeline}) {
    RunConfig scc = config(s, 3);
    RunConfig hpc = scc;
    hpc.platform = PlatformKind::Cluster;
    const RunResult a = run_walkthrough(scene(), trace(), scc);
    const RunResult b = run_walkthrough(scene(), trace(), hpc);
    EXPECT_LT(b.walkthrough.to_sec(), 0.3 * a.walkthrough.to_sec())
        << scenario_name(s);
  }
}

TEST_F(WalkthroughFixture, DownstreamStagesWaitOnTheirInput) {
  // Fig. 15's concept: with one pipeline, the cheap stages spend most of
  // the cycle waiting while blur works.
  const RunResult r =
      run_walkthrough(scene(), trace(), config(Scenario::HostRenderer, 1));
  const StageReport* blur = r.stage(StageKind::Blur, 0);
  const StageReport* scratch = r.stage(StageKind::Scratch, 0);
  ASSERT_NE(blur, nullptr);
  ASSERT_NE(scratch, nullptr);
  EXPECT_GT(scratch->wait_ms.median, blur->wait_ms.median);
}

TEST_F(WalkthroughFixture, FabricReportAccountsTraffic) {
  const RunResult r =
      run_walkthrough(scene(), trace(), config(Scenario::HostRenderer, 3));
  // Every frame's strips cross the mesh and the controllers repeatedly.
  const double frame_bytes = 120.0 * 120.0 * 4.0;
  EXPECT_GT(r.fabric.mesh_total_bytes, 12.0 * frame_bytes);
  EXPECT_GT(r.fabric.mesh_max_link_bytes, 0.0);
  EXPECT_LE(r.fabric.mesh_max_link_bytes, r.fabric.mesh_total_bytes);
  ASSERT_EQ(r.fabric.mc_bulk_bytes.size(), 4u);
  double mc_sum = 0.0;
  for (const double b : r.fabric.mc_bulk_bytes) mc_sum += b;
  EXPECT_GT(mc_sum, 2.0 * 12.0 * frame_bytes);  // the DRAM bounce
}

TEST_F(WalkthroughFixture, EventQueueNeverAllocatesInSteadyState) {
  // The walkthrough reserves its one event queue up front, so a full run —
  // on either platform, with and without a host renderer — must never grow
  // the queue's containers.
  for (const PlatformKind platform :
       {PlatformKind::Scc, PlatformKind::Cluster}) {
    for (const Scenario s :
         {Scenario::HostRenderer, Scenario::RendererPerPipeline}) {
      RunConfig cfg = config(s, 4);
      cfg.platform = platform;
      const RunResult r = run_walkthrough(scene(), trace(), cfg);
      EXPECT_EQ(r.sim_stats.allocs, 0u)
          << scenario_name(s) << " peak=" << r.sim_stats.peak_events;
      EXPECT_GT(r.sim_stats.peak_events, 0u) << scenario_name(s);
    }
  }
}

TEST_F(WalkthroughFixture, MostEventsBypassTheHeap) {
  // A chip operation is a chain of hop -> after -> hop links whose
  // successor lands ahead of every pending event, so most pushes go to the
  // next-event register and are dispatched without a sift. The count is a
  // pure function of the event stream, so it repeats exactly.
  for (const Scenario s : {Scenario::SingleRenderer,
                           Scenario::RendererPerPipeline,
                           Scenario::HostRenderer}) {
    const RunConfig cfg = config(s, 4);
    const RunResult a = run_walkthrough(scene(), trace(), cfg);
    const RunResult b = run_walkthrough(scene(), trace(), cfg);
    const SimulatorStats& st = a.sim_stats;
    ASSERT_GT(st.scheduled, 0u) << scenario_name(s);
    EXPECT_GE(static_cast<double>(st.register_hits),
              0.75 * static_cast<double>(st.scheduled))
        << scenario_name(s) << ": " << st.register_hits << " of "
        << st.scheduled;
    EXPECT_EQ(st.register_hits, b.sim_stats.register_hits)
        << scenario_name(s);
    EXPECT_EQ(st.scheduled, b.sim_stats.scheduled) << scenario_name(s);
  }
}

TEST_F(WalkthroughFixture, RenderersRegisterAsLatencyStreams) {
  const RunResult r = run_walkthrough(
      scene(), trace(), config(Scenario::RendererPerPipeline, 4));
  std::uint64_t peak = 0;
  for (const std::uint64_t p : r.fabric.mc_latency_streams_peak) {
    peak = std::max(peak, p);
  }
  EXPECT_GE(peak, 1u);  // concurrent octree walkers were observed
}

TEST_F(WalkthroughFixture, LocalMemoryBanksReduceMcTraffic) {
  RunConfig base = config(Scenario::HostRenderer, 2);
  RunConfig banks = base;
  banks.rcce.local_memory_banks = true;
  const RunResult a = run_walkthrough(scene(), trace(), base);
  const RunResult b = run_walkthrough(scene(), trace(), banks);
  double mc_a = 0.0, mc_b = 0.0;
  for (const double v : a.fabric.mc_bulk_bytes) mc_a += v;
  for (const double v : b.fabric.mc_bulk_bytes) mc_b += v;
  EXPECT_LT(mc_b, 0.7 * mc_a);  // the bounce is gone
  EXPECT_LE(b.walkthrough, a.walkthrough);
}

TEST_F(WalkthroughFixture, TraceTooSmallRejected) {
  EXPECT_THROW(
      run_walkthrough(scene(), trace(), config(Scenario::HostRenderer, 5)),
      CheckError);
  EXPECT_THROW(run_walkthrough(scene(), trace(),
                               config(Scenario::SingleCore, 1)),
               CheckError);
}

// ------------------------------------------------------- functional pixels

/// Reference pipeline: what the viewer should see for frame f with k
/// strips — render, per-strip filters, mirrored assembly.
Image reference_frame(const SceneBundle& scene, int frame, int k,
                      std::uint64_t seed) {
  const Image whole = scene.renderer().render(scene.path().view(frame));
  const int side = scene.image_side();
  Image out(side, side);
  for (const StripRange& s : divide_rows(side, k)) {
    Image strip = whole.strip(s);
    apply_sepia(strip);
    apply_blur(strip);
    apply_scratches(strip, scratch_params_for_frame(seed, frame, side));
    apply_flicker(strip, flicker_params_for_frame(seed, frame));
    apply_vflip(strip);
    out.paste(strip, side - s.y0 - s.rows);
  }
  return out;
}

TEST_F(WalkthroughFixture, FunctionalPipelineMatchesReference) {
  for (const Scenario s :
       {Scenario::SingleRenderer, Scenario::HostRenderer}) {
    RunConfig cfg = config(s, 3);
    cfg.functional = true;
    const RunResult r = run_walkthrough(scene(), trace(), cfg);
    ASSERT_EQ(r.frames.size(), 12u) << scenario_name(s);
    for (const int f : {0, 5, 11}) {
      EXPECT_EQ(r.frames[static_cast<std::size_t>(f)],
                reference_frame(scene(), f, 3, cfg.seed))
          << scenario_name(s) << " frame " << f;
    }
  }
}

TEST_F(WalkthroughFixture, FunctionalRendererPerPipelineMatchesReference) {
  RunConfig cfg = config(Scenario::RendererPerPipeline, 2);
  cfg.functional = true;
  const RunResult r = run_walkthrough(scene(), trace(), cfg);
  ASSERT_EQ(r.frames.size(), 12u);
  // Per-strip rendering equals whole-frame rendering (sort-first), so the
  // same reference applies.
  EXPECT_EQ(r.frames[4], reference_frame(scene(), 4, 2, cfg.seed));
}

TEST_F(WalkthroughFixture, FunctionalOutputIndependentOfTiming) {
  // Same scenario, different arrangements: identical pixels.
  RunConfig a = config(Scenario::HostRenderer, 3, Arrangement::Unordered);
  RunConfig b = config(Scenario::HostRenderer, 3, Arrangement::Flipped);
  a.functional = b.functional = true;
  const RunResult ra = run_walkthrough(scene(), trace(), a);
  const RunResult rb = run_walkthrough(scene(), trace(), b);
  EXPECT_EQ(ra.frames[7], rb.frames[7]);
}

// ------------------------------------------------- pinned functional frames
//
// Every delivered frame of runs that exercise each way the transfer stage
// can receive a frame: whole renders split by a producer, per-pipeline
// renderers, a remap onto a spare with checkpoint replay, a degraded
// pipeline count, gray-ladder weighted shares and overload shedding. The
// digests (one CRC-32 per delivered frame, in delivery order) were recorded
// with pixels carried through the event loop; each run must also show that
// its feature fired, or the pin would prove nothing.

struct PinnedRun {
  const char* name;
  RunConfig cfg;
  std::function<bool(const RunResult&)> fired;
  std::vector<std::uint32_t> digests;
};

std::vector<std::uint32_t> frame_digests(const RunResult& r) {
  std::vector<std::uint32_t> out;
  for (const Image& img : r.frames) {
    out.push_back(crc32(img.data(), img.byte_size()));
  }
  return out;
}

std::string format_digests(const std::vector<std::uint32_t>& d) {
  std::string s = "{";
  char buf[16];
  for (std::size_t i = 0; i < d.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s0x%08x", i ? ", " : "", d[i]);
    s += buf;
  }
  return s + "}";
}

TEST_F(WalkthroughFixture, FunctionalFramesMatchPinnedDigests) {
  const auto functional = [](RunConfig cfg) {
    cfg.functional = true;
    return cfg;
  };
  const RunConfig mcpc = config(Scenario::HostRenderer, 3);
  const RunResult clean = run_walkthrough(scene(), trace(), mcpc);
  const RunResult clean_nrend = run_walkthrough(
      scene(), trace(), config(Scenario::RendererPerPipeline, 3));
  const auto at = [](const RunResult& r, double fraction) {
    return SimTime::ms(r.walkthrough.to_ms() * fraction);
  };
  RecoveryConfig fast;
  fast.heartbeat_period = SimTime::us(200);
  fast.detection_deadline = SimTime::us(500);

  // Twelve frames at three equal strips, however they were produced.
  const std::vector<std::uint32_t> k3 = {
      0xc7249581, 0x9e6a148b, 0x452ad562, 0xc45fbda6, 0x0b707b7d, 0xa374fb68,
      0xf9a119f4, 0x0971de86, 0x2f237647, 0x4c43ccff, 0x816bd0b2, 0x792e7b15};

  std::vector<PinnedRun> runs;
  const auto always = [](const RunResult&) { return true; };
  runs.push_back({"1-rend k=3", functional(config(Scenario::SingleRenderer, 3)),
                  always, k3});
  runs.push_back({"n-rend k=3",
                  functional(config(Scenario::RendererPerPipeline, 3)), always,
                  k3});
  runs.push_back({"mcpc k=3", functional(mcpc), always, k3});
  {
    RunConfig cfg = functional(config(Scenario::RendererPerPipeline, 3));
    cfg.fault.seed = 4;
    cfg.fault.core_failures.push_back(
        {clean_nrend.placement.pipeline_cores[1][2], at(clean_nrend, 0.3)});
    cfg.recovery = fast;
    runs.push_back({"n-rend core-fail remap", cfg,
                    [](const RunResult& r) {
                      return r.recovery.spares_used > 0 &&
                             r.recovery.frames_replayed > 0;
                    },
                    k3});
  }
  {
    RunConfig cfg = functional(mcpc);
    cfg.fault.seed = 4;
    cfg.fault.core_failures.push_back(
        {clean.placement.pipeline_cores[0][1], at(clean, 0.3)});
    cfg.recovery = fast;
    cfg.recovery.max_spares = 0;
    runs.push_back({"mcpc core-fail degrade", cfg,
                    [](const RunResult& r) {
                      return r.recovery.pipelines_lost > 0;
                    },
                    {0xc7249581, 0x9e6a148b, 0x6aab00bf, 0xf9a119f4, 0x9699270a,
                     0x2c9d03d4, 0xfa106bd1, 0x816bd0b2, 0x6b197e90}});
  }
  {
    RunConfig cfg = functional(mcpc);
    cfg.recovery.heartbeat_period = SimTime::ms(2);
    cfg.recovery.detection_deadline = SimTime::ms(5);
    cfg.recovery.max_spares = 0;
    cfg.gray.detect_factor = 1.2;
    cfg.gray.detect_windows = 2;
    cfg.gray.policy = GrayPolicy::Rebalance;
    cfg.fault.seed = 11;
    cfg.fault.slow_cores.push_back(
        SlowCore{clean.placement.pipeline_cores[1][0], 8.0, at(clean, 0.1)});
    runs.push_back({"mcpc gray rebalance", cfg,
                    [](const RunResult& r) { return r.gray.rebalances > 0; },
                    {0xc7249581, 0x9e6a148b, 0x452ad562, 0xc45fbda6, 0x0b707b7d,
                     0x5e3509ce, 0xf9a119f4, 0x9d608a70, 0x3b2b9215, 0x5c93f86e,
                     0x816bd0b2, 0x9441408c}});
  }
  {
    RunConfig cfg = functional(mcpc);
    cfg.overload.window = 4;
    cfg.overload.queue_depth = 2;
    cfg.overload.offered_fps = 1e5;
    cfg.overload.frame_deadline = SimTime::ms(50);
    runs.push_back({"mcpc overload shed", cfg,
                    [](const RunResult& r) {
                      return r.transport.shed_admission +
                                 r.transport.shed_deadline >
                             0;
                    },
                    {0xc7249581, 0x816bd0b2, 0x792e7b15}});
  }

  for (const char* jobs : {"1", "4"}) {
    ASSERT_EQ(setenv("SCCPIPE_JOBS", jobs, 1), 0);
    for (const PinnedRun& run : runs) {
      const RunResult r = run_walkthrough(scene(), trace(), run.cfg);
      const std::string where =
          std::string(run.name) + " at SCCPIPE_JOBS=" + jobs;
      EXPECT_FALSE(r.fault.failed) << where << ": " << r.fault.failure;
      EXPECT_TRUE(run.fired(r)) << where << ": the feature did not fire";
      EXPECT_EQ(frame_digests(r), run.digests)
          << where << ": got " << format_digests(frame_digests(r));
    }
  }
  ASSERT_EQ(unsetenv("SCCPIPE_JOBS"), 0);
}

// A stage's `frames` counts the frames it completed, so busy ms/frame
// (`sccpipe --stages`) stays right on a run that sheds or fails: the
// transfer row matches the frames the viewer received, and a renderer
// counts only the strips it rendered.
TEST_F(WalkthroughFixture, StageFramesCountOnlyFramesThatRan) {
  RunConfig shed = config(Scenario::HostRenderer, 4);
  shed.overload.window = 4;
  shed.overload.queue_depth = 2;
  shed.overload.offered_fps = 1e5;
  shed.overload.frame_deadline = SimTime::ms(50);
  RunConfig drop = config(Scenario::RendererPerPipeline, 3);
  drop.fault.seed = 5;
  drop.fault.rcce_drop_rate = 0.005;
  drop.rcce.retry.max_attempts = 1;
  for (const RunConfig& cfg : {shed, drop}) {
    const RunResult r = run_walkthrough(scene(), trace(), cfg);
    ASSERT_GT(r.fault.frames_completed, 0);
    ASSERT_LT(r.fault.frames_completed, 12) << "nothing was shed or lost";
    const StageReport* transfer = r.stage(StageKind::Transfer, -1);
    ASSERT_NE(transfer, nullptr);
    EXPECT_EQ(transfer->frames, r.fault.frames_completed);
    for (const StageReport& s : r.stages) {
      if (s.kind != StageKind::Render) continue;
      EXPECT_GE(s.frames, r.fault.frames_completed) << "p" << s.pipeline;
      EXPECT_LE(s.frames, 12) << "p" << s.pipeline;
    }
  }
}

// A failed run charges each stage row only the work of the frames it
// counted. `sccpipe --frames 40 --size 120 --scenario 1-rend --pipelines 3
// --fault-plan 'rcce-drop=0.05' --rcce-retries 1 --stages` fails with one
// frame distributed while the renderer is most of the way through the
// next; the render row must not charge that dropped frame.
TEST(StageBusy, FailedRunChargesOnlyCountedFrames) {
  const SceneBundle scene(CityParams{}, CameraConfig{}, 120, 40);
  const WorkloadTrace trace = WorkloadTrace::build(scene, 3);
  RunConfig cfg;
  cfg.scenario = Scenario::SingleRenderer;
  cfg.pipelines = 3;
  const RunResult clean = run_walkthrough(scene, trace, cfg);
  cfg.fault.rcce_drop_rate = 0.05;
  cfg.rcce.retry.max_attempts = 1;
  const RunResult failed = run_walkthrough(scene, trace, cfg);
  ASSERT_TRUE(failed.fault.failed);
  const StageReport* render = failed.stage(StageKind::Render, -1);
  const StageReport* clean_render = clean.stage(StageKind::Render, -1);
  ASSERT_NE(render, nullptr);
  ASSERT_NE(clean_render, nullptr);
  ASSERT_EQ(render->frames, 1);
  ASSERT_EQ(clean_render->frames, 40);
  // One frame's render and distribution: about the fault-free mean.
  EXPECT_GT(render->busy_ms, 0.9 * clean_render->busy_ms / 40);
  EXPECT_LT(render->busy_ms, 1.1 * clean_render->busy_ms / 40);
  for (const StageReport& s : failed.stages) {
    if (s.frames == 0) {
      EXPECT_EQ(s.busy_ms, 0.0) << stage_name(s.kind);
    }
  }
}

/// FNV-1a over the timing a run reports: each frame's viewer arrival, each
/// stage row's busy time, frames and wait quartiles (times in whole ns),
/// and the fault layer's fingerprint. A fault whose delay is absorbed
/// before the last frame still moves it.
std::uint64_t timing_digest(const RunResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  const auto ns = [&mix](double ms) {
    mix(static_cast<std::uint64_t>(std::llround(ms * 1e6)));
  };
  mix(r.frame_done_ms.size());
  for (const double ms : r.frame_done_ms) ns(ms);
  mix(r.stages.size());
  for (const StageReport& s : r.stages) {
    ns(s.busy_ms);
    mix(static_cast<std::uint64_t>(s.frames));
    ns(s.wait_ms.q1);
    ns(s.wait_ms.median);
    ns(s.wait_ms.q3);
  }
  mix(r.fault.fingerprint);
  return h;
}

// The event stream itself: how many events a run dispatches, the simulated
// time it ends at and a digest of its per-frame and per-stage timing,
// pinned across the engine's host-speed work. A refactor of the event
// kernel or the mesh fabric that adds, drops or reorders an event moves
// one of these; `sim_events_per_s` is only comparable across such
// refactors while they hold.
TEST_F(WalkthroughFixture, EventStreamMatchesPinnedCounts) {
  struct PinnedStream {
    const char* name;
    RunConfig cfg;
    std::function<bool(const RunResult&)> fired;
    std::uint64_t events;
    std::int64_t walkthrough_ns;
    int frames_completed;
    std::uint64_t digest;  ///< timing_digest()
    /// Ok for a run that must complete; otherwise the code it must fail
    /// with (a failed run's drain is part of its event stream).
    StatusCode failure = StatusCode::Ok;
  };
  const RunConfig mcpc = config(Scenario::HostRenderer, 4);
  const RunResult clean = run_walkthrough(scene(), trace(), mcpc);
  const auto at = [&](double fraction) {
    return SimTime::ms(clean.walkthrough.to_ms() * fraction);
  };
  std::vector<PinnedStream> runs;
  // Every pipeline placed and every frame shown.
  const auto complete = [](std::size_t k) {
    return [k](const RunResult& r) {
      return r.placement.pipeline_cores.size() == k &&
             r.frame_done_ms.size() == 12u;
    };
  };
  runs.push_back({"n-rend k=7 ordered",
                  config(Scenario::RendererPerPipeline, 7), complete(7), 14940,
                  320079917, 12, 0x4c6faffb6f77a0c1});
  {
    RunConfig cfg = mcpc;
    cfg.fault.seed = 4;
    cfg.fault.core_failures.push_back(
        {clean.placement.pipeline_cores[1][2], at(0.3)});
    cfg.recovery.heartbeat_period = SimTime::us(200);
    cfg.recovery.detection_deadline = SimTime::us(500);
    runs.push_back({"mcpc k=4 core-fail remap", cfg,
                    [](const RunResult& r) {
                      return r.recovery.spares_used > 0 &&
                             r.recovery.frames_replayed > 0;
                    },
                    9126, 194006326, 12, 0xe60050790f51e58c});
  }
  {
    RunConfig cfg = mcpc;
    cfg.recovery.heartbeat_period = SimTime::ms(2);
    cfg.recovery.detection_deadline = SimTime::ms(5);
    cfg.recovery.max_spares = 0;
    cfg.gray.detect_factor = 1.2;
    cfg.gray.detect_windows = 2;
    cfg.gray.policy = GrayPolicy::Rebalance;
    cfg.fault.seed = 11;
    cfg.fault.slow_cores.push_back(
        SlowCore{clean.placement.pipeline_cores[1][0], 8.0, at(0.1)});
    runs.push_back({"mcpc k=4 gray rebalance", cfg,
                    [](const RunResult& r) { return r.gray.rebalances > 0; },
                    8101, 192308283, 12, 0xad24488ae978bb98});
  }
  {
    RunConfig cfg = mcpc;
    cfg.overload.window = 4;
    cfg.overload.queue_depth = 2;
    cfg.overload.offered_fps = 1e5;
    cfg.overload.frame_deadline = SimTime::ms(50);
    runs.push_back({"mcpc k=4 overload shed", cfg,
                    [](const RunResult& r) {
                      return r.transport.shed_admission +
                                 r.transport.shed_deadline >
                             0;
                    },
                    3365, 64017341, 3, 0xc8d7f78e61aa2252});
  }
  {
    RunConfig cfg = config(Scenario::SingleRenderer, 3);
    cfg.platform = PlatformKind::Cluster;
    runs.push_back({"1-rend cluster k=3", cfg, complete(3), 6084, 24375618,
                    12, 0xae127fcb05cb16df});
  }
  {
    // A supervised single-renderer run: distribution through the routed
    // path with checkpoint staging, then a remap and a replay.
    RunConfig cfg = config(Scenario::SingleRenderer, 3);
    const RunResult clean1 = run_walkthrough(scene(), trace(), cfg);
    cfg.fault.seed = 5;
    cfg.fault.core_failures.push_back(
        {clean1.placement.pipeline_cores[2][1],
         SimTime::ms(clean1.walkthrough.to_ms() * 0.4)});
    cfg.recovery.heartbeat_period = SimTime::us(200);
    cfg.recovery.detection_deadline = SimTime::us(500);
    runs.push_back({"1-rend k=3 core-fail remap", cfg,
                    [](const RunResult& r) {
                      return r.recovery.spares_used > 0 &&
                             r.recovery.frames_replayed > 0;
                    },
                    8273, 411019032, 12, 0xc1ef341df59f51d1});
  }
  {
    // A dead render core with no spare to promote ends the run.
    RunConfig cfg = config(Scenario::RendererPerPipeline, 3);
    const RunResult cleann = run_walkthrough(scene(), trace(), cfg);
    cfg.fault.seed = 6;
    cfg.fault.core_failures.push_back(
        {cleann.placement.pipeline_cores[1][0],
         SimTime::ms(cleann.walkthrough.to_ms() * 0.3)});
    cfg.recovery.heartbeat_period = SimTime::us(200);
    cfg.recovery.detection_deadline = SimTime::us(500);
    cfg.recovery.max_spares = 0;
    runs.push_back({"n-rend k=3 core-fail, max-spares 0", cfg,
                    [](const RunResult& r) {
                      return r.recovery.failures_detected > 0;
                    },
                    2374, 114400000, 2, 0x7cefd586b0fb7797,
                    StatusCode::Unavailable});
  }
  {
    // An unsupervised fault run that exhausts its one attempt: the strips
    // already in flight drain after the failure.
    RunConfig cfg = mcpc;
    cfg.fault.seed = 3;
    cfg.fault.rcce_drop_rate = 0.05;
    cfg.rcce.retry.max_attempts = 1;
    runs.push_back({"mcpc k=4 rcce-drop=0.05 retries 1", cfg,
                    [](const RunResult& r) {
                      return !r.recovery.enabled && r.fault.rcce_drops > 0;
                    },
                    1610, 84525624, 0, 0x75365a135b10c8e7,
                    StatusCode::RetriesExhausted});
  }
  // Every mesh fate, both MC fates, a degraded link, a stall train and a
  // slow core under gray detection: the faulty hop path and every fault
  // query a plan can reach. Each of the eight window kinds moves the pins
  // of at least one of the two seeds.
  for (const auto& [name, seed, events, ns, digest] :
       {std::tuple{"mcpc k=4 every window fate, seed 13", 13, 8549, 220929780,
                   0x89f4b3bf14bc36d1ull},
        std::tuple{"mcpc k=4 every window fate, seed 25", 25, 8168, 202958586,
                   0xc41bb864be6314bcull}}) {
    RunConfig cfg = mcpc;
    EXPECT_TRUE(cfg.fault
                    .parse("link-down=3;link-degrade=3;router-degrade=2;"
                           "mc-stall=1;mc-degrade=1;window=30ms")
                    .ok());
    cfg.fault.seed = static_cast<std::uint64_t>(seed);
    cfg.fault.horizon = clean.walkthrough;
    cfg.fault.degraded_links.push_back(DegradedLink{1, 2, 3.0, at(0.1)});
    cfg.fault.stalls.push_back(StallSpec{clean.placement.pipeline_cores[0][1],
                                         SimTime::ms(5), SimTime::ms(1)});
    cfg.fault.slow_cores.push_back(
        SlowCore{clean.placement.pipeline_cores[2][0], 6.0, at(0.2)});
    cfg.recovery.heartbeat_period = SimTime::ms(2);
    cfg.recovery.detection_deadline = SimTime::ms(5);
    cfg.gray.detect_factor = 1.3;
    cfg.gray.detect_windows = 2;
    runs.push_back({name, cfg,
                    [&clean](const RunResult& r) {
                      return r.walkthrough > clean.walkthrough &&
                             r.gray.flags_raised > 0;
                    },
                    static_cast<std::uint64_t>(events), ns, 12, digest});
  }

  const WorkloadTrace trace7 = WorkloadTrace::build(scene(), StripCounts{1, 7});
  for (const PinnedStream& run : runs) {
    const RunResult r = run_walkthrough(
        scene(), run.cfg.pipelines > trace().max_k() ? trace7 : trace(),
        run.cfg);
    EXPECT_EQ(r.fault.failed, run.failure != StatusCode::Ok)
        << run.name << ": " << r.fault.failure;
    if (r.fault.failed) {
      EXPECT_EQ(r.fault.failure_code, run.failure)
          << run.name << ": " << r.fault.failure;
    }
    EXPECT_TRUE(run.fired(r)) << run.name << ": the feature did not fire";
    EXPECT_EQ(r.events_dispatched, run.events) << run.name;
    EXPECT_EQ(r.walkthrough.to_ns(), run.walkthrough_ns) << run.name;
    EXPECT_EQ(r.fault.frames_completed, run.frames_completed) << run.name;
    EXPECT_EQ(timing_digest(r), run.digest)
        << run.name << ": 0x" << std::hex << timing_digest(r);
  }
}

}  // namespace
}  // namespace sccpipe
