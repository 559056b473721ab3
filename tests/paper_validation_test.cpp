// The paper's headline claims as a regression suite. These tests run the
// full model on a reduced walkthrough (120 frames of the paper's scene at
// 200x200) and assert the *shapes* the reproduction stands on — if a
// calibration or model change breaks one of the paper's findings, this
// file fails before the bench harnesses ever run. The last case runs the
// full Table I at the paper's size and holds every cell to its pin.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sccpipe/core/table1.hpp"
#include "sccpipe/core/walkthrough.hpp"
#include "sccpipe/exec/executor.hpp"

namespace sccpipe {
namespace {

class PaperClaims : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CityParams city;
    city.blocks_x = 10;
    city.blocks_z = 10;
    scene_ = new SceneBundle(city, CameraConfig{}, 200, 120);
    trace_ = new WorkloadTrace(WorkloadTrace::build(*scene_, 7));
  }
  static void TearDownTestSuite() {
    delete trace_;
    delete scene_;
  }

  static double seconds(Scenario s, int k,
                        PlatformKind p = PlatformKind::Scc) {
    RunConfig cfg;
    cfg.scenario = s;
    cfg.pipelines = k;
    cfg.platform = p;
    return run_walkthrough(*scene_, *trace_, cfg).walkthrough.to_sec();
  }

  static SceneBundle* scene_;
  static WorkloadTrace* trace_;
};

SceneBundle* PaperClaims::scene_ = nullptr;
WorkloadTrace* PaperClaims::trace_ = nullptr;

TEST_F(PaperClaims, BlurIsTheMostExpensiveStageOnOneCore) {
  // §IV / Fig. 8.
  const SingleCoreBreakdown b =
      run_single_core(*scene_, *trace_, RunConfig{});
  const SimTime blur = b.stage_time(StageKind::Blur);
  for (const auto& [kind, t] : b.per_stage) {
    if (kind == StageKind::Blur) continue;
    EXPECT_GT(blur, t) << stage_name(kind);
  }
}

TEST_F(PaperClaims, SingleRendererSaturates) {
  // Fig. 9: "this configuration does not scale well due to the rendering
  // bottleneck" — k=2 is a big step, k=3..7 changes little.
  const double t1 = seconds(Scenario::SingleRenderer, 1);
  const double t2 = seconds(Scenario::SingleRenderer, 2);
  const double t3 = seconds(Scenario::SingleRenderer, 3);
  const double t7 = seconds(Scenario::SingleRenderer, 7);
  // At the paper's 400x400 the k=1->2 step is ~2x; at this validation
  // resolution the blur bottleneck is relatively smaller, so the bound is
  // looser but the saturation shape is the same.
  EXPECT_LT(t2, 0.75 * t1);
  EXPECT_GT(t7, 0.8 * t3);  // saturated: little further gain
}

TEST_F(PaperClaims, RendererPerPipelineKeepsScaling) {
  // Fig. 10: "The system scales better using this configuration."
  const double n3 = seconds(Scenario::RendererPerPipeline, 3);
  const double n7 = seconds(Scenario::RendererPerPipeline, 7);
  const double s7 = seconds(Scenario::SingleRenderer, 7);
  EXPECT_LT(n7, 0.92 * n3);  // still improving past k=3
  EXPECT_LT(n7, 0.75 * s7);  // clearly ahead of the single renderer
}

TEST_F(PaperClaims, HeterogeneousConfigurationWinsAndFlattens) {
  // Fig. 11 / Table I: MCPC <= n-rend for k >= 3; flat beyond ~4.
  for (const int k : {3, 5, 7}) {
    EXPECT_LE(seconds(Scenario::HostRenderer, k),
              1.03 * seconds(Scenario::RendererPerPipeline, k))
        << "k=" << k;
  }
  const double m4 = seconds(Scenario::HostRenderer, 4);
  const double m7 = seconds(Scenario::HostRenderer, 7);
  EXPECT_NEAR(m7 / m4, 1.0, 0.10);  // the plateau
}

TEST_F(PaperClaims, ArrangementsAreEquivalent) {
  // §VI-A: "the different pipeline arrangements on the SCC have no
  // significant influence" — across all three scenarios.
  for (const Scenario s :
       {Scenario::SingleRenderer, Scenario::RendererPerPipeline,
        Scenario::HostRenderer}) {
    double t[3];
    int i = 0;
    for (const Arrangement a : {Arrangement::Unordered, Arrangement::Ordered,
                                Arrangement::Flipped}) {
      RunConfig cfg;
      cfg.scenario = s;
      cfg.pipelines = 5;
      cfg.arrangement = a;
      t[i++] = run_walkthrough(*scene_, *trace_, cfg).walkthrough.to_sec();
    }
    const double lo = std::min({t[0], t[1], t[2]});
    const double hi = std::max({t[0], t[1], t[2]});
    EXPECT_LT((hi - lo) / lo, 0.09) << scenario_name(s);
  }
}

TEST_F(PaperClaims, ClusterBeatsSccSeveralTimesOver) {
  // Fig. 13: the HPC node with modern cores is far faster.
  EXPECT_LT(seconds(Scenario::RendererPerPipeline, 7, PlatformKind::Cluster),
            0.2 * seconds(Scenario::RendererPerPipeline, 7));
}

TEST_F(PaperClaims, PowerGrowsLinearlyWithPipelines) {
  // Fig. 14: least-squares slope per added pipeline is stable.
  std::vector<double> watts;
  for (int k = 1; k <= 7; ++k) {
    RunConfig cfg;
    cfg.scenario = Scenario::HostRenderer;
    cfg.pipelines = k;
    watts.push_back(
        run_walkthrough(*scene_, *trace_, cfg).mean_chip_watts);
  }
  // Successive increments all close to the mean increment.
  const double mean_step = (watts.back() - watts.front()) / 6.0;
  EXPECT_GT(mean_step, 1.0);  // five extra spinning cores cost real watts
  for (std::size_t i = 1; i < watts.size(); ++i) {
    EXPECT_NEAR(watts[i] - watts[i - 1], mean_step, 0.25 * mean_step);
  }
}

TEST_F(PaperClaims, HybridWinsOnEnergy) {
  // §VI-B: hybrid MCPC+SCC beats the all-SCC best on joules.
  RunConfig hybrid;
  hybrid.scenario = Scenario::HostRenderer;
  hybrid.pipelines = 5;
  RunConfig allscc;
  allscc.scenario = Scenario::RendererPerPipeline;
  allscc.pipelines = 7;
  const RunResult h = run_walkthrough(*scene_, *trace_, hybrid);
  const RunResult s = run_walkthrough(*scene_, *trace_, allscc);
  EXPECT_LT(h.chip_energy_joules + h.host_extra_energy_joules,
            s.chip_energy_joules);
}

TEST_F(PaperClaims, BlurDvfsBuysRealButSublinearSpeed) {
  // Fig. 16: 1.5x clock -> ~26-35% faster, NOT 50%.
  RunConfig base;
  base.scenario = Scenario::HostRenderer;
  base.pipelines = 1;
  base.isolate_blur_tile = true;
  RunConfig fast = base;
  fast.blur_mhz = 800;
  const double t0 = run_walkthrough(*scene_, *trace_, base).walkthrough.to_sec();
  const double t1 = run_walkthrough(*scene_, *trace_, fast).walkthrough.to_sec();
  const double gain = 1.0 - t1 / t0;
  EXPECT_GT(gain, 0.18);
  EXPECT_LT(gain, 0.37);
}

TEST_F(PaperClaims, TailDownclockRecoversPowerAtSameSpeed) {
  // Fig. 16/17: the 400 MHz tail keeps the time, returns the watts.
  RunConfig fast;
  fast.scenario = Scenario::HostRenderer;
  fast.pipelines = 1;
  fast.isolate_blur_tile = true;
  fast.blur_mhz = 800;
  RunConfig mixed = fast;
  mixed.tail_mhz = 400;
  const RunResult a = run_walkthrough(*scene_, *trace_, fast);
  const RunResult b = run_walkthrough(*scene_, *trace_, mixed);
  EXPECT_NEAR(b.walkthrough.to_sec() / a.walkthrough.to_sec(), 1.0, 0.05);
  EXPECT_LT(b.mean_chip_watts, a.mean_chip_watts - 3.0);
}

TEST_F(PaperClaims, IdleTimesMatchTheFig15Pattern) {
  // Fig. 15 at 7 pipelines: blur waits least among the filters, scratch
  // the most; quartiles hug the medians.
  RunConfig cfg;
  cfg.scenario = Scenario::HostRenderer;
  cfg.pipelines = 7;
  const RunResult r = run_walkthrough(*scene_, *trace_, cfg);
  const StageReport* blur = r.stage(StageKind::Blur, 3);
  const StageReport* scratch = r.stage(StageKind::Scratch, 3);
  ASSERT_NE(blur, nullptr);
  ASSERT_NE(scratch, nullptr);
  EXPECT_LT(blur->wait_ms.median, scratch->wait_ms.median);
  for (const StageKind k : {StageKind::Sepia, StageKind::Flicker,
                            StageKind::Swap}) {
    const StageReport* rep = r.stage(k, 3);
    EXPECT_GT(rep->wait_ms.median, blur->wait_ms.median) << stage_name(k);
    // Tight quartiles (paper: "the quartiles are very close to the median").
    EXPECT_LT(rep->wait_ms.q3 - rep->wait_ms.q1,
              0.25 * rep->wait_ms.median + 1.0);
  }
}

// Table I at the paper's workload (400 frames at 400x400): every one of the
// 84 cells must stay within its pinned error (core/table1.hpp), so a model
// or tie-order change cannot drift the reproduction silently.
TEST(PaperTable1, EveryCellWithinItsPin) {
  const SceneBundle scene(CityParams{}, CameraConfig{}, 400, 400);
  const WorkloadTrace trace =
      WorkloadTrace::build(scene, 7, exec::trace_runner());
  const std::vector<RunResult> results =
      exec::run_grid(scene, trace, table1_configs());
  ASSERT_EQ(results.size(), kTable1Cells);
  double err_sum = 0.0;
  for (std::size_t i = 0; i < kTable1Cells; ++i) {
    const Table1Row& row = kTable1[i / 7];
    const double paper = row.paper_s[i % 7];
    const double sim = results[i].walkthrough.to_sec();
    const double err = 100.0 * std::fabs(sim - paper) / paper;
    err_sum += err;
    EXPECT_LE(err, row.pin_pct[i % 7])
        << row.label << " k=" << i % 7 + 1 << ": " << sim << " s vs paper "
        << paper << " s";
  }
  RecordProperty("table1_mean_err_pct",
                 std::to_string(err_sum / static_cast<double>(kTable1Cells)));
}

}  // namespace
}  // namespace sccpipe
