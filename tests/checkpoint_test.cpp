// Crash-durability chaos tests: plant crash-at fates at seeded random
// instants, let the run die, resume from the snapshot, and demand the final
// metrics be byte-identical to an uninterrupted run — plain and under fault
// injection, fail-stop recovery, and overload shedding. Plus
// the failure half: corrupted snapshots, config mismatches, and snapshots
// that claim progress the replay never reaches must all surface as typed
// checkpoint errors, never as silently wrong results.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sccpipe/core/run_snapshot.hpp"
#include "sccpipe/core/walkthrough.hpp"
#include "sccpipe/support/rng.hpp"
#include "sccpipe/support/snapshot.hpp"

namespace sccpipe {
namespace {

class CheckpointFixture : public ::testing::Test {
 public:
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

  static SceneBundle* scene_;
  static WorkloadTrace* trace_;
};

SceneBundle* CheckpointFixture::scene_ = nullptr;
WorkloadTrace* CheckpointFixture::trace_ = nullptr;

/// The comparison artifact: every CSV field the CLI emits, rendered with
/// the CLI's own formats, so "byte-identical CSV" is tested at the library
/// boundary.
std::string row(const RunResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%.3f,%.2f,%.1f,%.3f,%.1f,%d,%d,%d,%d,%d,"
                "%.3f,%.3f,",
                r.walkthrough.to_sec(), r.mean_chip_watts,
                r.chip_energy_joules, r.host_busy_sec,
                r.host_extra_energy_joules, r.recovery.failures_detected,
                r.recovery.failures_recovered, r.recovery.frames_replayed,
                r.recovery.frames_lost, r.recovery.spares_used,
                r.recovery.max_detection_latency_ms,
                r.recovery.post_failure_fps);
  return std::string(buf) + r.transport.csv();
}

std::string snap_path(const std::string& tag) {
  return "/tmp/sccpipe_checkpoint_test_" + tag + ".snap";
}

/// Crash the run at \p crash_fractions of its uninterrupted duration,
/// resume until it completes, and compare the final result against the
/// uninterrupted reference. Returns the number of attempts consumed.
int crash_resume_cycle(RunConfig cfg, const std::vector<double>& fractions,
                       int every_frames, const std::string& tag) {
  const RunResult ref = run_walkthrough(CheckpointFixture::scene(),
                                        CheckpointFixture::trace(), cfg);
  EXPECT_FALSE(ref.checkpoint.crashed);

  RunConfig crashed = cfg;
  for (const double f : fractions) {
    crashed.fault.crashes.push_back(ref.walkthrough * f);
  }
  crashed.checkpoint.every_frames = every_frames;
  crashed.checkpoint.file = snap_path(tag);
  std::remove(crashed.checkpoint.file.c_str());

  int attempts = 0;
  RunResult r;
  for (;;) {
    ++attempts;
    EXPECT_LE(attempts, static_cast<int>(fractions.size()) + 1)
        << tag << ": crash plan did not converge";
    if (attempts > static_cast<int>(fractions.size()) + 1) break;
    r = run_walkthrough(CheckpointFixture::scene(),
                        CheckpointFixture::trace(), crashed);
    EXPECT_EQ(r.checkpoint.error_code, StatusCode::Ok)
        << tag << ": " << r.checkpoint.error;
    if (!r.checkpoint.crashed) break;
    crashed.checkpoint.resume = true;  // next attempt resumes
  }
  EXPECT_EQ(row(r), row(ref)) << tag;
  if (crashed.checkpoint.resume) {
    EXPECT_TRUE(r.checkpoint.resumed) << tag;
    EXPECT_TRUE(r.checkpoint.resume_verified) << tag;
  }
  std::remove(crashed.checkpoint.file.c_str());
  return attempts;
}

RunConfig mcpc_config() {
  RunConfig cfg;
  cfg.scenario = Scenario::HostRenderer;
  cfg.pipelines = 3;
  return cfg;
}

// -------------------------------------------------------------- chaos sweep

// Seeded random crash instants, one and two crashes per plan. Every cycle
// must converge in (#crashes + 1) attempts and reproduce the uninterrupted
// metrics byte-for-byte.
TEST_F(CheckpointFixture, RandomizedCrashPointsConverge) {
  Rng rng(20260807);
  for (int trial = 0; trial < 3; ++trial) {
    const double f1 = 0.1 + 0.8 * rng.uniform();
    const std::string tag = "chaos_t" + std::to_string(trial);
    const int attempts = crash_resume_cycle(mcpc_config(), {f1}, 3, tag);
    EXPECT_EQ(attempts, 2) << tag;
  }
  const double a = 0.1 + 0.3 * rng.uniform();
  const double b = a + 0.1 + 0.4 * rng.uniform();
  const int attempts = crash_resume_cycle(mcpc_config(), {a, b}, 2, "chaos2");
  EXPECT_EQ(attempts, 3) << "chaos2";
}

TEST_F(CheckpointFixture, CrashResumeUnderHostFaultInjection) {
  RunConfig cfg = mcpc_config();
  ASSERT_TRUE(cfg.fault.parse("host-drop=0.03;host-delay=0.05:2ms").ok());
  cfg.rcce.retry.max_attempts = 3;
  cfg.overload.window = 4;
  cfg.overload.queue_depth = 8;
  crash_resume_cycle(cfg, {0.5}, 2, "fault");
}

TEST_F(CheckpointFixture, CrashResumeUnderCoreFailureRecovery) {
  RunConfig cfg = mcpc_config();
  ASSERT_TRUE(cfg.fault.parse("core-fail=5@40").ok());
  crash_resume_cycle(cfg, {0.6}, 2, "recovery");
}

TEST_F(CheckpointFixture, CrashResumeUnderOverloadShedding) {
  RunConfig cfg = mcpc_config();
  cfg.overload.offered_fps = 400.0;
  cfg.overload.window = 4;
  cfg.overload.queue_depth = 4;
  cfg.overload.frame_deadline = SimTime::ms(40);
  cfg.overload.breaker_threshold = 4;
  crash_resume_cycle(cfg, {0.4}, 2, "overload");
}

// ------------------------------------------------------------ failure half

/// Crash once with checkpoints on and leave the snapshot on disk.
std::string make_snapshot(RunConfig cfg, const std::string& tag) {
  const RunResult probe = run_walkthrough(CheckpointFixture::scene(),
                                          CheckpointFixture::trace(), cfg);
  cfg.fault.crashes.push_back(probe.walkthrough * 0.6);
  cfg.checkpoint.every_frames = 2;
  cfg.checkpoint.file = snap_path(tag);
  std::remove(cfg.checkpoint.file.c_str());
  const RunResult dead = run_walkthrough(CheckpointFixture::scene(),
                                         CheckpointFixture::trace(), cfg);
  EXPECT_TRUE(dead.checkpoint.crashed);
  EXPECT_GT(dead.checkpoint.checkpoints_written, 0u);
  return cfg.checkpoint.file;
}

TEST_F(CheckpointFixture, ResumeRejectsCorruptedSnapshot) {
  const std::string path = make_snapshot(mcpc_config(), "corrupt");
  std::vector<std::uint8_t> framed;
  ASSERT_TRUE(snapshot::read_file(path, &framed).ok());
  framed[framed.size() / 2] ^= 0x10;  // flip one payload bit
  ASSERT_TRUE(snapshot::write_file_atomic(path, framed).ok());

  RunConfig cfg = mcpc_config();
  cfg.checkpoint.file = path;
  cfg.checkpoint.resume = true;
  const RunResult r = run_walkthrough(scene(), trace(), cfg);
  EXPECT_EQ(r.checkpoint.error_code, StatusCode::DataLoss);
  EXPECT_FALSE(r.checkpoint.resume_verified);
  std::remove(path.c_str());
}

TEST_F(CheckpointFixture, ResumeRejectsConfigFingerprintMismatch) {
  const std::string path = make_snapshot(mcpc_config(), "fpmismatch");
  RunConfig other = mcpc_config();
  other.seed = 777;  // trajectory-shaping change
  other.checkpoint.file = path;
  other.checkpoint.resume = true;
  const RunResult r = run_walkthrough(scene(), trace(), other);
  EXPECT_EQ(r.checkpoint.error_code, StatusCode::InvalidArgument);
  std::remove(path.c_str());
}

TEST_F(CheckpointFixture, ResumeDetectsTamperedComponentState) {
  const std::string path = make_snapshot(mcpc_config(), "tamper");
  std::vector<std::uint8_t> framed;
  ASSERT_TRUE(snapshot::read_file(path, &framed).ok());
  RunSnapshot snap;
  ASSERT_TRUE(parse_run_snapshot(framed, &snap).ok());
  ASSERT_FALSE(snap.state.empty());
  snap.state.back() ^= 0xff;  // valid frame, lying component blob
  ASSERT_TRUE(snapshot::write_file_atomic(path,
                                          serialize_run_snapshot(snap)).ok());

  RunConfig cfg = mcpc_config();
  cfg.checkpoint.file = path;
  cfg.checkpoint.resume = true;
  const RunResult r = run_walkthrough(scene(), trace(), cfg);
  EXPECT_EQ(r.checkpoint.error_code, StatusCode::DataLoss)
      << r.checkpoint.error;
  EXPECT_FALSE(r.checkpoint.resume_verified);
  std::remove(path.c_str());
}

TEST_F(CheckpointFixture, ResumeDetectsUnreachableAnchor) {
  const std::string path = make_snapshot(mcpc_config(), "unreachable");
  std::vector<std::uint8_t> framed;
  ASSERT_TRUE(snapshot::read_file(path, &framed).ok());
  RunSnapshot snap;
  ASSERT_TRUE(parse_run_snapshot(framed, &snap).ok());
  snap.frames_delivered = 100000;  // progress the replay can never reach
  ASSERT_TRUE(snapshot::write_file_atomic(path,
                                          serialize_run_snapshot(snap)).ok());

  RunConfig cfg = mcpc_config();
  cfg.checkpoint.file = path;
  cfg.checkpoint.resume = true;
  const RunResult r = run_walkthrough(scene(), trace(), cfg);
  EXPECT_EQ(r.checkpoint.error_code, StatusCode::DataLoss)
      << r.checkpoint.error;
  std::remove(path.c_str());
}

// --------------------------------------------------------------- behaviors

TEST_F(CheckpointFixture, CheckpointingAloneDoesNotPerturbTheRun) {
  RunConfig cfg = mcpc_config();
  const RunResult ref = run_walkthrough(scene(), trace(), cfg);
  cfg.checkpoint.every_frames = 2;
  cfg.checkpoint.file = snap_path("noop");
  std::remove(cfg.checkpoint.file.c_str());
  const RunResult r = run_walkthrough(scene(), trace(), cfg);
  EXPECT_GT(r.checkpoint.checkpoints_written, 0u);
  EXPECT_EQ(row(r), row(ref));
  std::remove(cfg.checkpoint.file.c_str());
}

TEST_F(CheckpointFixture, CrashAfterTheRunEndsNeverFires) {
  RunConfig cfg = mcpc_config();
  const RunResult ref = run_walkthrough(scene(), trace(), cfg);
  cfg.fault.crashes.push_back(ref.walkthrough * 4.0);
  const RunResult r = run_walkthrough(scene(), trace(), cfg);
  EXPECT_FALSE(r.checkpoint.crashed);
  EXPECT_EQ(row(r), row(ref));
}

TEST_F(CheckpointFixture, CrashAtParsesInFaultPlanGrammar) {
  FaultPlan p;
  ASSERT_TRUE(p.parse("crash-at=800ms;crash-at=1.5s").ok());
  ASSERT_EQ(p.crashes.size(), 2u);
  EXPECT_EQ(p.crashes[0], SimTime::ms(800));
  EXPECT_EQ(p.crashes[1], SimTime::sec(1.5));
  EXPECT_FALSE(p.parse("crash-at=0ms").ok());
  EXPECT_FALSE(p.parse("crash-at=-5ms").ok());
}

}  // namespace
}  // namespace sccpipe
