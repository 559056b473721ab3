// The shared run flags: read_run_flags() turns argv into RunConfig fields
// and validate_run_config() is the one check on them. A table pins every
// value the validator refuses and every documented sentinel it keeps; a
// seeded fuzzer feeds edge values through both and runs whatever passes.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "run_flags.hpp"
#include "sccpipe/core/walkthrough.hpp"
#include "sccpipe/support/args.hpp"
#include "sccpipe/support/check.hpp"
#include "sccpipe/support/rng.hpp"

namespace sccpipe {
namespace {

using Flags = std::vector<std::pair<std::string, std::string>>;

constexpr int kFrames = 12;
constexpr int kMaxPipelines = 3;

const SceneBundle& tiny_scene() {
  static const SceneBundle* scene = [] {
    CityParams city;
    city.blocks_x = 4;
    city.blocks_z = 4;
    return new SceneBundle(city, CameraConfig{}, 60, kFrames);
  }();
  return *scene;
}

const WorkloadTrace& tiny_trace() {
  static const WorkloadTrace* trace =
      new WorkloadTrace(WorkloadTrace::build(tiny_scene(), kMaxPipelines));
  return *trace;
}

/// Parses "--flag value" pairs over the shared table into an mcpc run on
/// \p pipelines pipelines; the Status is read_run_flags()'s.
Status read(const Flags& flags, RunConfig* cfg, int pipelines = 2) {
  std::vector<std::string> words = {"prog"};
  for (const auto& [flag, value] : flags) {
    words.push_back("--" + flag);
    words.push_back(value);
  }
  std::vector<const char*> argv;
  for (const std::string& w : words) argv.push_back(w.c_str());
  ArgParser args;
  add_run_flags(args);
  EXPECT_TRUE(args.parse(static_cast<int>(argv.size()), argv.data()))
      << args.error();
  cfg->pipelines = pipelines;
  return read_run_flags(args, cfg);
}

std::string describe(const Flags& flags) {
  std::string out;
  for (const auto& [flag, value] : flags) {
    out += " --" + flag + " '" + value + "'";
  }
  return out;
}

/// Runs \p cfg on the tiny scene and checks its fault report and, unless
/// it failed, its one frame ledger: every frame offered, and offered =
/// delivered + shed + lost, read off the transport, recovery and gray
/// reports.
void expect_clean_run(const RunConfig& cfg, const std::string& what) {
  RunResult r;
  ASSERT_NO_THROW(r = run_walkthrough(tiny_scene(), tiny_trace(), cfg))
      << what;
  const FaultReport& f = r.fault;
  EXPECT_EQ(f.failed, f.failure_code != StatusCode::Ok) << what;
  EXPECT_EQ(f.failed, !f.failure.empty()) << what;
  EXPECT_EQ(f.frames_completed, static_cast<int>(r.frame_done_ms.size()))
      << what;
  EXPECT_LE(f.frames_completed, kFrames) << what;
  if (f.failed) return;
  const TransportReport& t = r.transport;
  const GrayReport& g = r.gray;
  EXPECT_EQ(t.enabled, cfg.overload.enabled()) << what;
  EXPECT_EQ(g.enabled, cfg.gray.enabled()) << what;
  const std::uint64_t frames = kFrames;
  const std::uint64_t offered = t.enabled ? t.frames_offered : frames;
  const std::uint64_t shed = t.shed_admission + t.shed_breaker +
                             t.shed_deadline + t.shed_transport;
  const auto lost = static_cast<std::uint64_t>(r.recovery.frames_lost);
  EXPECT_EQ(offered, frames) << what;
  EXPECT_EQ(offered, r.frame_done_ms.size() + shed + lost) << what;
  if (g.enabled) {
    EXPECT_EQ(g.frames_offered, offered) << what;
    EXPECT_EQ(g.frames_shed, shed + lost) << what;
  }
}

TEST(RunFlags, DefaultsReadAsTheDefaultConfig) {
  RunConfig cfg;
  ASSERT_TRUE(read({}, &cfg, 1).ok());
  EXPECT_TRUE(cfg == RunConfig{});
}

TEST(RunFlags, ValuesLandInTheirFields) {
  RunConfig cfg;
  ASSERT_TRUE(read({{"fault-plan", "host-drop=0.1"},
                    {"core-fail", "5@40,9@80"},
                    {"heartbeat-ms", "2"},
                    {"detect-ms", "5"},
                    {"max-spares", "1"},
                    {"gray-detect-factor", "1.5"},
                    {"gray-detect-windows", "2"},
                    {"gray-policy", "dvfs"},
                    {"rcce-retries", "8"},
                    {"rcce-timeout-ms", "2.5"},
                    {"offered-fps", "400"},
                    {"window", "4"},
                    {"queue-depth", "2"},
                    {"frame-deadline-ms", "40"},
                    {"breaker-threshold", "3"},
                    {"breaker-cooldown-ms", "100"}},
                   &cfg)
                  .ok());
  EXPECT_DOUBLE_EQ(cfg.fault.host_drop_rate, 0.1);
  ASSERT_EQ(cfg.fault.core_failures.size(), 2u);
  EXPECT_EQ(cfg.fault.core_failures[1].core, 9);
  EXPECT_EQ(cfg.recovery.heartbeat_period, SimTime::ms(2));
  EXPECT_EQ(cfg.recovery.detection_deadline, SimTime::ms(5));
  EXPECT_EQ(cfg.recovery.max_spares, 1);
  EXPECT_DOUBLE_EQ(cfg.gray.detect_factor, 1.5);
  EXPECT_EQ(cfg.gray.detect_windows, 2);
  EXPECT_EQ(cfg.gray.policy, GrayPolicy::Dvfs);
  EXPECT_EQ(cfg.rcce.retry.max_attempts, 8);
  EXPECT_EQ(cfg.rcce.retry.timeout, SimTime::us(2500));
  EXPECT_DOUBLE_EQ(cfg.overload.offered_fps, 400.0);
  EXPECT_EQ(cfg.overload.window, 4);
  EXPECT_EQ(cfg.overload.queue_depth, 2);
  EXPECT_EQ(cfg.overload.frame_deadline, SimTime::ms(40));
  EXPECT_EQ(cfg.overload.breaker_threshold, 3);
  EXPECT_EQ(cfg.overload.breaker_cooldown, SimTime::ms(100));
}

TEST(RunFlags, MalformedValuesAreTypedErrorsNamingTheFlag) {
  const Flags cases[] = {
      {{"window", "4x"}},
      {{"offered-fps", "nan"}},
      {{"detect-ms", "1e999"}},
      {{"max-spares", ""}},
      {{"rcce-retries", "99999999999"}},
      {{"heartbeat-ms", "2e9"}},  // past the clock's 1e9 ms range
      {{"gray-policy", "bogus"}},
      {{"fault-plan", "bogus=1"}},
      {{"core-fail", "5@40,"}},
      {{"stall", "x"}},
  };
  for (const Flags& flags : cases) {
    RunConfig cfg;
    const Status st = read(flags, &cfg);
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument) << describe(flags);
    EXPECT_NE(st.message().find(flags[0].first), std::string::npos)
        << st.message();
  }
}

TEST(RunFlags, EveryValueWithoutADocumentedMeaningIsRejected) {
  const Flags cases[] = {
      {{"offered-fps", "-5"}},
      {{"offered-fps", "1e-4"}},
      {{"window", "-2"}},
      {{"queue-depth", "-3"}},
      {{"breaker-threshold", "-4"}},
      {{"offered-fps", "20"}, {"frame-deadline-ms", "-3"}},
      {{"frame-deadline-ms", "-3"}},
      {{"breaker-cooldown-ms", "-1"}},
      {{"rcce-retries", "-2"}},
      {{"rcce-retries", "0"}},
      {{"rcce-timeout-ms", "0"}},
      {{"rcce-timeout-ms", "-1"}},
      {{"max-spares", "-2"}},
      {{"gray-detect-factor", "-1"}},
      {{"heartbeat-ms", "0"}},
      {{"detect-ms", "15"}},  // under twice the 10 ms heartbeat
      {{"gray-detect-factor", "1"}},
      {{"gray-detect-factor", "1.3"}, {"gray-detect-windows", "0"}},
      // reorder=/duplicate= on the host feed need the sliding window.
      {{"fault-plan", "reorder=0.2"}},
      {{"fault-plan", "duplicate=0.2:1ms"}},
  };
  for (const Flags& flags : cases) {
    RunConfig cfg;
    ASSERT_TRUE(read(flags, &cfg).ok()) << describe(flags);
    const Status st = validate_run_config(cfg);
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument) << describe(flags);
    EXPECT_NE(st.message().find(flags.back().first == "fault-plan"
                                    ? "window"
                                    : flags.back().first),
              std::string::npos)
        << st.message();
  }
  // The reorder rule is about the host feed: renderer-per-pipeline runs
  // have none, so the fate is accepted there.
  RunConfig nrend;
  nrend.scenario = Scenario::RendererPerPipeline;
  ASSERT_TRUE(read({{"fault-plan", "reorder=0.2"}}, &nrend).ok());
  EXPECT_TRUE(validate_run_config(nrend).ok());
}

TEST(RunFlags, DocumentedSentinelsStayValidAndRun) {
  const Flags cases[] = {
      {{"max-spares", "-1"}, {"core-fail", "2@0.1"}},
      {{"max-spares", "0"}},
      // Factor 0 is the detector's off switch, whatever the policy.
      {{"gray-detect-factor", "0"}, {"slow-core", "2:3@0"}},
      {{"gray-detect-factor", "0"}, {"gray-policy", "rebalance"}},
      {{"gray-detect-factor", "0"}, {"gray-detect-windows", "-3"}},
      {{"offered-fps", "0"},
       {"window", "0"},
       {"queue-depth", "0"},
       {"frame-deadline-ms", "0"},
       {"breaker-threshold", "0"},
       {"breaker-cooldown-ms", "0"}},
      {{"offered-fps", "20"}, {"window", "2"}, {"breaker-cooldown-ms", "0"}},
      {{"rcce-retries", "1"}},
      {{"detect-ms", "20"}},  // exactly twice the heartbeat
  };
  for (const Flags& flags : cases) {
    RunConfig cfg;
    ASSERT_TRUE(read(flags, &cfg).ok()) << describe(flags);
    ASSERT_TRUE(validate_run_config(cfg).ok())
        << describe(flags) << ": " << validate_run_config(cfg).message();
    expect_clean_run(cfg, describe(flags));
  }
}

/// Values per shared flag that a run can use, drawn alongside edge values.
const std::vector<std::pair<std::string, std::vector<std::string>>>&
plausible_values() {
  static const std::vector<std::pair<std::string, std::vector<std::string>>>
      table = {
          {"fault-plan",
           {"rcce-drop=0.05", "host-drop=0.1;reorder=0.05:1ms",
            "duplicate=0.2:1ms", "link-down=2", "mc-stall=1", "bogus=1",
            "link-down=2;window=1e15ms", "host-delay=0.5:1e300ms",
            "link-down=2;window=0", "horizon=0;link-down=2"}},
          {"core-fail", {"5@4", "5@4,9@8", "99@1", "5@"}},
          {"slow-core", {"14:4@1", "3:2@0", "14:0.5@1"}},
          {"degraded-link", {"1-2:3@1", "0-7:2@1"}},
          {"stall", {"26:5:1", "x"}},
          {"heartbeat-ms", {"2", "10"}},
          {"detect-ms", {"5", "25"}},
          {"max-spares", {"0", "2"}},
          {"gray-detect-factor", {"1.3", "2"}},
          {"gray-detect-windows", {"1", "3"}},
          {"gray-policy", {"off", "dvfs", "migrate", "rebalance", "bogus"}},
          {"rcce-retries", {"8", "16"}},
          {"rcce-timeout-ms", {"2", "5"}},
          {"offered-fps", {"400", "1e5"}},
          {"window", {"1", "4"}},
          {"queue-depth", {"2", "4"}},
          {"frame-deadline-ms", {"40"}},
          {"breaker-threshold", {"2", "4"}},
          {"breaker-cooldown-ms", {"20"}},
      };
  return table;
}

TEST(RunFlags, SeededFuzzRejectsOrRunsCleanly) {
  const char* const kEdges[] = {"-5",   "0",     "-1",  "1e9", "2147483647",
                                "1e999", "nan", "4x",  ""};
  const Scenario kScenarios[] = {Scenario::HostRenderer,
                                 Scenario::RendererPerPipeline,
                                 Scenario::SingleRenderer};
  Rng rng(20261018);
  int rejected_reading = 0;
  int rejected_checking = 0;
  int ran = 0;
  int composed = 0;  // overload runs with a core failure or gray detection
  for (int i = 0; i < 2000; ++i) {
    Flags flags;
    for (const auto& [flag, values] : plausible_values()) {
      if (rng.uniform() >= 0.2) continue;
      flags.emplace_back(flag, rng.uniform() < 0.35
                                   ? kEdges[rng.below(std::size(kEdges))]
                                   : values[rng.below(values.size())]);
    }
    RunConfig cfg;
    cfg.scenario = kScenarios[rng.below(std::size(kScenarios))];
    const int pipelines = 1 + static_cast<int>(rng.below(kMaxPipelines));
    const std::string what = describe(flags);
    const Status read_st = read(flags, &cfg, pipelines);
    if (!read_st.ok()) {
      EXPECT_EQ(read_st.code(), StatusCode::InvalidArgument) << what;
      ++rejected_reading;
      continue;
    }
    const Status valid = validate_run_config(cfg);
    if (!valid.ok()) {
      EXPECT_EQ(valid.code(), StatusCode::InvalidArgument) << what;
      ++rejected_checking;
      continue;
    }
    expect_clean_run(cfg, what);
    ++ran;
    if (cfg.overload.enabled() &&
        (!cfg.fault.core_failures.empty() || cfg.gray.enabled())) {
      ++composed;
    }
  }
  // The draw must exercise all three outcomes, and fault modes together.
  EXPECT_GT(rejected_reading, 100);
  EXPECT_GT(rejected_checking, 100);
  EXPECT_GT(ran, 100);
  EXPECT_GT(composed, 10);
}

}  // namespace
}  // namespace sccpipe
