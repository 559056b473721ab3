// Parallel experiment executor (exec/executor.hpp): pool lifecycle,
// exact-once index coverage, deterministic error reporting, and the load-
// bearing guarantee — run_grid() results are bit-identical at every job
// count, including under deterministic fault injection. This binary is the
// one CI runs under ThreadSanitizer (SCCPIPE_SANITIZE=thread).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sccpipe/exec/executor.hpp"

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

// ------------------------------------------------------------ default_jobs

TEST(DefaultJobs, EnvOverrideWins) {
  ASSERT_EQ(setenv("SCCPIPE_JOBS", "3", 1), 0);
  EXPECT_EQ(exec::default_jobs(), 3);
  ASSERT_EQ(setenv("SCCPIPE_JOBS", "not-a-number", 1), 0);
  EXPECT_GE(exec::default_jobs(), 1);  // falls back to hardware concurrency
  ASSERT_EQ(unsetenv("SCCPIPE_JOBS"), 0);
  EXPECT_GE(exec::default_jobs(), 1);
}

TEST(DefaultJobs, EnvIsCheckedAgainstTheCeiling) {
  // Reads the variable only; no thread starts.
  ASSERT_EQ(unsetenv("SCCPIPE_JOBS"), 0);
  EXPECT_TRUE(exec::check_jobs_env().ok());
  ASSERT_EQ(setenv("SCCPIPE_JOBS", "8", 1), 0);
  EXPECT_TRUE(exec::check_jobs_env().ok());
  const std::string above = std::to_string(exec::kMaxJobs + 1);
  for (const char* text : {"abc", "0", above.c_str()}) {
    ASSERT_EQ(setenv("SCCPIPE_JOBS", text, 1), 0);
    const Status st = exec::check_jobs_env();
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument) << text;
    EXPECT_NE(st.message().find("SCCPIPE_JOBS"), std::string::npos);
    EXPECT_NE(exec::default_jobs(), exec::kMaxJobs + 1);
  }
  ASSERT_EQ(unsetenv("SCCPIPE_JOBS"), 0);
}

// -------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEveryTask) {
  std::atomic<int> count{0};
  {
    exec::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&] { count.fetch_add(1); });
    }
  }  // destructor drains the queue and joins
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, UsesMultipleThreads) {
  std::mutex mu;
  std::set<std::thread::id> seen;
  std::atomic<int> started{0};
  {
    exec::ThreadPool pool(4);
    for (int i = 0; i < 4; ++i) {
      pool.submit([&] {
        started.fetch_add(1);
        // Hold until every worker has picked up a task, so four distinct
        // threads must participate.
        while (started.load() < 4) std::this_thread::yield();
        std::lock_guard<std::mutex> lock(mu);
        seen.insert(std::this_thread::get_id());
      });
    }
  }
  EXPECT_EQ(seen.size(), 4u);
}

// ------------------------------------------------------------ parallel_for

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  exec::parallel_for(8, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);

  // Nested: every outer index runs an inner loop of its own, so the outer
  // workers call parallel_for concurrently from inside a parallel_for.
  constexpr std::size_t kOuter = 12, kInner = 40;
  std::vector<std::atomic<int>> nested(kOuter * kInner);
  exec::parallel_for(4, kOuter, [&](std::size_t o) {
    exec::parallel_for(3, kInner, [&](std::size_t i) {
      nested[o * kInner + i].fetch_add(1);
    });
  });
  for (const auto& hit : nested) EXPECT_EQ(hit.load(), 1);

  // Inside run_grid's workers: a functional run composes its frames with a
  // parallel_for, so four concurrent workers each start one.
  std::vector<RunConfig> cfgs(4);
  for (std::size_t c = 0; c < cfgs.size(); ++c) {
    cfgs[c].scenario = c % 2 ? Scenario::HostRenderer
                             : Scenario::RendererPerPipeline;
    cfgs[c].pipelines = 1 + static_cast<int>(c);
    cfgs[c].functional = true;
  }
  for (const RunResult& r :
       exec::run_grid(shared_scene(), shared_trace(), cfgs, 4)) {
    EXPECT_EQ(r.frames.size(), 8u);
  }
}

TEST(ParallelFor, HandlesEdgeShapes) {
  int zero_calls = 0;
  exec::parallel_for(4, 0, [&](std::size_t) { ++zero_calls; });
  EXPECT_EQ(zero_calls, 0);

  // More jobs than items must still cover everything (pool is clamped).
  std::vector<std::atomic<int>> hits(2);
  exec::parallel_for(16, 2, [&](std::size_t i) { hits[i].fetch_add(1); });
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
}

TEST(ParallelFor, RethrowsLowestIndexError) {
  for (const int jobs : {1, 4}) {
    std::atomic<int> ran{0};
    try {
      exec::parallel_for(jobs, 64, [&](std::size_t i) {
        ran.fetch_add(1);
        if (i == 7 || i == 40) {
          throw std::runtime_error("boom " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 7") << "jobs=" << jobs;
    }
    EXPECT_EQ(ran.load(), 64) << "remaining indices still run";
  }

  // A nested loop's error surfaces through the outer call, still the
  // lowest outer index's.
  try {
    exec::parallel_for(4, 8, [](std::size_t o) {
      exec::parallel_for(4, 16, [o](std::size_t i) {
        if (o % 3 == 2 && i == 5) {
          throw std::runtime_error("inner " + std::to_string(o));
        }
      });
    });
    FAIL() << "expected an exception from a nested loop";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "inner 2");
  }
}

TEST(ParallelMap, ReturnsResultsInIndexOrder) {
  const std::vector<int> out = exec::parallel_map<int>(
      8, 257, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

// ---------------------------------------------------------------- run_grid

// Everything determinism-relevant in a RunResult, flattened to text so a
// mismatch prints the exact field that diverged.
std::string fingerprint(const RunResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << "walkthrough=" << r.walkthrough.to_ns() << '\n';
  os << "energy=" << r.chip_energy_joules << " watts=" << r.mean_chip_watts
     << '\n';
  os << "host=" << r.host_busy_sec << ' ' << r.host_extra_energy_joules
     << '\n';
  os << "events=" << r.events_dispatched << '\n';
  for (const double ms : r.frame_done_ms) os << "frame " << ms << '\n';
  for (const StageReport& s : r.stages) {
    os << "stage " << static_cast<int>(s.kind) << ' ' << s.pipeline << ' '
       << s.core << ' ' << s.busy_ms << ' ' << s.wait_ms.median << ' '
       << s.frames << '\n';
  }
  os << "fabric " << r.fabric.mesh_total_bytes << ' '
     << r.fabric.mesh_max_link_bytes << '\n';
  os << "fault " << r.fault.fingerprint << ' ' << r.fault.rcce_drops << ' '
     << r.fault.rcce_retransmissions << ' ' << r.fault.failed << '\n';
  return os.str();
}

std::vector<RunConfig> determinism_grid() {
  std::vector<RunConfig> cfgs;
  for (int k = 1; k <= 4; ++k) {
    for (const Scenario sc :
         {Scenario::SingleRenderer, Scenario::RendererPerPipeline,
          Scenario::HostRenderer}) {
      RunConfig cfg;
      cfg.scenario = sc;
      cfg.pipelines = k;
      // Fault injection + retry churn exercises the cancel-heavy simulator
      // path; the same seed must reproduce identical results on any worker.
      cfg.fault.seed = 7;
      cfg.fault.rcce_drop_rate = 0.02;
      cfg.rcce.retry.max_attempts = 8;
      cfg.rcce.retry.timeout = SimTime::ms(5);
      cfg.rcce.retry.backoff = SimTime::ms(1);
      cfgs.push_back(cfg);
    }
  }
  return cfgs;
}

TEST(RunGrid, IdenticalResultsAcrossJobCounts) {
  const std::vector<RunConfig> cfgs = determinism_grid();
  const std::vector<RunResult> serial =
      exec::run_grid(shared_scene(), shared_trace(), cfgs, 1);
  ASSERT_EQ(serial.size(), cfgs.size());
  for (const int jobs : {4, 8}) {
    const std::vector<RunResult> parallel =
        exec::run_grid(shared_scene(), shared_trace(), cfgs, jobs);
    ASSERT_EQ(parallel.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      EXPECT_EQ(fingerprint(serial[i]), fingerprint(parallel[i]))
          << "config " << i << " diverged at jobs=" << jobs;
    }
  }
}

TEST(RunGrid, FunctionalFramesIdenticalAcrossJobCounts) {
  // Functional runs compose their frames with a parallel_for of their own,
  // so run_grid workers nest parallel_for calls and run them concurrently:
  // every config's frames must match the serial grid's byte for byte.
  std::vector<RunConfig> cfgs;
  for (const Scenario sc : {Scenario::RendererPerPipeline,
                            Scenario::HostRenderer}) {
    for (const int k : {1, 3, 4}) {
      RunConfig cfg;
      cfg.scenario = sc;
      cfg.pipelines = k;
      cfg.functional = true;
      cfgs.push_back(cfg);
    }
  }
  const std::vector<RunResult> serial =
      exec::run_grid(shared_scene(), shared_trace(), cfgs, 1);
  const std::vector<RunResult> parallel =
      exec::run_grid(shared_scene(), shared_trace(), cfgs, 4);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    ASSERT_FALSE(serial[i].frames.empty()) << "config " << i;
    EXPECT_EQ(serial[i].frames, parallel[i].frames) << "config " << i;
    EXPECT_EQ(fingerprint(serial[i]), fingerprint(parallel[i]))
        << "config " << i;
  }
}

TEST(RunGrid, InvalidConfigThrowsBeforeAnyRun) {
  // Every config is validated before the first run starts: a bad config at
  // the last index must not let the valid ones before it run (each would
  // fill its own timeline recorder).
  std::vector<RunConfig> cfgs = determinism_grid();
  std::vector<TimelineRecorder> timelines(cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    cfgs[i].timeline = &timelines[i];
  }
  RunConfig bad;
  bad.pipelines = 0;
  cfgs.push_back(bad);
  const std::size_t bad_index = cfgs.size() - 1;
  for (const int jobs : {1, 4}) {
    try {
      exec::run_grid(shared_scene(), shared_trace(), cfgs, jobs);
      ADD_FAILURE() << "run_grid accepted pipelines = 0 at jobs=" << jobs;
    } catch (const exec::InvalidConfigError& e) {
      EXPECT_EQ(e.index(), bad_index);
      EXPECT_EQ(e.status().code(), StatusCode::InvalidArgument);
      EXPECT_EQ(e.status(), validate_run_config(bad));
      EXPECT_NE(std::string(e.what()).find(
                    "config " + std::to_string(bad_index)),
                std::string::npos)
          << e.what();
    }
    for (const TimelineRecorder& t : timelines) EXPECT_TRUE(t.empty());
  }
  // The probe is live: a run does record into its config's timeline.
  exec::run_grid(shared_scene(), shared_trace(), {cfgs.front()}, 1);
  EXPECT_FALSE(timelines.front().empty());
}

TEST(TraceRunner, ParallelTraceBuildIsBitIdentical) {
  // The per-frame estimation pass writes disjoint slices; a parallel build
  // must produce exactly the serial trace.
  const SceneBundle& scene = shared_scene();
  const WorkloadTrace serial = WorkloadTrace::build(scene, 4);
  const WorkloadTrace parallel =
      WorkloadTrace::build(scene, 4, exec::trace_runner(8));
  for (int frame = 0; frame < serial.frame_count(); ++frame) {
    for (int k = 1; k <= serial.max_k(); ++k) {
      for (int s = 0; s < k; ++s) {
        const RenderLoad& a = serial.load(frame, k, s);
        const RenderLoad& b = parallel.load(frame, k, s);
        EXPECT_EQ(a.nodes_visited, b.nodes_visited);
        EXPECT_EQ(a.tris_accepted, b.tris_accepted);
        EXPECT_EQ(a.projected_pixels, b.projected_pixels);
      }
    }
  }
}

TEST(RunGrid, RepeatedParallelRunsAreStable) {
  // Same grid twice at the same job count: catches any run-order dependence
  // (e.g. hidden shared state warming up on the first pass).
  const std::vector<RunConfig> cfgs = determinism_grid();
  const std::vector<RunResult> a =
      exec::run_grid(shared_scene(), shared_trace(), cfgs, 4);
  const std::vector<RunResult> b =
      exec::run_grid(shared_scene(), shared_trace(), cfgs, 4);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    EXPECT_EQ(fingerprint(a[i]), fingerprint(b[i])) << "config " << i;
  }
}

}  // namespace
}  // namespace sccpipe
