// Heap allocations of a timed walkthrough, counted by replacing the global
// operator new of this binary. A run's event loop must allocate almost
// nothing per event: event slots, fair-share completion lists, channel and
// RCCE callbacks and transfer tables are all reused once they have grown.
// Sanitizer runtimes own operator new, so under them the replacement is
// compiled out and the test skips.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sccpipe/core/walkthrough.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SCCPIPE_ALLOC_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define SCCPIPE_ALLOC_TEST_SANITIZED 1
#endif
#endif

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

#ifndef SCCPIPE_ALLOC_TEST_SANITIZED

namespace {
void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // SCCPIPE_ALLOC_TEST_SANITIZED

namespace sccpipe {
namespace {

/// Allocations per dispatched event above which a run counts as
/// allocating per message (before the callbacks and completion lists were
/// reused, a Table I run made 0.28).
constexpr double kMaxAllocationsPerEvent = 0.05;

class Allocations : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CityParams city;
    city.blocks_x = 4;
    city.blocks_z = 4;
    scene_ = new SceneBundle(city, CameraConfig{}, 120, 400);
    trace_ = new WorkloadTrace(WorkloadTrace::build(*scene_, 4));
  }
  static void TearDownTestSuite() {
    delete trace_;
    delete scene_;
  }

  /// Runs \p cfg and returns its allocations per dispatched event.
  static double allocations_per_event(const RunConfig& cfg,
                                      RunResult* out = nullptr) {
    const std::uint64_t before = g_allocations.load();
    RunResult r = run_walkthrough(*scene_, *trace_, cfg);
    const std::uint64_t allocations = g_allocations.load() - before;
    EXPECT_GT(r.events_dispatched, 0u);
    const double rate = static_cast<double>(allocations) /
                        static_cast<double>(r.events_dispatched);
    RecordProperty("allocations", std::to_string(allocations));
    RecordProperty("events", std::to_string(r.events_dispatched));
    if (out != nullptr) *out = std::move(r);
    return rate;
  }

  static SceneBundle* scene_;
  static WorkloadTrace* trace_;
};

SceneBundle* Allocations::scene_ = nullptr;
WorkloadTrace* Allocations::trace_ = nullptr;

TEST_F(Allocations, TableOneRunAllocatesAlmostNothingPerEvent) {
#ifdef SCCPIPE_ALLOC_TEST_SANITIZED
  GTEST_SKIP() << "the sanitizer runtime owns operator new";
#endif
  RunConfig cfg;
  cfg.scenario = Scenario::RendererPerPipeline;
  cfg.pipelines = 4;
  RunResult r;
  const double rate = allocations_per_event(cfg, &r);
  EXPECT_EQ(r.frame_done_ms.size(), 400u);
  EXPECT_LT(rate, kMaxAllocationsPerEvent);
}

TEST_F(Allocations, ChaosRunAllocatesAlmostNothingPerEvent) {
#ifdef SCCPIPE_ALLOC_TEST_SANITIZED
  GTEST_SKIP() << "the sanitizer runtime owns operator new";
#endif
  // RCCE payload drops with retransmission, and a stage core that
  // fail-stops mid-run and is remapped onto a spare.
  RunConfig cfg;
  cfg.scenario = Scenario::HostRenderer;
  cfg.pipelines = 4;
  const RunResult clean = run_walkthrough(*scene_, *trace_, cfg);
  cfg.fault.seed = 7;
  cfg.fault.rcce_drop_rate = 0.02;
  cfg.rcce.retry.max_attempts = 8;
  cfg.fault.core_failures.push_back(
      {clean.placement.pipeline_cores[1][2],
       SimTime::ms(clean.walkthrough.to_ms() * 0.4)});
  cfg.recovery.heartbeat_period = SimTime::us(200);
  cfg.recovery.detection_deadline = SimTime::us(500);
  RunResult r;
  const double rate = allocations_per_event(cfg, &r);
  ASSERT_FALSE(r.fault.failed) << r.fault.failure;
  EXPECT_GT(r.fault.rcce_drops, 0u);
  EXPECT_EQ(r.recovery.failures_detected, 1);
  EXPECT_LT(rate, kMaxAllocationsPerEvent);
}

}  // namespace
}  // namespace sccpipe
