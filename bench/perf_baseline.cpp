// Perf baseline for the allocation-free hot paths: measures the optimised
// event engine, pixel kernels and workload-trace build against the
// compiled-in reference
// transcriptions (sim/reference_scheduler.hpp, filters/reference.hpp,
// render/reference.hpp, support/reference.hpp) and writes
// BENCH_perf_baseline.json.
//
// The committed numbers are speedup RATIOS (optimised vs reference on the
// same machine, same build, same workload), so they are comparable across
// machines; the absolute throughputs and the reduced end-to-end walkthrough
// time are recorded for context only. The event-churn row also records heap
// allocations per event on both sides (counted via a replaced operator
// new): the wall-clock ratio depends on how cheap the host allocator's fast
// path is, while the allocation count is the structural property this
// baseline exists to pin down — see docs/PERF.md for the analysis.
// `--check FILE` is the CI regression gate: it fails when any current ratio
// drops below half the committed one (a >2x regression), and deliberately
// never gates on absolute numbers.
//
// Run it (and regenerate the committed record) with SCCPIPE_JOBS=1: the
// functional e2e row composes its frames on SCCPIPE_JOBS threads
// (support/parallel.hpp), so at more threads that row would measure the
// core count. The kernel rows run on one thread either way. The record
// carries nproc and jobs.
//
// Flags:
//   --out PATH     write the JSON record here (default BENCH_perf_baseline.json;
//                  refused when it names the --check file)
//   --smoke        reduced repeats/workloads for CI (ratios are noisier but
//                  the 2x gate has plenty of margin)
//   --check PATH   compare against a committed record; exit 1 on regression

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "queue_bench.hpp"
#include "sccpipe/core/walkthrough.hpp"
#include "sccpipe/core/workload.hpp"
#include "sccpipe/filters/filters.hpp"
#include "sccpipe/filters/reference.hpp"
#include "sccpipe/render/rasterizer.hpp"
#include "sccpipe/render/reference.hpp"
#include "sccpipe/scc/chip.hpp"
#include "sccpipe/sim/reference_scheduler.hpp"
#include "sccpipe/sim/simulator.hpp"
#include "sccpipe/support/args.hpp"
#include "sccpipe/support/check.hpp"
#include "sccpipe/support/crc.hpp"
#include "sccpipe/support/parallel.hpp"
#include "sccpipe/support/reference.hpp"
#include "sccpipe/support/rng.hpp"

using namespace sccpipe;

// Counted global operator new: lets the bench report heap allocations per
// event for each engine. The optimised hot path's headline property is
// *zero* steady-state allocations (also asserted by the SimulatorStats
// test); the counter makes the before/after visible in the JSON record
// even on allocators whose fast path is cheap in wall-clock terms. The
// count is per thread: the measured engines run on the main thread, and
// the functional e2e row's composition threads allocate too.
static thread_local std::uint64_t g_heap_allocs = 0;

// Every replacement below stays out of line. Inlined into a caller, GCC's
// -Wmismatched-new-delete pairs the malloc() or free() inside with the
// caller's operator delete or operator new and, at -O2/-O3, warns (an
// error under SCCPIPE_WERROR), although the two always match here.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_heap_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t n, std::align_val_t align) {
  ++g_heap_allocs;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (n + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  SCCPIPE_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One measured comparison: reference vs optimised throughput in the same
/// unit, plus their ratio (the number the CI gate tracks).
struct Metric {
  std::string name;
  std::string unit;
  double reference = 0.0;
  double optimized = 0.0;
  /// Heap allocations per event during the measured run (event_churn only;
  /// negative = not measured for this metric).
  double ref_allocs_per_event = -1.0;
  double opt_allocs_per_event = -1.0;
  double speedup() const { return reference > 0.0 ? optimized / reference : 0.0; }
};

// ------------------------------------------------------------ event churn
//
// The transports' retry/timeout shape: every work event arms a watchdog
// timeout that the work's completion cancels, so the engine sees two
// schedules, one cancel and one dispatch per useful event — the same churn
// the RCCE retry layer and the host links generate. Both engines run the
// identical workload; only callback storage and heap layout differ.
//
// The driver is deliberately thin (integer ids, handles, no payload), so
// the measured time is the engines' schedule/cancel/dispatch machinery,
// not common workload cost that would dilute the ratio.

template <class Engine, class Handle>
struct ChurnDriver {
  Engine eng;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t target = 0;

  void fire(std::uint32_t id) {
    ++fired;
    if (fired >= target) return;
    const Handle timeout =
        eng.schedule_after(SimTime::us(50), [this, id] { fire(id ^ 1u); });
    eng.schedule_after(SimTime::ns((id * 7 + 3) % 41 + 1),
                       [this, timeout, id] {
                         if (eng.cancel(timeout)) ++cancelled;
                         fire(id + 1);
                       });
  }

  /// Seeds \p chains independent chains and runs the engine dry; returns
  /// wall seconds including the scheduling work.
  double run(std::uint64_t fires, int chains) {
    target = fires;
    const auto t0 = Clock::now();
    for (int c = 0; c < chains; ++c) {
      eng.schedule_after(SimTime::ns(c + 1),
                         [this, c] { fire(static_cast<std::uint32_t>(c)); });
    }
    eng.run();
    return seconds_since(t0);
  }
};

Metric bench_event_churn(std::uint64_t fires, int chains, int repeats) {
  // ~4 engine operations per fired event (2 schedules, 1 cancel,
  // 1 dispatch); the constant cancels out of the ratio.
  const double ops = 4.0 * static_cast<double>(fires);
  std::vector<double> ref_s, opt_s;
  std::uint64_t ref_allocs = 0, opt_allocs = 0;
  for (int r = 0; r < repeats; ++r) {
    ChurnDriver<reference::Scheduler, reference::Scheduler::Handle> ref;
    std::uint64_t a0 = g_heap_allocs;
    ref_s.push_back(ref.run(fires, chains));
    ref_allocs = g_heap_allocs - a0;
    SCCPIPE_CHECK(ref.fired >= fires);
    ChurnDriver<Simulator, EventHandle> opt;
    a0 = g_heap_allocs;
    opt_s.push_back(opt.run(fires, chains));
    opt_allocs = g_heap_allocs - a0;
    SCCPIPE_CHECK(opt.fired >= fires);
    SCCPIPE_CHECK(opt.cancelled == ref.cancelled);
  }
  Metric m{"event_churn", "ops/s", ops / median(ref_s), ops / median(opt_s)};
  m.ref_allocs_per_event = static_cast<double>(ref_allocs) / fires;
  m.opt_allocs_per_event = static_cast<double>(opt_allocs) / fires;
  return m;
}

// ------------------------------------------------------------- queue ops
//
// Hold-pattern churn at a controlled pending depth (bench/queue_bench.hpp):
// the pending population holds at N throughout the measured window, so each
// tier probes the heaps at a fixed sift depth instead of the mixed depths
// the event-churn row sees. 1k pending is cache-resident (pure layout
// ratio); 32k spills the engines' working sets differently and is the tier
// bench/micro_queue gates CI against. micro_queue has the full tier sweep
// including a DRAM-resident 1M run.

Metric bench_queue_ops(const char* name, std::size_t pending,
                       std::uint64_t dispatches, int repeats) {
  // ~2.125 queue ops per dispatched event (1 dispatch, 1 replacement
  // schedule, a cancel + re-arm every 8th); the constant cancels out of
  // the ratio.
  const double ops = 2.125 * static_cast<double>(dispatches);
  std::vector<double> ref_s, opt_s;
  for (int r = 0; r < repeats; ++r) {
    bench::QueueHoldDriver<reference::Scheduler, reference::Scheduler::Handle>
        ref(0x9e3779b9u + pending);
    ref_s.push_back(ref.run(pending, dispatches, [] { return Clock::now(); },
                            seconds_since));
    bench::QueueHoldDriver<Simulator, EventHandle> opt(0x9e3779b9u + pending);
    opt_s.push_back(opt.run(pending, dispatches, [] { return Clock::now(); },
                            seconds_since));
    // Shared (time, seq) dispatch order means the RNG streams — and
    // every derived count — must agree exactly between the engines.
    SCCPIPE_CHECK(opt.dispatched == ref.dispatched);
    SCCPIPE_CHECK(opt.cancels == ref.cancels);
  }
  return Metric{name, "ops/s", ops / median(ref_s), ops / median(opt_s)};
}

// ------------------------------------------------------------ pixel kernels

Image random_image(Rng& rng, int side) {
  Image img(side, side);
  std::uint8_t* d = img.data();
  for (std::size_t i = 0; i < img.byte_size(); ++i) {
    d[i] = static_cast<std::uint8_t>(rng.below(256));
  }
  return img;
}

template <class FnOpt, class FnRef>
Metric bench_filter(const char* name, int side, int repeats, int passes,
                    FnOpt&& optimized, FnRef&& ref) {
  Rng rng{0xbe9c4001};
  const Image base = random_image(rng, side);
  const double mpix = static_cast<double>(side) * side * passes / 1e6;
  std::vector<double> ref_s, opt_s;
  for (int r = 0; r < repeats; ++r) {
    Image img = base;
    auto t0 = Clock::now();
    for (int p = 0; p < passes; ++p) ref(img);
    ref_s.push_back(seconds_since(t0));
    img = base;
    t0 = Clock::now();
    for (int p = 0; p < passes; ++p) optimized(img);
    opt_s.push_back(seconds_since(t0));
  }
  return Metric{name, "Mpix/s", mpix / median(ref_s), mpix / median(opt_s)};
}

/// The blur row. The reference runs on fixed buffers: one 64-byte-aligned
/// block, allocated once, holds its source copy and the image it blurs, so
/// every pass and every run reads and writes the same addresses. With a
/// fresh Image copy per call, the reference's speed (and the row's ratio)
/// moved about 2x with where malloc placed the copy.
Metric bench_blur(int side, int repeats, int passes) {
  Rng rng{0xbe9c4001};
  const Image base = random_image(rng, side);
  const std::size_t bytes = base.byte_size();
  constexpr std::align_val_t kAlign{64};
  struct AlignedDelete {
    void operator()(std::uint8_t* p) const { ::operator delete(p, kAlign); }
  };
  const std::unique_ptr<std::uint8_t, AlignedDelete> block(
      static_cast<std::uint8_t*>(::operator new(2 * bytes, kAlign)));
  std::uint8_t* const src = block.get();
  std::uint8_t* const dst = block.get() + bytes;  // 64-byte aligned: 4 | w
  const double mpix = static_cast<double>(side) * side * passes / 1e6;
  std::vector<double> ref_s, opt_s;
  for (int r = 0; r < repeats; ++r) {
    std::memcpy(dst, base.data(), bytes);
    auto t0 = Clock::now();
    for (int p = 0; p < passes; ++p) {
      std::memcpy(src, dst, bytes);
      reference::apply_blur(src, dst, side, side);
    }
    ref_s.push_back(seconds_since(t0));
    Image img = base;
    t0 = Clock::now();
    for (int p = 0; p < passes; ++p) apply_blur(img);
    opt_s.push_back(seconds_since(t0));
    SCCPIPE_CHECK_MSG(std::memcmp(dst, img.data(), bytes) == 0,
                      "blur kernels disagree");
  }
  return Metric{"blur", "Mpix/s", mpix / median(ref_s), mpix / median(opt_s)};
}

Metric bench_raster(int side, int triangles, int repeats) {
  Rng rng{0x7a57e002};
  std::vector<Vec4> verts;
  std::vector<Color> cols;
  for (int i = 0; i < triangles * 3; ++i) {
    const float w = static_cast<float>(rng.uniform(0.2, 4.0));
    verts.push_back(Vec4{static_cast<float>(rng.uniform(-1.2, 1.2)) * w,
                         static_cast<float>(rng.uniform(-1.2, 1.2)) * w,
                         static_cast<float>(rng.uniform(-1.0, 1.0)) * w, w});
    if (i % 3 == 0) {
      cols.push_back(Color{static_cast<std::uint8_t>(rng.below(256)),
                           static_cast<std::uint8_t>(rng.below(256)),
                           static_cast<std::uint8_t>(rng.below(256)), 255});
    }
  }
  std::vector<double> ref_s, opt_s;
  std::uint64_t tested = 0;
  for (int r = 0; r < repeats; ++r) {
    Framebuffer fb(side, side);
    fb.clear();
    RasterStats st;
    const Viewport vp = Viewport::full(fb);
    auto t0 = Clock::now();
    for (int t = 0; t < triangles; ++t) {
      reference::draw_triangle_clip(fb, vp, verts[t * 3], verts[t * 3 + 1],
                                    verts[t * 3 + 2], cols[t], &st);
    }
    ref_s.push_back(seconds_since(t0));
    tested = st.pixels_tested;

    fb.clear();
    st = RasterStats{};
    t0 = Clock::now();
    for (int t = 0; t < triangles; ++t) {
      draw_triangle_clip(fb, vp, verts[t * 3], verts[t * 3 + 1],
                         verts[t * 3 + 2], cols[t], &st);
    }
    opt_s.push_back(seconds_since(t0));
    SCCPIPE_CHECK(st.pixels_tested == tested);
  }
  const double mpix = static_cast<double>(tested) / 1e6;
  return Metric{"raster", "Mpix tested/s", mpix / median(ref_s),
                mpix / median(opt_s)};
}

// ------------------------------------------------------------------ crc32
//
// One 400x100 RGBA strip (160 KB), the size of a sort-first strip at 400².
// Each pass seeds the next, so neither loop can be hoisted, and both sides
// must end on the same value.

Metric bench_crc32(std::size_t bytes, int repeats, int passes) {
  Rng rng{0xc4c32003};
  std::vector<unsigned char> buf(bytes);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.below(256));
  const double mb = static_cast<double>(bytes) * passes / 1e6;
  std::vector<double> ref_s, opt_s;
  for (int r = 0; r < repeats; ++r) {
    std::uint32_t ref_crc = 0;
    auto t0 = Clock::now();
    for (int p = 0; p < passes; ++p) {
      ref_crc = reference::crc32(buf.data(), bytes, ref_crc);
    }
    ref_s.push_back(seconds_since(t0));
    std::uint32_t opt_crc = 0;
    t0 = Clock::now();
    for (int p = 0; p < passes; ++p) {
      opt_crc = crc32(buf.data(), bytes, opt_crc);
    }
    opt_s.push_back(seconds_since(t0));
    SCCPIPE_CHECK(opt_crc == ref_crc);
  }
  return Metric{"crc32", "MB/s", mb / median(ref_s), mb / median(opt_s)};
}

// ------------------------------------------------------------ trace build
//
// The serial workload-trace build of a k = 7 CLI run, strip counts {1, 7}
// over the 400-frame walkthrough at 400x400: WorkloadTrace::build (one
// octree pass per frame for all 8 strips) against the same frames estimated
// strip by strip through reference::estimate_strip (a cull and a full
// transform per strip). Both sides must yield the same loads bit for bit.

Metric bench_trace_build(int frames, int side, int repeats) {
  const SceneBundle scene(CityParams{}, CameraConfig{}, side, frames);
  const StripCounts counts{1, 7};
  const double loads = static_cast<double>(frames) * 8.0;
  std::vector<double> ref_s, opt_s;
  for (int r = 0; r < repeats; ++r) {
    std::vector<RenderLoad> ref;
    auto t0 = Clock::now();
    for (int f = 0; f < frames; ++f) {
      const Mat4 view = scene.path().view(f);
      for (const int k : counts.values()) {
        for (const StripRange& strip : divide_rows(side, k)) {
          const RenderStats st =
              reference::estimate_strip(scene.renderer(), view, strip);
          ref.push_back(RenderLoad{static_cast<double>(st.cull.nodes_visited),
                                   static_cast<double>(st.cull.tris_accepted),
                                   st.projected_pixels});
        }
      }
    }
    ref_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    const WorkloadTrace trace = WorkloadTrace::build(scene, counts);
    opt_s.push_back(seconds_since(t0));
    std::size_t i = 0;
    for (int f = 0; f < frames; ++f) {
      for (const int k : counts.values()) {
        for (int s = 0; s < k; ++s, ++i) {
          const RenderLoad& got = trace.load(f, k, s);
          SCCPIPE_CHECK(got.nodes_visited == ref[i].nodes_visited &&
                        got.tris_accepted == ref[i].tris_accepted &&
                        std::bit_cast<std::uint64_t>(got.projected_pixels) ==
                            std::bit_cast<std::uint64_t>(
                                ref[i].projected_pixels));
        }
      }
    }
  }
  return Metric{"trace_build", "strip loads/s", loads / median(ref_s),
                loads / median(opt_s)};
}

// ------------------------------------------------------- end-to-end context

struct E2e {
  std::string name;
  int frames = 0;
  int size = 0;
  int pipelines = 0;
  bool functional = false;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t events = 0;
};

/// Two reduced walkthroughs on one shared scene: the plain run is what the
/// figure/table harnesses execute (wall time ~= event engine throughput),
/// the functional run also composes every delivered frame's pixels after
/// its event loop, so the render and filter kernels show up end to end.
std::vector<E2e> bench_e2e(int frames, int size, int pipelines, int repeats) {
  const SceneBundle scene(CityParams{}, CameraConfig{}, size, frames);
  const WorkloadTrace trace = WorkloadTrace::build(scene, pipelines);
  std::vector<E2e> rows;
  for (const bool functional : {false, true}) {
    RunConfig cfg;
    cfg.scenario = Scenario::HostRenderer;
    cfg.pipelines = pipelines;
    cfg.functional = functional;
    std::vector<double> secs;
    std::uint64_t events = 0;
    for (int r = 0; r < repeats; ++r) {
      const auto t0 = Clock::now();
      const RunResult res = run_walkthrough(scene, trace, cfg);
      secs.push_back(seconds_since(t0));
      events = res.events_dispatched;
      SCCPIPE_CHECK(!res.fault.failed);
    }
    const double med = median(secs);
    rows.push_back(E2e{functional ? "e2e_functional" : "e2e", frames, size,
                       pipelines, functional, med * 1e3,
                       static_cast<double>(events) / med, events});
  }
  return rows;
}

// ---------------------------------------------------------------- JSON I/O

void write_json(const std::string& path, const std::vector<Metric>& metrics,
                const std::vector<E2e>& e2e, bool smoke) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"sccpipe-bench-perf-baseline-v2\",\n");
  std::fprintf(f, "  \"tool\": \"perf_baseline\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"nproc\": %u,\n", std::thread::hardware_concurrency());
  // Composition threads of the functional e2e row (SCCPIPE_JOBS); that
  // row measures one thread's work only when this is 1.
  std::fprintf(f, "  \"jobs\": %d,\n", default_jobs());
  std::fprintf(f, "  \"note\": \"speedup = optimized/reference on one machine; the CI gate compares ratios only\",\n");
  std::fprintf(f, "  \"metrics\": [\n");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"unit\": \"%s\", "
                 "\"reference\": %.4g, \"optimized\": %.4g, "
                 "\"speedup\": %.3f",
                 m.name.c_str(), m.unit.c_str(), m.reference, m.optimized,
                 m.speedup());
    if (m.ref_allocs_per_event >= 0.0) {
      std::fprintf(f,
                   ", \"ref_allocs_per_event\": %.2f, "
                   "\"opt_allocs_per_event\": %.5f",
                   m.ref_allocs_per_event, m.opt_allocs_per_event);
    }
    std::fprintf(f, "}%s\n", i + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"e2e\": [\n");
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    const E2e& e = e2e[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"frames\": %d, \"size\": %d, "
                 "\"pipelines\": %d, \"functional\": %s, \"wall_ms\": %.1f, "
                 "\"events_dispatched\": %llu, \"events_per_sec\": %.4g}%s\n",
                 e.name.c_str(), e.frames, e.size, e.pipelines,
                 e.functional ? "true" : "false", e.wall_ms,
                 static_cast<unsigned long long>(e.events), e.events_per_sec,
                 i + 1 < e2e.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::fprintf(stderr, "[bench] perf record written: %s\n", path.c_str());
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

/// The CI regression gate: every committed ratio must still be at least
/// half-reached by the current build. Returns the number of failures.
int check_against(const std::string& path, const std::vector<Metric>& now) {
  const std::string json = read_file(path);
  if (json.empty()) {
    std::fprintf(stderr, "[bench] cannot read committed baseline %s\n",
                 path.c_str());
    return 1;
  }
  int failures = 0;
  for (const Metric& m : now) {
    const std::optional<double> want =
        bench::committed_metric_speedup(json, m.name);
    if (!want) {
      std::fprintf(stderr, "[bench] %-12s no committed ratio, skipping\n",
                   m.name.c_str());
      continue;
    }
    const double floor = *want / 2.0;
    const bool ok = m.speedup() >= floor;
    std::printf("[check] %-12s committed %.2fx, current %.2fx, floor %.2fx  %s\n",
                m.name.c_str(), *want, m.speedup(), floor,
                ok ? "ok" : "REGRESSION");
    if (!ok) ++failures;
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add_flag("out", "output JSON path", "BENCH_perf_baseline.json");
  args.add_flag("smoke", "reduced workloads/repeats for CI", "false");
  args.add_flag("check", "committed baseline to gate against", "");
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", args.error().c_str(),
                 args.usage("perf_baseline").c_str());
    return 2;
  }
  // Writing the record the gate reads would make the gate pass vacuously.
  const std::string out = args.get("out");
  const std::string check = args.get("check");
  std::error_code ec;
  if (!check.empty() && out != "none" &&
      std::filesystem::weakly_canonical(out, ec) ==
          std::filesystem::weakly_canonical(check, ec)) {
    std::fprintf(stderr, "perf_baseline: --out %s names the same file as "
                 "--check %s; pass another --out (or --out none)\n",
                 out.c_str(), check.c_str());
    return 2;
  }
  const bool smoke = args.get_bool("smoke");

  // Workload sizes: full mode is for the committed record (stable medians),
  // smoke mode for CI wall-clock budget. Chains = simultaneously pending
  // chains, matching a multi-pipeline run's live event population.
  const std::uint64_t churn_fires = smoke ? 60'000 : 400'000;
  const int churn_chains = 256;
  const int repeats = smoke ? 3 : 7;
  const int img_side = 400;  // the paper's frame size
  const int filter_passes = smoke ? 2 : 6;

  std::printf("perf_baseline: optimised hot paths vs reference transcriptions"
              " (%s mode)\n\n", smoke ? "smoke" : "full");

  const std::uint64_t queue_dispatches = smoke ? 100'000 : 1'000'000;

  std::vector<Metric> metrics;
  metrics.push_back(bench_event_churn(churn_fires, churn_chains, repeats));
  metrics.push_back(
      bench_queue_ops("queue_ops_1k", 1'000, queue_dispatches, repeats));
  metrics.push_back(
      bench_queue_ops("queue_ops_32k", 32'000, queue_dispatches, repeats));
  metrics.push_back(bench_blur(img_side, repeats, filter_passes));
  metrics.push_back(bench_filter(
      "sepia", img_side, repeats, filter_passes,
      [](Image& img) { apply_sepia(img); },
      [](Image& img) { reference::apply_sepia(img); }));
  metrics.push_back(bench_raster(img_side, smoke ? 120 : 400, repeats));
  metrics.push_back(bench_crc32(160'000, repeats, smoke ? 300 : 1000));
  metrics.push_back(bench_trace_build(400, img_side, repeats));

  for (const Metric& m : metrics) {
    std::printf("%-12s reference %10.4g %-14s optimized %10.4g %-14s %6.2fx\n",
                m.name.c_str(), m.reference, m.unit.c_str(), m.optimized,
                m.unit.c_str(), m.speedup());
    if (m.ref_allocs_per_event >= 0.0) {
      std::printf("%-12s reference %10.2f allocs/event   optimized %10.5f "
                  "allocs/event\n",
                  "", m.ref_allocs_per_event, m.opt_allocs_per_event);
    }
  }

  const std::vector<E2e> e2e =
      bench_e2e(smoke ? 10 : 60, 240, 4, smoke ? 2 : 5);
  for (const E2e& e : e2e) {
    std::printf("\n%s walkthrough (%d frames, %dx%d, k=%d): %.1f ms wall, "
                "%llu events, %.3g events/s\n",
                e.name.c_str(), e.frames, e.size, e.size, e.pipelines,
                e.wall_ms, static_cast<unsigned long long>(e.events),
                e.events_per_sec);
  }

  if (out != "none") write_json(out, metrics, e2e, smoke);

  if (!check.empty()) {
    const int failures = check_against(check, metrics);
    if (failures > 0) {
      std::fprintf(stderr, "[bench] %d metric(s) regressed >2x vs %s\n",
                   failures, check.c_str());
      return 1;
    }
    std::printf("[check] all ratios within 2x of the committed baseline\n");
  }
  return 0;
}
