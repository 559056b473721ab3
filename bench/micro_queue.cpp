// Queue-isolation microbench: the 4-ary key heap (sim/simulator.hpp)
// against the reference binary-heap scheduler at controlled pending
// depths. The end-to-end event-churn row of bench/perf_baseline mixes
// queue cost with callback storage cost; this tool pins the *queue* —
// schedule/cancel/dispatch on a population held at N pending — so the
// d-ary layout's depth advantage (log4 vs log2 dependent loads per sift)
// is visible per tier: 1k pending fits in L2, 32k spills to L3, 1M is
// DRAM-resident where the shorter miss chain matters most.
//
// Determinism cross-check: both engines consume the same RNG stream and
// must dispatch and cancel identical event counts (they share the
// (time, seq) dispatch order, so the streams cannot diverge).
//
// Flags:
//   --smoke       reduced tiers/repeats for CI (drops the 1M tier)
//   --check PATH  gate the 32k-tier ratio against the committed
//                 queue_ops_32k row of a perf_baseline record: fail when
//                 the current ratio drops below half the committed one
//
// Single-core container caveat (docs/PERF.md §1.3): both engines are
// single-threaded, so core count does not bias the ratio — only absolute
// ops/s depend on the host.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "queue_bench.hpp"
#include "sccpipe/sim/reference_scheduler.hpp"
#include "sccpipe/sim/simulator.hpp"
#include "sccpipe/support/args.hpp"
#include "sccpipe/support/check.hpp"

using namespace sccpipe;

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

struct Tier {
  std::size_t pending = 0;
  std::uint64_t dispatches = 0;
  double ref_ops_per_sec = 0.0;
  double opt_ops_per_sec = 0.0;
  double ratio() const {
    return ref_ops_per_sec > 0.0 ? opt_ops_per_sec / ref_ops_per_sec : 0.0;
  }
};

Tier run_tier(std::size_t pending, std::uint64_t dispatches, int repeats) {
  // ~2.125 queue ops per dispatched event (1 dispatch, 1 replacement
  // schedule, a cancel + re-arm every 8th); the constant cancels out of
  // the ratio, so report plain dispatches/s scaled by it for context.
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
    // The engines share the dispatch order, so the RNG streams — and with
    // them every derived count — must agree exactly.
    SCCPIPE_CHECK(opt.dispatched == ref.dispatched);
    SCCPIPE_CHECK(opt.cancels == ref.cancels);
  }
  return Tier{pending, dispatches, ops / median(ref_s), ops / median(opt_s)};
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

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add_flag("smoke", "reduced tiers/repeats for CI", "false");
  args.add_flag("check", "committed perf_baseline record to gate against", "");
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", args.error().c_str(),
                 args.usage("micro_queue").c_str());
    return 2;
  }
  const bool smoke = args.get_bool("smoke");
  const int repeats = smoke ? 3 : 5;

  std::printf("micro_queue: d-ary key heap vs reference binary heap, "
              "population held at N pending (%s mode)\n\n",
              smoke ? "smoke" : "full");

  std::vector<Tier> tiers;
  tiers.push_back(run_tier(1'000, smoke ? 150'000 : 2'000'000, repeats));
  tiers.push_back(run_tier(32'000, smoke ? 150'000 : 2'000'000, repeats));
  if (!smoke) tiers.push_back(run_tier(1'000'000, 1'000'000, repeats));

  for (const Tier& t : tiers) {
    std::printf("%8zu pending: reference %10.4g ops/s   dary %10.4g ops/s   "
                "%5.2fx\n",
                t.pending, t.ref_ops_per_sec, t.opt_ops_per_sec, t.ratio());
  }

  if (args.has("check") && !args.get("check").empty()) {
    const std::string json = read_file(args.get("check"));
    if (json.empty()) {
      std::fprintf(stderr, "[check] cannot read %s\n",
                   args.get("check").c_str());
      return 1;
    }
    const std::optional<double> want =
        bench::committed_metric_speedup(json, "queue_ops_32k");
    if (!want || *want <= 0.0) {
      std::fprintf(stderr,
                   "[check] no committed queue_ops_32k ratio in %s, "
                   "skipping gate\n",
                   args.get("check").c_str());
      return 0;
    }
    double current = 0.0;
    for (const Tier& t : tiers) {
      if (t.pending == 32'000) current = t.ratio();
    }
    const double floor = *want / 2.0;
    const bool ok = current >= floor;
    std::printf("\n[check] queue_ops_32k committed %.2fx, current %.2fx, "
                "floor %.2fx  %s\n",
                *want, current, floor, ok ? "ok" : "REGRESSION");
    if (!ok) return 1;
  }
  return 0;
}
