// cli_cold: what a user of the command line waits for. Each op is one real
// `sccpipe --csv` process at 400 frames and 400x400, run one at a time in a
// working directory that starts empty, with every SCCPIPE_* variable
// removed from its environment. Nearly all of its time is the serial
// workload-trace build; dispatch is a few percent and no pixels are drawn.
//
// Ops come in decks: a deck is a seeded permutation of k = 1..7, each card
// with a seeded scenario, arrangement and platform. A run plays whole
// decks, so every run holds each k equally often and the op median does
// not depend on which k the seed happened to draw.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "digest.hpp"
#include "layers.hpp"
#include "sccpipe/support/rng.hpp"

extern char** environ;

namespace perfbench {

using namespace sccpipe;

namespace {

constexpr int kFrames = 400;
constexpr int kSide = 400;

struct Card {
  RunConfig cfg;
  std::vector<std::string> args;
};

std::vector<Card> deck(std::uint64_t seed, int round) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(round));
  std::vector<int> ks = {1, 2, 3, 4, 5, 6, 7};
  for (std::size_t i = ks.size() - 1; i > 0; --i) {
    std::swap(ks[i], ks[rng.below(i + 1)]);
  }
  static constexpr const char* kScenario[] = {"1-rend", "n-rend", "mcpc"};
  static constexpr Scenario kScenarioKind[] = {Scenario::SingleRenderer,
                                               Scenario::RendererPerPipeline,
                                               Scenario::HostRenderer};
  static constexpr const char* kArrangement[] = {"unordered", "ordered",
                                                 "flipped"};
  static constexpr Arrangement kArrangementKind[] = {
      Arrangement::Unordered, Arrangement::Ordered, Arrangement::Flipped};
  std::vector<Card> cards;
  for (const int k : ks) {
    const auto s = rng.below(3);
    const auto a = rng.below(3);
    const bool cluster = rng.below(2) == 1;
    Card c;
    c.cfg.scenario = kScenarioKind[s];
    c.cfg.arrangement = kArrangementKind[a];
    c.cfg.platform = cluster ? PlatformKind::Cluster : PlatformKind::Scc;
    c.cfg.pipelines = k;
    c.args = {"--csv",         "--frames",      std::to_string(kFrames),
              "--size",        std::to_string(kSide),
              "--scenario",    kScenario[s],    "--arrangement",
              kArrangement[a], "--platform",    cluster ? "cluster" : "scc",
              "--pipelines",   std::to_string(k)};
    cards.push_back(std::move(c));
  }
  return cards;
}

std::string join(const std::vector<std::string>& args) {
  std::string s;
  for (const std::string& a : args) s += (s.empty() ? "" : " ") + a;
  return s;
}

struct Child {
  int exit_code = -1;
  double wall_ms = 0.0;
  double peak_rss_mb = 0.0;
  std::string out;
};

/// Fork and exec the CLI in \p dir with SCCPIPE_* stripped from the
/// environment, collect stdout, wait for it. stderr goes to /dev/null.
Child spawn(const std::string& exe, const std::vector<std::string>& args,
            const std::string& dir) {
  std::vector<std::string> argv_s = {exe};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<char*> envp;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SCCPIPE_", 8) != 0) envp.push_back(*e);
  }
  envp.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  Child c;
  const auto t0 = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    const int devnull = open("/dev/null", O_WRONLY);
    if (chdir(dir.c_str()) != 0 || devnull < 0 || dup2(fds[1], 1) < 0 ||
        dup2(devnull, 2) < 0) {
      _exit(127);
    }
    close(fds[0]);
    close(fds[1]);
    execve(argv[0], argv.data(), envp.data());
    _exit(127);
  }
  close(fds[1]);
  char buf[4096];
  ssize_t n = 0;
  while ((n = read(fds[0], buf, sizeof buf)) > 0) {
    c.out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  c.wall_ms = seconds_since(t0) * 1e3;
  c.exit_code =
      WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  c.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return c;
}

/// The walkthrough_s field of the CLI's CSV row, or "" if absent.
std::string csv_walkthrough(const std::string& out) {
  const std::size_t nl = out.find('\n');
  if (nl == std::string::npos) return {};
  const auto fields = [](const std::string& line) {
    std::vector<std::string> f;
    std::size_t pos = 0;
    for (;;) {
      const std::size_t comma = line.find(',', pos);
      f.push_back(line.substr(pos, comma - pos));
      if (comma == std::string::npos) return f;
      pos = comma + 1;
    }
  };
  const std::vector<std::string> head = fields(out.substr(0, nl));
  std::string row = out.substr(nl + 1);
  if (!row.empty() && row.back() == '\n') row.pop_back();
  const std::vector<std::string> vals = fields(row);
  for (std::size_t i = 0; i < head.size() && i < vals.size(); ++i) {
    if (head[i] == "walkthrough_s") return vals[i];
  }
  return {};
}

std::string fixed3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

struct Played {
  std::size_t card = 0;  ///< index into the cards vector
  Child child;
  bool traced = false;
};

}  // namespace

Report run_cli_cold(const Options& opt, SpanRecorder& spans) {
  Report rep;
  const std::string exe = std::filesystem::absolute(opt.cli).string();
  const std::string dir =
      std::filesystem::absolute(opt.work_dir + "/cli_cold").string();
  if (opt.plan_only) {
    for (const Card& c : deck(opt.seed, 0)) {
      rep.note("op sccpipe " + join(c.args));
    }
    return rep;
  }
  if (access(exe.c_str(), X_OK) != 0) {
    throw std::runtime_error("sccpipe binary not found at " + exe);
  }

  // Set-up: one default invocation in a directory that starts empty, so a
  // disk cache the CLI may gain is paid here and not in the timed ops.
  const double setup_s = median_setup_seconds([&] {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const Child warm = spawn(exe, {"--csv", "--frames", std::to_string(kFrames),
                                   "--size", std::to_string(kSide)},
                             dir);
    if (warm.exit_code != 0) {
      throw std::runtime_error("warm-up sccpipe exited " +
                               std::to_string(warm.exit_code));
    }
  });

  std::vector<Card> cards;
  std::vector<Played> played;
  int round = 0;
  const auto play_deck = [&] {
    const bool traced = spans.enabled();
    for (Card& c : deck(opt.seed, round)) {
      cards.push_back(std::move(c));
      Played p;
      p.card = cards.size() - 1;
      p.traced = traced;
      {
        auto sp = spans.span("cli.process");
        p.child = spawn(exe, cards.back().args, dir);
      }
      played.push_back(std::move(p));
    }
    ++round;
  };
  if (spans.enabled()) {
    spans.set_enabled(false);
    run_rounds(opt.seconds / 2, play_deck);
    spans.set_enabled(true);
    run_rounds(opt.seconds / 2, play_deck);
  } else {
    run_rounds(opt.seconds, play_deck);
  }

  // Checks, outside the timed loop: every CSV row must carry the
  // walkthrough time the library computes in-process for the same config.
  const bool traced = spans.enabled();
  spans.set_enabled(false);
  const PaperWorld world = build_paper_world(opt, 7, spans);
  spans.set_enabled(traced);
  OpLog ops;
  double peak_rss = 0.0;
  std::vector<RunResult> first_deck;
  std::vector<double> untraced_ms, traced_ms;
  for (std::size_t i = 0; i < played.size(); ++i) {
    const Played& p = played[i];
    const Card& card = cards[p.card];
    RunResult r = run_walkthrough(*world.scene, *world.trace, card.cfg);
    ++rep.attempted;
    bool ok = true;
    const std::string label = "sccpipe " + join(card.args);
    const std::string why = check_run(card.cfg, r, kFrames);
    if (!why.empty()) {
      rep.fail_check(label + ": in-process " + why);
      ok = false;
    }
    if (p.child.exit_code != 0) {
      rep.fail_check(label + ": exit code " +
                     std::to_string(p.child.exit_code));
      ok = false;
    } else if (csv_walkthrough(p.child.out) != fixed3(r.walkthrough.to_sec())) {
      rep.fail_check(label + ": CSV walkthrough_s '" +
                     csv_walkthrough(p.child.out) + "' != in-process " +
                     fixed3(r.walkthrough.to_sec()));
      ok = false;
    }
    if (opt.inject_failure && i == 0) {
      rep.fail_check("injected check failure");
      ok = false;
    }
    if (!ok) ++rep.failed;
    ops.add(p.child.wall_ms, 1.0, static_cast<double>(r.events_dispatched),
            static_cast<double>(r.frame_done_ms.size()));
    (p.traced ? traced_ms : untraced_ms).push_back(p.child.wall_ms);
    peak_rss = std::max(peak_rss, p.child.peak_rss_mb);
    if (i < 7) first_deck.push_back(std::move(r));
  }
  set_e2e_metrics(ops, setup_s, peak_rss, rep);
  Digest d;
  d.runs(first_deck);
  rep.digest = d.hex();
  check_table1(opt, world, rep);

  if (traced) {
    // Replay each traced op in-process through the library calls the CLI
    // makes (scene, serial trace for its k, run) to split its wall time.
    std::vector<double> loads, overhead_ms;
    std::vector<RunResult> replays;
    std::unique_ptr<SceneBundle> scene;
    for (const Played& p : played) {
      if (!p.traced) continue;
      const RunConfig& cfg = cards[p.card].cfg;
      const auto t0 = Clock::now();
      {
        auto sp = spans.span("scene.build");
        scene = std::make_unique<SceneBundle>(CityParams{}, CameraConfig{},
                                              kSide, kFrames);
      }
      std::unique_ptr<WorkloadTrace> trace;
      {
        auto sp = spans.span("workload.trace_build");
        trace = std::make_unique<WorkloadTrace>(
            WorkloadTrace::build(*scene, cfg.pipelines));
      }
      {
        auto sp = spans.span("walkthrough.run");
        replays.push_back(run_walkthrough(*scene, *trace, cfg));
      }
      overhead_ms.push_back(p.child.wall_ms - seconds_since(t0) * 1e3);
      loads.push_back(strip_loads(kFrames, cfg.pipelines));
    }
    rep.set("cli.process_ms", median(traced_ms), "ms");
    rep.set("cli.overhead_ms", median(overhead_ms), "ms");
    set_scene_metrics(spans, *scene, rep);
    set_trace_metrics(spans, loads, rep);
    set_walkthrough_metrics(spans, replays, rep);
    set_model_metrics(first_deck, rep);
    set_overhead_metric(untraced_ms, traced_ms, rep);
  }
  return rep;
}

}  // namespace perfbench
