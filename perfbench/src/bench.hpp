#pragma once

/// \file bench.hpp
/// Shared pieces of the benchmark runner: options, the per-run report the
/// runner prints, wall-clock helpers and small statistics. Every workload
/// fills one Report; main.cpp turns it into the final JSON line.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;        ///< path of the sccpipe binary (cli_cold)
  std::string work_dir;   ///< scratch directory inside the checkout
  bool plan_only = false; ///< print the op list, time nothing
  /// Make one output check fail on purpose (the benchmark's own test of
  /// its failure path).
  bool inject_failure = false;
  int jobs = 1;           ///< min(4, nproc): run_grid / trace_runner workers
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::int64_t attempted = 0;  ///< ops attempted in the timed loop
  std::int64_t failed = 0;     ///< ops whose output check failed
  int check_failures = 0;      ///< every failed output check, op or not
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines, printed first
  std::string digest;              ///< simulated-statistics digest (hex)

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Record a failed output check. The caller counts the op it belongs to
  /// as failed; a check outside any op still fails the run (main.cpp).
  void fail_check(const std::string& what) {
    ++check_failures;
    note("CHECK FAILED: " + what);
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median by nth_element (copies; the inputs are small).
double median(std::vector<double> v);

/// Shortest round-trip decimal form of a double (for JSON and notes).
std::string num(double v);

/// Peak resident set of this process so far, in MB.
double self_peak_rss_mb();

/// Run `setup` several times (three, or up to fifteen while the repeats
/// take under a second in total) and return the median wall seconds. The
/// last call's products stay in place.
double median_setup_seconds(const std::function<void()>& setup);

/// Timed loop shared by the workloads: calls `round()` until `seconds` of
/// wall time have passed (at least once). A round runs one or more ops and
/// records them itself. Whole rounds keep the op mix of every run alike
/// (a cli_cold deck of 12-14 s makes a 20 s run play two decks).
void run_rounds(double seconds, const std::function<void()>& round);

// One entry point per workload (workloads.cpp, cli_cold.cpp, film.cpp).
Report run_table1_grid(const Options& opt, SpanRecorder& spans);
Report run_chaos_grid(const Options& opt, SpanRecorder& spans);
Report run_cli_cold(const Options& opt, SpanRecorder& spans);
Report run_functional_film(const Options& opt, SpanRecorder& spans);

}  // namespace perfbench
