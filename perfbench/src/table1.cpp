#include "table1.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

using namespace sccpipe;

namespace {

struct Row {
  const char* label;
  Scenario scenario;
  Arrangement arrangement;
  PlatformKind platform;
  double paper_s[7];
  /// Largest allowed |sim - paper| / paper, in percent: the 400-frame
  /// error when the benchmark was defined plus one point, rounded up.
  double pin_pct[7];
};

// Published values as in bench/table1_overview.cpp.
constexpr Row kRows[] = {
    {"1 rend., unordered", Scenario::SingleRenderer, Arrangement::Unordered,
     PlatformKind::Scc, {207, 107, 102, 102, 102, 101, 101},
     {9.5, 6.2, 6.7, 4.7, 2.2, 2.8, 6.6}},
    {"1 rend., ordered", Scenario::SingleRenderer, Arrangement::Ordered,
     PlatformKind::Scc, {208, 108, 104, 103, 102, 101, 101},
     {8.9, 5.2, 5.8, 3.1, 4.9, 4.9, 6.0}},
    {"1 rend., flipped", Scenario::SingleRenderer, Arrangement::Flipped,
     PlatformKind::Scc, {208, 107, 102, 102, 102, 101, 101},
     {8.9, 6.3, 7.8, 4.4, 4.9, 4.9, 6.0}},
    {"n rend., unordered", Scenario::RendererPerPipeline,
     Arrangement::Unordered, PlatformKind::Scc, {235, 117, 78, 69, 65, 62, 58},
     {5.5, 5.0, 4.5, 6.8, 1.7, 4.4, 4.8}},
    {"n rend., ordered", Scenario::RendererPerPipeline, Arrangement::Ordered,
     PlatformKind::Scc, {236, 118, 79, 68, 65, 61, 58},
     {5.9, 5.7, 5.7, 4.2, 2.9, 5.9, 2.6}},
    {"n rend., flipped", Scenario::RendererPerPipeline, Arrangement::Flipped,
     PlatformKind::Scc, {236, 117, 79, 68, 65, 61, 59},
     {5.9, 4.9, 4.1, 1.9, 3.4, 4.7, 1.5}},
    {"MCPC, unordered", Scenario::HostRenderer, Arrangement::Unordered,
     PlatformKind::Scc, {231, 113, 72, 54, 54, 55, 54},
     {3.9, 1.5, 5.7, 5.5, 1.1, 2.9, 1.1}},
    {"MCPC, ordered", Scenario::HostRenderer, Arrangement::Ordered,
     PlatformKind::Scc, {231, 112, 70, 54, 53, 55, 54},
     {4.0, 1.4, 8.6, 5.3, 3.4, 2.6, 1.5}},
    {"MCPC, flipped", Scenario::HostRenderer, Arrangement::Flipped,
     PlatformKind::Scc, {232, 113, 72, 54, 51, 54, 54},
     {4.4, 1.5, 5.6, 5.4, 7.4, 1.3, 1.5}},
    {"HPC, external rend.", Scenario::HostRenderer, Arrangement::Ordered,
     PlatformKind::Cluster, {32, 24, 20, 20, 19, 20, 18},
     {25.4, 20.0, 3.8, 3.9, 3.3, 3.9, 9.0}},
    {"HPC, single rend.", Scenario::SingleRenderer, Arrangement::Ordered,
     PlatformKind::Cluster, {26, 14, 10, 7, 6, 5, 4},
     {8.1, 14.6, 20.0, 14.4, 19.9, 17.0, 7.0}},
    {"HPC, parallel rend.", Scenario::RendererPerPipeline,
     Arrangement::Ordered, PlatformKind::Cluster, {25, 14, 10, 8, 6, 5, 4},
     {4.3, 14.5, 20.0, 25.2, 20.0, 19.7, 13.2}},
};

}  // namespace

std::vector<RunConfig> table1_configs() {
  std::vector<RunConfig> cfgs;
  for (const Row& row : kRows) {
    for (int k = 1; k <= 7; ++k) {
      RunConfig cfg;
      cfg.scenario = row.scenario;
      cfg.arrangement = row.arrangement;
      cfg.platform = row.platform;
      cfg.pipelines = k;
      cfgs.push_back(cfg);
    }
  }
  return cfgs;
}

Table1Accuracy table1_accuracy(const std::vector<RunResult>& results,
                               Report& report) {
  Table1Accuracy acc;
  constexpr std::size_t kCells = std::size(kRows) * 7;
  if (results.size() != kCells) {
    report.fail_check("Table I grid returned " +
                      std::to_string(results.size()) + " results, want 84");
    acc.cells_over_pin = static_cast<int>(kCells);
    return acc;
  }
  double sum = 0.0, row_sum = 0.0;
  for (std::size_t i = 0; i < kCells; ++i) {
    const Row& row = kRows[i / 7];
    const double paper = row.paper_s[i % 7];
    const double err =
        100.0 * std::fabs(results[i].walkthrough.to_sec() - paper) / paper;
    sum += err;
    row_sum += err;
    if (i % 7 == 6) {
      if (row_sum / 7 > acc.worst_row_err_pct) {
        acc.worst_row_err_pct = row_sum / 7;
        acc.worst_row = row.label;
      }
      row_sum = 0.0;
    }
    acc.max_err_pct = std::max(acc.max_err_pct, err);
    if (!(err <= row.pin_pct[i % 7])) {
      ++acc.cells_over_pin;
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "Table I cell '%s' k=%zu: %.3f s vs paper %.0f s, error "
                    "%.2f%% > pinned %.2f%%",
                    row.label, i % 7 + 1, results[i].walkthrough.to_sec(),
                    paper, err, row.pin_pct[i % 7]);
      report.fail_check(buf);
    }
  }
  acc.mean_err_pct = sum / static_cast<double>(kCells);
  return acc;
}

}  // namespace perfbench
