#pragma once

/// \file table1.hpp
/// The paper's Table I ("Overview of the results"): twelve configurations
/// x k = 1..7 pipelines with the published walkthrough seconds, and a
/// per-cell error pin. A pin is the largest allowed |sim - paper| / paper
/// in percent for a 400-frame run: the model's error when the pins were
/// set plus one point of slack for tie-order re-blesses, rounded up. A
/// model change that drifts a cell past its pin fails
/// paper_validation_test.

#include <cstddef>
#include <iterator>
#include <vector>

#include "sccpipe/core/walkthrough.hpp"

namespace sccpipe {

struct Table1Row {
  const char* label;
  Scenario scenario;
  Arrangement arrangement;
  PlatformKind platform;
  double paper_s[7];
  double pin_pct[7];
};

inline constexpr Table1Row kTable1[] = {
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

inline constexpr std::size_t kTable1Cells = std::size(kTable1) * 7;

/// The 84 Table I configs in row-major order (row, then k = 1..7).
inline std::vector<RunConfig> table1_configs() {
  std::vector<RunConfig> cfgs;
  for (const Table1Row& row : kTable1) {
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

}  // namespace sccpipe
