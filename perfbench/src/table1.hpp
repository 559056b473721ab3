#pragma once

/// \file table1.hpp
/// The paper's Table I: twelve configurations x k = 1..7 pipelines, the
/// published walkthrough seconds, and a per-cell error bound pinned at the
/// model's error when the benchmark was defined (plus one percentage point
/// of slack for tie-order re-blesses). A model change that drifts any cell
/// past its pin fails the benchmark's output check.

#include <vector>

#include "bench.hpp"
#include "sccpipe/core/walkthrough.hpp"

namespace perfbench {

/// The 84 Table I configs in row-major order (row, then k = 1..7).
std::vector<sccpipe::RunConfig> table1_configs();

struct Table1Accuracy {
  double mean_err_pct = 0.0;
  double max_err_pct = 0.0;
  /// The largest row mean, as bench/table1_overview's last line prints it.
  double worst_row_err_pct = 0.0;
  const char* worst_row = "";
  int cells_over_pin = 0;
};

/// Compare 84 results (in table1_configs() order, 400-frame runs) with the
/// paper; every cell over its pin is reported through \p report.
Table1Accuracy table1_accuracy(const std::vector<sccpipe::RunResult>& results,
                               Report& report);

}  // namespace perfbench
