// Table I — "Overview of the results." The full 12-row matrix: three SCC
// renderer configurations x three arrangements, plus the three Mogon HPC
// configurations, each for 1..7 pipelines. This is the paper's headline
// result table; the harness prints simulated and published values
// interleaved and a per-row mean relative error. The published values
// live in sccpipe/core/table1.hpp, next to the per-cell pins that
// paper_validation_test enforces.

#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "sccpipe/core/table1.hpp"

using namespace sccpipe;
using namespace sccpipe::bench;

int main() {
  print_banner("Table I — overview of all results (seconds, 1..7 pipelines)",
               "12 configurations; published values interleaved as (paper)");

  const std::vector<double> secs = run_batch_seconds(table1_configs());

  TextTable table({"configuration", "1 pl.", "2 pl.", "3 pl.", "4 pl.",
                   "5 pl.", "6 pl.", "7 pl.", "err"});
  double worst_err = 0.0;
  std::string worst_row;
  std::size_t cell = 0;
  for (const Table1Row& row : kTable1) {
    table.row().add(std::string(row.label) + " (sim)");
    double err_sum = 0.0;
    for (const double paper : row.paper_s) {
      const double s = secs[cell++];
      table.add(s, 1);
      err_sum += std::fabs(s - paper) / paper;
    }
    const double mean_err = 100.0 * err_sum / 7.0;
    table.add(format_fixed(mean_err, 0) + "%");
    if (mean_err > worst_err) {
      worst_err = mean_err;
      worst_row = row.label;
    }

    table.row().add(std::string(row.label) + " (paper)");
    for (const double v : row.paper_s) table.add(v, 0);
    table.add("");
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("worst mean relative error: %.0f%% (%s)\n", worst_err,
              worst_row.c_str());
  std::printf(
      "key orderings to check: (1) '1 rend.' saturates, 'n rend.' keeps\n"
      "scaling; (2) MCPC <= n rend. for k >= 3; (3) HPC rows are several\n"
      "times faster; (4) arrangements within each block are near-identical.\n");
  return 0;
}
