// Figure 10 — "Processing time using one renderer per pipeline." The
// sort-first configuration: every pipeline has its own render stage with a
// strip-adjusted frustum. Scales much further than Figure 9 (to ~58 s at 7
// pipelines) but pays for the extra memory accesses of many concurrent
// renderers on the chip (§VI-A).

#include <cstdio>

#include "common.hpp"

using namespace sccpipe;
using namespace sccpipe::bench;

int main() {
  print_banner(
      "Figure 10 — one renderer per pipeline (sort-first), 1..7 pipelines",
      "paper: 235 s at k=1 scaling to ~58 s at k=7; arrangements identical");

  TextTable table({"configuration", "1 pl.", "2 pl.", "3 pl.", "4 pl.",
                   "5 pl.", "6 pl.", "7 pl."});
  SvgPlot plot("Fig. 10 — one renderer per pipeline", "number of pipelines", "time in sec");
  add_table1_rows(table, 3, {"unordered", "ordered", "flipped"}, plot);
  std::printf("%s\n", table.to_string().c_str());
  write_figure(plot, "fig10_n_renderers");

  const double base = run_single_core(World::instance().scene(),
                                      World::instance().trace(), RunConfig{})
                          .total.to_sec();
  RunConfig cfg;
  cfg.scenario = Scenario::RendererPerPipeline;
  cfg.pipelines = 7;
  std::printf("speed-up vs one core at k=7: %.2fx (paper: ~6.9x)\n",
              base / run(cfg).walkthrough.to_sec());
  return 0;
}
