// Figure 9 — "Processing time using one renderer with different numbers of
// pipelines." One SCC core renders whole frames and feeds 1..7 parallel
// filter pipelines; the configuration saturates quickly because rendering
// is the bottleneck (§VI-A). All three §IV-A arrangements are swept — the
// paper's finding is that they do not matter.

#include <cstdio>

#include "common.hpp"

using namespace sccpipe;
using namespace sccpipe::bench;

int main() {
  print_banner(
      "Figure 9 — one renderer, 1..7 pipelines, all three arrangements",
      "paper: ~207 s at k=1, saturating near ~101 s (render-bound)");

  TextTable table({"configuration", "1 pl.", "2 pl.", "3 pl.", "4 pl.",
                   "5 pl.", "6 pl.", "7 pl."});
  SvgPlot plot("Fig. 9 — one renderer, 1..7 pipelines", "number of pipelines", "time in sec");
  add_table1_rows(table, 0, {"unordered", "ordered", "flipped"}, plot);
  std::printf("%s\n", table.to_string().c_str());
  write_figure(plot, "fig09_single_renderer");

  // Speed-ups relative to the one-core baseline, as quoted in §VI-A.
  const double base = run_single_core(World::instance().scene(),
                                      World::instance().trace(), RunConfig{})
                          .total.to_sec();
  RunConfig cfg;
  cfg.scenario = Scenario::SingleRenderer;
  cfg.pipelines = 1;
  const double one = run(cfg).walkthrough.to_sec();
  cfg.pipelines = 7;
  const double best = run(cfg).walkthrough.to_sec();
  std::printf("speed-up vs one core: k=1 %.2fx, k=7 %.2fx "
              "(paper: ~1.7-1.8x and ~2.0x w.r.t. one pipeline / ~3.4x one core)\n",
              base / one, base / best);
  return 0;
}
