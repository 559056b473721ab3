// Figure 11 — "Rendering time with MCPC for rendering." The heterogeneous
// configuration: the MCPC's Xeon renders, the SCC only filters; a connect
// stage on the chip receives the frames over UDP and distributes strips.
// Best overall (paper: ~51 s at 5 pipelines), flattening beyond four
// pipelines because the connect stage's UDP receive becomes the bottleneck.

#include <cstdio>

#include "common.hpp"

using namespace sccpipe;
using namespace sccpipe::bench;

int main() {
  print_banner(
      "Figure 11 — MCPC renders, SCC filters (heterogeneous), 1..7 pipelines",
      "paper: ~231 s at k=1 down to ~51-54 s, flat beyond 4 pipelines");

  TextTable table({"configuration", "1 pl.", "2 pl.", "3 pl.", "4 pl.",
                   "5 pl.", "6 pl.", "7 pl."});
  SvgPlot plot("Fig. 11 — MCPC renders, SCC filters", "number of pipelines", "time in sec");
  add_table1_rows(table, 6, {"unordered", "ordered", "flipped"}, plot);
  std::printf("%s\n", table.to_string().c_str());
  write_figure(plot, "fig11_mcpc_renderer");

  // The connect stage's budget: why the curve flattens (§VI-A).
  RunConfig cfg;
  cfg.scenario = Scenario::HostRenderer;
  cfg.pipelines = 7;
  const RunResult r = run(cfg);
  const StageReport* connect = r.stage(StageKind::Connect);
  const StageReport* blur = r.stage(StageKind::Blur, 0);
  std::printf(
      "at k=7: connect busy %.0f ms/frame vs blur busy %.0f ms/frame — the\n"
      "UDP receive on a 533 MHz P54C caps the heterogeneous configuration\n",
      connect->busy_ms / World::instance().frames(),
      blur->busy_ms / World::instance().frames());
  return 0;
}
