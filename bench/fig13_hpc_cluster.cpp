// Figure 13 — "Rendering time with the Mogon Cluster." The same pipeline
// code on a modern 64-core HPC node: external renderer (frames arrive from
// another node), single renderer, and one renderer per pipeline. The
// cluster is several times faster than the SCC system; the external-
// renderer configuration plateaus early on its inter-node feed.

#include <cstdio>

#include "common.hpp"

using namespace sccpipe;
using namespace sccpipe::bench;

int main() {
  print_banner(
      "Figure 13 — Mogon HPC cluster node, three renderer configurations",
      "paper: external 32->18 s, single 26->4 s, parallel 25->4 s");

  TextTable table({"configuration", "1 pl.", "2 pl.", "3 pl.", "4 pl.",
                   "5 pl.", "6 pl.", "7 pl."});
  SvgPlot plot("Fig. 13 — Mogon HPC cluster node", "number of pipelines", "time in sec");
  add_table1_rows(table, 9,
                  {"external renderer", "single renderer", "parallel renderer"},
                  plot);
  std::printf("%s\n", table.to_string().c_str());
  write_figure(plot, "fig13_hpc_cluster");

  // Paper: "Using seven pipelines, the cluster is 13.5 times faster than
  // the SCC system."
  RunConfig scc;
  scc.scenario = Scenario::RendererPerPipeline;
  scc.pipelines = 7;
  RunConfig hpc = scc;
  hpc.platform = PlatformKind::Cluster;
  std::printf("cluster vs SCC at k=7 (parallel renderers): %.1fx faster "
              "(paper: 13.5x)\n",
              run(scc).walkthrough.to_sec() / run(hpc).walkthrough.to_sec());
  return 0;
}
