// Arrangement explorer — visualise how the §IV-A arrangements place
// pipeline stages on the 6x4 SCC mesh, and measure whether it matters
// (the paper's answer: it does not, because every hand-off detours
// through a memory controller anyway).
//
//   $ ./examples/arrangement_explorer [pipelines]

#include <charconv>
#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <string_view>

#include "sccpipe/core/walkthrough.hpp"

using namespace sccpipe;

namespace {

/// ASCII map of the mesh: one cell per core, letter = stage.
void print_map(const MeshTopology& topo, const Placement& placement) {
  std::map<CoreId, char> labels;
  const char stage_letters[] = "SBcfw";  // sepia blur scratch flicker swap
  for (std::size_t p = 0; p < placement.pipeline_cores.size(); ++p) {
    const auto& cores = placement.pipeline_cores[p];
    const std::size_t first_filter = cores.size() - 5;
    for (std::size_t i = 0; i < cores.size(); ++i) {
      labels[cores[i]] =
          i < first_filter ? 'R' : stage_letters[i - first_filter];
    }
  }
  if (placement.producer >= 0) labels[placement.producer] = 'P';
  labels[placement.transfer] = 'T';

  std::printf("   (P=producer/render/connect, S=sepia, B=blur, c=scratch, "
              "f=flicker, w=swap, T=transfer, .=idle; 2 cores per tile)\n");
  for (int y = 0; y < topo.layout().height; ++y) {
    std::printf("   row %d: ", y);
    for (int x = 0; x < topo.layout().width; ++x) {
      const TileId tile = topo.tile_at({x, y});
      std::string cell;
      for (int c = 0; c < topo.layout().cores_per_tile; ++c) {
        const CoreId core = tile * topo.layout().cores_per_tile + c;
        const auto it = labels.find(core);
        cell += it == labels.end() ? '.' : it->second;
      }
      std::printf("[%s]", cell.c_str());
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  int k = 3;
  if (argc > 1) {
    const std::string_view text(argv[1]);
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), k);
    if (ec != std::errc() || end != text.data() + text.size() || k < 1 ||
        k > StripCounts::kMax) {
      std::fprintf(stderr, "usage: %s [pipelines]\n  pipelines: an integer "
                   "in 1..%d, got '%s'\n", argv[0], StripCounts::kMax,
                   argv[1]);
      return 2;
    }
  }
  MeshTopology topo;

  PlacementRequest req;
  req.pipelines = k;
  req.stages_per_pipeline = 6;  // renderer-per-pipeline layout
  req.needs_producer = false;

  const Arrangement arrangements[] = {Arrangement::Unordered,
                                      Arrangement::Ordered,
                                      Arrangement::Flipped};
  Placement placements[std::size(arrangements)];
  for (std::size_t i = 0; i < std::size(arrangements); ++i) {
    if (const Status st =
            plan_placement(topo, arrangements[i], req, &placements[i]);
        !st.ok()) {
      std::fprintf(stderr, "usage: %s [pipelines]\n  %s\n", argv[0],
                   st.message().c_str());
      return 2;
    }
  }
  for (std::size_t i = 0; i < std::size(arrangements); ++i) {
    std::printf("\n== %s arrangement, %d pipelines ==\n",
                arrangement_name(arrangements[i]), k);
    print_map(topo, placements[i]);
  }

  // Does it matter? Run the walkthrough with each arrangement.
  std::printf("\nmeasured walkthrough times (60 frames, 200x200):\n");
  CityParams city;
  city.blocks_x = 8;
  city.blocks_z = 8;
  SceneBundle scene(city, CameraConfig{}, 200, 60);
  const WorkloadTrace trace = WorkloadTrace::build(scene, k);
  for (const Arrangement a : arrangements) {
    RunConfig cfg;
    cfg.scenario = Scenario::RendererPerPipeline;
    cfg.arrangement = a;
    cfg.pipelines = k;
    const RunResult r = run_walkthrough(scene, trace, cfg);
    std::printf("  %-9s %.3f s | mesh %.0f MB (hottest link %.0f MB) | "
                "MC bytes [MB]:",
                arrangement_name(a), r.walkthrough.to_sec(),
                r.fabric.mesh_total_bytes / 1e6,
                r.fabric.mesh_max_link_bytes / 1e6);
    for (const double b : r.fabric.mc_bulk_bytes) {
      std::printf(" %.0f", b / 1e6);
    }
    std::printf("\n");
  }
  std::printf("\nnear-identical times are expected: the hand-offs bounce\n"
              "through the memory controllers regardless of placement (§VI-A)\n");
  return 0;
}
