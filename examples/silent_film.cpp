// Silent film — the paper's case study, run *functionally*: the timed run
// drives the macro pipeline (render -> sepia -> blur -> scratch -> flicker
// -> swap -> transfer), then every frame the viewer received is composed
// from the strips the pipelines delivered (render, the real filters,
// mirrored assembly) and written to disk as a PPM image. View them with any
// image viewer or encode a film:
//
//   $ ./examples/silent_film [frames] [size] [out_dir]
//   $ ffmpeg -i silent_film_frames/frame_%03d.ppm film.mp4   # optional

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <system_error>

#include "sccpipe/core/walkthrough.hpp"
#include "sccpipe/support/parallel.hpp"

using namespace sccpipe;

namespace {

/// \p text as a positive int, or nothing unless all of it parses.
std::optional<int> positive_int(const char* text) {
  int v = 0;
  const char* end = text + std::char_traits<char>::length(text);
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || ptr != end || v <= 0) return std::nullopt;
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<int> frames = argc > 1 ? positive_int(argv[1]) : 24;
  const std::optional<int> size = argc > 2 ? positive_int(argv[2]) : 320;
  if (!frames || !size || argc > 4) {
    std::fprintf(stderr,
                 "usage: %s [frames] [size] [out_dir]\n"
                 "  frames and size are positive integers (default 24 320)\n",
                 argv[0]);
    return 2;
  }
  if (const Status st = check_jobs_env(); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.message().c_str());
    return 2;
  }
  const std::filesystem::path out_dir =
      argc > 3 ? argv[3] : "silent_film_frames";

  CityParams city;
  city.blocks_x = 10;
  city.blocks_z = 10;
  SceneBundle scene(city, CameraConfig{}, *size, *frames);
  const WorkloadTrace trace = WorkloadTrace::build(scene, 3);

  std::printf("rendering %d frames at %dx%d through 3 parallel pipelines...\n",
              *frames, *size, *size);
  RunConfig cfg;
  cfg.scenario = Scenario::RendererPerPipeline;  // sort-first, 3 renderers
  cfg.pipelines = 3;
  cfg.functional = true;  // compose the delivered frames' pixels
  const RunResult result = run_walkthrough(scene, trace, cfg);

  std::filesystem::create_directories(out_dir);
  for (std::size_t i = 0; i < result.frames.size(); ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "frame_%03zu.ppm", i);
    result.frames[i].write_ppm((out_dir / name).string());
  }
  std::printf("wrote %zu frames to %s/\n", result.frames.size(),
              out_dir.string().c_str());
  std::printf("simulated SCC time for this walkthrough: %.2f s "
              "(the pixels are identical to a sequential run)\n",
              result.walkthrough.to_sec());
  return 0;
}
