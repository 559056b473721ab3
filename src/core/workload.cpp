#include "sccpipe/core/workload.hpp"

#include <bit>

#include "sccpipe/support/check.hpp"

namespace sccpipe {

SceneBundle::SceneBundle(CityParams city, CameraConfig camera, int image_side,
                         int frame_count)
    : city_(city),
      camera_(camera),
      side_(image_side),
      frames_(frame_count),
      mesh_(generate_city(city)),
      octree_(mesh_),
      renderer_(mesh_, octree_, camera, image_side, image_side),
      path_(mesh_.bounds(), frame_count) {
  SCCPIPE_CHECK(image_side > 0 && frame_count > 0);
}

StripCounts::StripCounts(std::initializer_list<int> ks) {
  for (const int k : ks) insert(k);
}

StripCounts StripCounts::up_to(int max_k) {
  StripCounts out;
  for (int k = 1; k <= max_k; ++k) out.insert(k);
  return out;
}

void StripCounts::insert(int k) {
  SCCPIPE_CHECK_MSG(k >= 1 && k <= kMax,
                    "strip count " << k << " outside 1.." << kMax);
  mask_ |= 1u << k;
}

int StripCounts::max() const {
  return mask_ == 0 ? 0 : std::bit_width(mask_) - 1;
}

std::vector<int> StripCounts::values() const {
  std::vector<int> out;
  for (int k = 1; k <= kMax; ++k) {
    if (contains(k)) out.push_back(k);
  }
  return out;
}

std::string StripCounts::to_string() const {
  std::string s = "{";
  for (const int k : values()) {
    if (s.size() > 1) s += ",";
    s += std::to_string(k);
  }
  return s + "}";
}

WorkloadTrace::WorkloadTrace(int frames, const StripCounts& strip_counts)
    : frames_(frames), counts_(strip_counts) {
  SCCPIPE_CHECK(frames > 0 && counts_.max() > 0);
  // Per frame we store k strips for each built k, in ascending k.
  k_offset_.assign(static_cast<std::size_t>(StripCounts::kMax) + 1, 0);
  std::size_t off = 0;
  for (const int k : counts_.values()) {
    k_offset_[static_cast<std::size_t>(k)] = off;
    off += static_cast<std::size_t>(k);
  }
  per_frame_ = off;
  loads_.resize(static_cast<std::size_t>(frames) * per_frame_);
}

std::size_t WorkloadTrace::index(int frame, int k, int strip) const {
  SCCPIPE_CHECK_MSG(frame >= 0 && frame < frames_, "frame " << frame);
  SCCPIPE_CHECK_MSG(counts_.contains(k), "k " << k << " not built; trace holds "
                                              << counts_.to_string());
  SCCPIPE_CHECK_MSG(strip >= 0 && strip < k, "strip " << strip << " of " << k);
  return static_cast<std::size_t>(frame) * per_frame_ +
         k_offset_[static_cast<std::size_t>(k)] +
         static_cast<std::size_t>(strip);
}

const RenderLoad& WorkloadTrace::load(int frame, int k, int strip) const {
  return loads_[index(frame, k, strip)];
}

WorkloadTrace WorkloadTrace::build(const SceneBundle& scene,
                                   const StripCounts& strip_counts,
                                   const ForEachFrame& for_each) {
  WorkloadTrace trace(scene.frame_count(), strip_counts);
  // Every strip of every built k, in the order a frame's slice of loads_
  // holds them (ascending k, then strip).
  std::vector<StripRange> strips;
  for (const int k : strip_counts.values()) {
    for (const StripRange& s : divide_rows(scene.image_side(), k)) {
      strips.push_back(s);
    }
  }
  SCCPIPE_CHECK(strips.size() == trace.per_frame_);
  const Renderer& renderer = scene.renderer();
  // Frames are independent (culling is const, each frame writes its own
  // slice of loads_), so the estimation pass — the expensive part of every
  // bench start-up — parallelises per frame when a runner is supplied.
  const auto estimate_frame = [&](std::size_t f) {
    std::vector<RenderStats> stats(strips.size());
    renderer.estimate_strips(scene.path().view(static_cast<int>(f)), strips,
                             stats);
    RenderLoad* loads = trace.loads_.data() + f * trace.per_frame_;
    for (std::size_t i = 0; i < stats.size(); ++i) {
      loads[i].nodes_visited = stats[i].cull.nodes_visited;
      loads[i].tris_accepted = stats[i].cull.tris_accepted;
      loads[i].projected_pixels = stats[i].projected_pixels;
    }
  };
  const std::size_t frames = static_cast<std::size_t>(scene.frame_count());
  if (for_each) {
    for_each(frames, estimate_frame);
  } else {
    for (std::size_t f = 0; f < frames; ++f) estimate_frame(f);
  }
  return trace;
}

}  // namespace sccpipe
