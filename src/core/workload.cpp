#include "sccpipe/core/workload.hpp"

#include <bit>
#include <fstream>

#include "sccpipe/support/check.hpp"
#include "sccpipe/support/log.hpp"

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

namespace {

constexpr std::uint64_t kTraceMagic = 0x5cc9'7bac'e002ULL;  // format v2

struct TraceHeader {
  std::uint64_t magic = kTraceMagic;
  std::uint64_t scene_seed = 0;
  std::int32_t blocks_x = 0;
  std::int32_t blocks_z = 0;
  std::int32_t image_side = 0;
  std::int32_t frames = 0;
  std::int32_t max_k = 0;
  std::uint32_t strip_mask = 0;  ///< StripCounts::mask() of the stored set
};

TraceHeader make_header(const SceneBundle& scene,
                        const StripCounts& strip_counts) {
  TraceHeader h;
  h.scene_seed = scene.city().seed;
  h.blocks_x = scene.city().blocks_x;
  h.blocks_z = scene.city().blocks_z;
  h.image_side = scene.image_side();
  h.frames = scene.frame_count();
  h.max_k = strip_counts.max();
  h.strip_mask = strip_counts.mask();
  return h;
}

bool headers_match(const TraceHeader& a, const TraceHeader& b) {
  return a.magic == b.magic && a.scene_seed == b.scene_seed &&
         a.blocks_x == b.blocks_x && a.blocks_z == b.blocks_z &&
         a.image_side == b.image_side && a.frames == b.frames &&
         a.max_k == b.max_k && a.strip_mask == b.strip_mask;
}

}  // namespace

void WorkloadTrace::save(const std::string& path,
                         const SceneBundle& scene) const {
  std::ofstream f(path, std::ios::binary);
  SCCPIPE_CHECK_MSG(f.is_open(), "cannot open " << path);
  const TraceHeader header = make_header(scene, counts_);
  f.write(reinterpret_cast<const char*>(&header), sizeof header);
  f.write(reinterpret_cast<const char*>(loads_.data()),
          static_cast<std::streamsize>(loads_.size() * sizeof(RenderLoad)));
  SCCPIPE_CHECK_MSG(f.good(), "write failed: " << path);
}

std::optional<WorkloadTrace> WorkloadTrace::load(
    const std::string& path, const SceneBundle& scene,
    const StripCounts& strip_counts) {
  std::ifstream f(path, std::ios::binary);
  if (!f.is_open()) return std::nullopt;
  TraceHeader header;
  f.read(reinterpret_cast<char*>(&header), sizeof header);
  if (!f.good() || !headers_match(header, make_header(scene, strip_counts))) {
    return std::nullopt;
  }
  WorkloadTrace trace(scene.frame_count(), strip_counts);
  f.read(reinterpret_cast<char*>(trace.loads_.data()),
         static_cast<std::streamsize>(trace.loads_.size() *
                                      sizeof(RenderLoad)));
  if (!f.good()) return std::nullopt;
  // The file must end exactly here (truncated/oversized files rejected).
  f.peek();
  if (!f.eof()) return std::nullopt;
  return trace;
}

WorkloadTrace WorkloadTrace::build_cached(const SceneBundle& scene,
                                          const StripCounts& strip_counts,
                                          const std::string& cache_path,
                                          const ForEachFrame& for_each) {
  if (auto cached = load(cache_path, scene, strip_counts)) {
    SCCPIPE_INFO("workload trace loaded from " << cache_path);
    return std::move(*cached);
  }
  WorkloadTrace trace = build(scene, strip_counts, for_each);
  try {
    trace.save(cache_path, scene);
  } catch (const CheckError&) {
    SCCPIPE_WARN("could not write workload cache " << cache_path);
  }
  return trace;
}

WorkloadTrace WorkloadTrace::build(const SceneBundle& scene,
                                   const StripCounts& strip_counts,
                                   const ForEachFrame& for_each) {
  WorkloadTrace trace(scene.frame_count(), strip_counts);
  const std::vector<int> ks = strip_counts.values();
  const Renderer& renderer = scene.renderer();
  const int side = scene.image_side();
  // Frames are independent (culling is const, each frame writes its own
  // slice of loads_), so the estimation pass — the expensive part of every
  // bench start-up — parallelises per frame when a runner is supplied.
  const auto estimate_frame = [&](std::size_t f) {
    const int frame = static_cast<int>(f);
    const Mat4 view = scene.path().view(frame);
    for (const int k : ks) {
      const auto strips = divide_rows(side, k);
      for (int s = 0; s < k; ++s) {
        const RenderStats st =
            renderer.estimate_strip(view, strips[static_cast<std::size_t>(s)]);
        RenderLoad& load = trace.loads_[trace.index(frame, k, s)];
        load.nodes_visited = st.cull.nodes_visited;
        load.tris_accepted = st.cull.tris_accepted;
        load.projected_pixels = st.projected_pixels;
      }
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
