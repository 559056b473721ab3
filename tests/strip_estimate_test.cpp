// One-pass strip estimation: Octree::cull_multi against separate cull()
// calls, Renderer::estimate_strips against the per-strip reference
// estimate (render/reference.hpp), and golden digests pinning the
// workload traces built on them. CI also runs this binary under
// ThreadSanitizer (the golden traces are built on a parallel trace runner
// too) and in a Release (-O3) build.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sccpipe/core/workload.hpp"
#include "sccpipe/exec/executor.hpp"
#include "sccpipe/render/reference.hpp"
#include "sccpipe/support/check.hpp"
#include "sccpipe/support/rng.hpp"

namespace sccpipe {
namespace {

float uniform(Rng& rng, float lo, float hi) {
  return static_cast<float>(rng.uniform(lo, hi));
}

// ---------------------------------------------------------------- cull_multi

struct CullMultiFixture : ::testing::Test {
  static CityParams params() {
    CityParams p;
    p.blocks_x = 6;
    p.blocks_z = 6;
    return p;
  }
  Mesh city = generate_city(params());
  Octree octree{city};

  /// A 90-degree view from four bounding radii out along \p dir, looking at
  /// the scene centre (the whole scene inside) or away from it (nothing).
  Frustum far_view(Vec3 dir, bool toward) const {
    const Aabb b = octree.bounds();
    const float radius = length(b.extent());
    const Vec3 eye = b.center() + normalize(dir) * (4.0f * radius);
    const Vec3 look = toward ? b.center() : eye * 2.0f - b.center();
    const Vec3 up = std::fabs(normalize(dir).y) > 0.9f ? Vec3{1, 0, 0}
                                                       : Vec3{0, 1, 0};
    return Frustum(Mat4::perspective(1.5707964f, 1.0f, 0.1f, 20.0f * radius) *
                   Mat4::look_at(eye, look, up));
  }

  /// Seeded frusta: eyes and targets in and around the scene, symmetric and
  /// strip-adjusted projections, with whole-scene and empty views mixed in.
  std::vector<Frustum> random_frusta(std::size_t n, std::uint64_t seed) const {
    Rng rng{seed};
    const Aabb b = octree.bounds();
    const Vec3 lo = b.lo - b.extent() * 0.5f;
    const Vec3 hi = b.hi + b.extent() * 0.5f;
    auto point = [&](Vec3 from, Vec3 to) {
      return Vec3{uniform(rng, from.x, to.x), uniform(rng, from.y, to.y),
                  uniform(rng, from.z, to.z)};
    };
    std::vector<Frustum> out;
    for (std::size_t i = 0; i < n; ++i) {
      const Vec3 dir =
          point(Vec3{-1, -1, -1}, Vec3{1, 1, 1}) + Vec3{0, 0.01f, 0};
      if (i % 7 == 3) {
        out.push_back(far_view(dir, true));
        continue;
      }
      if (i % 7 == 5) {
        out.push_back(far_view(dir, false));
        continue;
      }
      const Mat4 view =
          Mat4::look_at(point(lo, hi), point(b.lo, b.hi), Vec3{0, 1, 0});
      CameraConfig cam;
      cam.fovy_radians = uniform(rng, 0.3f, 1.8f);
      cam.z_near = uniform(rng, 0.1f, 2.0f);
      cam.z_far = uniform(rng, 20.0f, 800.0f);
      const int height = 64 + static_cast<int>(rng.below(400));
      const int width = 64 + static_cast<int>(rng.below(400));
      const int rows = 1 + static_cast<int>(rng.below(height));
      const int y0 = static_cast<int>(rng.below(height - rows + 1));
      out.emplace_back(strip_projection(cam, width, height, {y0, rows}) *
                       view);
    }
    return out;
  }

  /// cull_multi over \p frusta must reproduce, per frustum, cull()'s
  /// triangle sequence and statistics exactly. Returns the separate culls'
  /// triangle counts.
  std::vector<std::size_t> expect_matches_separate_culls(
      std::span<const Frustum> frusta) const {
    std::vector<std::vector<std::uint32_t>> got(frusta.size());
    std::vector<CullStats> got_stats(frusta.size());
    octree.cull_multi(
        frusta,
        [&](std::span<const std::uint32_t> tris, std::uint64_t mask) {
          EXPECT_NE(mask, 0u);
          for (std::uint64_t m = mask; m != 0; m &= m - 1) {
            std::vector<std::uint32_t>& seq =
                got[static_cast<std::size_t>(std::countr_zero(m))];
            seq.insert(seq.end(), tris.begin(), tris.end());
          }
        },
        got_stats);
    std::vector<std::size_t> sizes;
    for (std::size_t i = 0; i < frusta.size(); ++i) {
      std::vector<std::uint32_t> want;
      CullStats want_stats;
      octree.cull(frusta[i], want, &want_stats);
      EXPECT_EQ(got[i], want) << "frustum " << i << " of " << frusta.size();
      EXPECT_EQ(got_stats[i].nodes_visited, want_stats.nodes_visited)
          << "frustum " << i;
      EXPECT_EQ(got_stats[i].tris_accepted, want_stats.tris_accepted)
          << "frustum " << i;
      EXPECT_EQ(got_stats[i].nodes_total, want_stats.nodes_total)
          << "frustum " << i;
      sizes.push_back(want.size());
    }
    return sizes;
  }
};

TEST_F(CullMultiFixture, MatchesSeparateCullsPerFrustum) {
  bool saw_empty = false;
  bool saw_whole = false;
  bool saw_partial = false;
  for (const std::size_t n : {1u, 2u, 63u, 64u}) {
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
      const std::vector<Frustum> frusta = random_frusta(n, seed * 1000 + n);
      for (const std::size_t size : expect_matches_separate_culls(frusta)) {
        saw_empty |= size == 0;
        saw_whole |= size == city.size();
        saw_partial |= size > 0 && size < city.size();
      }
    }
  }
  EXPECT_TRUE(saw_empty);
  EXPECT_TRUE(saw_whole);
  EXPECT_TRUE(saw_partial);
}

TEST_F(CullMultiFixture, RejectsEmptyAndOversizedBatches) {
  const auto visit = [](std::span<const std::uint32_t>, std::uint64_t) {};
  std::vector<CullStats> stats;
  EXPECT_THROW(octree.cull_multi({}, visit, stats), CheckError);
  const std::vector<Frustum> frusta = random_frusta(65, 5);
  stats.resize(frusta.size());
  EXPECT_THROW(octree.cull_multi(frusta, visit, stats), CheckError);
  // One stats slot per frustum.
  stats.resize(3);
  EXPECT_THROW(
      octree.cull_multi(std::span(frusta).first(4), visit, stats),
      CheckError);
}

// ----------------------------------------------------------- estimate_strips

/// Every strip of every k in \p ks, ascending k then strip (a trace
/// frame's order).
std::vector<StripRange> strips_of(int side, const StripCounts& ks) {
  std::vector<StripRange> out;
  for (const int k : ks.values()) {
    for (const StripRange& s : divide_rows(side, k)) out.push_back(s);
  }
  return out;
}

/// estimate_strips over \p strips against one reference::estimate_strip
/// per strip, field for field and projected_pixels bit for bit. Returns
/// the total triangles clipped away.
std::uint64_t expect_matches_reference(const Renderer& renderer,
                                       const Mat4& view,
                                       std::span<const StripRange> strips,
                                       const std::string& where) {
  std::vector<RenderStats> got(strips.size());
  renderer.estimate_strips(view, strips, got);
  std::uint64_t clipped = 0;
  for (std::size_t i = 0; i < strips.size(); ++i) {
    const RenderStats want =
        reference::estimate_strip(renderer, view, strips[i]);
    const std::string at = where + " strip " + std::to_string(i) + " y0 " +
                           std::to_string(strips[i].y0) + " rows " +
                           std::to_string(strips[i].rows);
    EXPECT_EQ(got[i].cull.nodes_visited, want.cull.nodes_visited) << at;
    EXPECT_EQ(got[i].cull.tris_accepted, want.cull.tris_accepted) << at;
    EXPECT_EQ(got[i].cull.nodes_total, want.cull.nodes_total) << at;
    EXPECT_EQ(got[i].triangles_transformed, want.triangles_transformed) << at;
    EXPECT_EQ(got[i].raster.triangles_submitted,
              want.raster.triangles_submitted)
        << at;
    EXPECT_EQ(got[i].raster.triangles_clipped_away,
              want.raster.triangles_clipped_away)
        << at;
    EXPECT_EQ(got[i].raster.pixels_tested, 0u) << at;
    EXPECT_EQ(got[i].raster.pixels_filled, 0u) << at;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].projected_pixels),
              std::bit_cast<std::uint64_t>(want.projected_pixels))
        << at << ": " << got[i].projected_pixels << " vs "
        << want.projected_pixels;
    clipped += want.raster.triangles_clipped_away;
  }
  return clipped;
}

TEST(EstimateStrips, MatchesPerStripReferenceForEveryStripOfKUpTo8) {
  for (const std::uint64_t seed_offset : {0u, 1u, 2u}) {
    CityParams params;
    params.seed += seed_offset;
    const Mesh mesh = generate_city(params);
    const Octree octree(mesh);
    const WalkthroughPath path(mesh.bounds(), 400);
    for (const int side : {120, 240, 333, 400}) {
      const Renderer renderer(mesh, octree, CameraConfig{}, side, side);
      const std::vector<StripRange> strips =
          strips_of(side, StripCounts::up_to(8));
      for (const int frame : {0, 83, 171, 262, 349}) {
        expect_matches_reference(renderer, path.view(frame), strips,
                                 "seed+" + std::to_string(seed_offset) +
                                     " side " + std::to_string(side) +
                                     " frame " + std::to_string(frame));
      }
    }
  }
}

TEST(EstimateStrips, MatchesReferenceAcrossTheGroupBoundary) {
  // k = 1..12 is 78 strips: two octree passes of 64 and 14.
  const Mesh mesh = generate_city(CityParams{});
  const Octree octree(mesh);
  const WalkthroughPath path(mesh.bounds(), 400);
  const Renderer renderer(mesh, octree, CameraConfig{}, 400, 400);
  const std::vector<StripRange> strips =
      strips_of(400, StripCounts::up_to(12));
  ASSERT_EQ(strips.size(), 78u);
  ASSERT_GT(strips.size(), Octree::kMaxMultiFrusta);
  for (const int frame : {17, 222}) {
    expect_matches_reference(renderer, path.view(frame), strips,
                             "frame " + std::to_string(frame));
  }
}

TEST(EstimateStrips, MatchesReferenceWithTrianglesBehindTheEye) {
  // Street-level eye inside the city: the octree accepts nodes straddling
  // the eye, so some accepted triangles lie wholly behind it.
  const Mesh mesh = generate_city(CityParams{});
  const Octree octree(mesh);
  const Renderer renderer(mesh, octree, CameraConfig{}, 240, 240);
  const Aabb b = mesh.bounds();
  const Vec3 eye{b.center().x, b.lo.y + 2.0f, b.center().z};
  const Mat4 view =
      Mat4::look_at(eye, eye + Vec3{1.0f, 0.0f, 0.3f}, Vec3{0, 1, 0});
  const std::uint64_t clipped = expect_matches_reference(
      renderer, view, strips_of(240, StripCounts::up_to(8)), "street level");
  EXPECT_GT(clipped, 0u);
}

/// A seeded triangle soup that drives the estimate kernel into its edge
/// cases, for a camera at the origin looking down -z (view = identity, so a
/// vertex at depth d has clip w exactly d):
///  - 500 near-eye triangles: all but the degenerate ones span the x = 0
///    plane through the centre of the soup's bounds, so the root node holds
///    several hundred triangles (several blocks of the kernel); it contains
///    the eye and so is accepted by every strip;
///  - their vertices often take depths exactly on, or one ulp either side
///    of, the 1e-4 clipped-away and 1e-2 clamp thresholds, and one in
///    eight is wholly behind the eye; all lie in a narrow cone around the
///    view axis, so the whole frame's and the central strips' area sums
///    stay below the cap that would hide a wrong clamp;
///  - clusters of 1..23 tiny triangles fill leaves of every size;
///  - one triangle in ten is degenerate (a repeated vertex, all three
///    vertices equal, or three collinear ones).
Mesh edge_case_soup(std::uint64_t seed) {
  Rng rng{seed};
  const float behind[] = {0.0f, -1e-3f, 1e-4f, std::nextafter(1e-4f, 0.0f)};
  const float edges[] = {std::nextafter(1e-4f, 1.0f), 5e-3f, 1e-2f,
                         std::nextafter(1e-2f, 0.0f),
                         std::nextafter(1e-2f, 1.0f), 2e-2f};
  Mesh mesh;
  const auto add = [&](Vec3 a, Vec3 b, Vec3 c) {
    switch (rng.below(10)) {
      case 0: b = a; break;
      case 1: b = a; c = a; break;
      case 2: c = a + (b - a) * 0.5f; break;
      default: break;
    }
    mesh.add(Triangle{a, b, c, Color{}});
  };
  // Bounds x in [-50, 50]: the root's centre, and first split plane, is at
  // x = 0.
  add(Vec3{-50, -50, -120}, Vec3{-49, -50, -120}, Vec3{-50, -49, -120});
  add(Vec3{50, 50, 20}, Vec3{49, 50, 20}, Vec3{50, 49, 20});
  for (int i = 0; i < 500; ++i) {
    const bool clipped = rng.below(8) == 0;
    const float a0 = uniform(rng, -0.01f, 0.01f);
    const float b0 = uniform(rng, -0.02f, 0.02f);
    Vec3 v[3];
    for (int c = 0; c < 3; ++c) {
      float d = uniform(rng, 0.5f, 100.0f);
      if (clipped) {
        d = behind[rng.below(std::size(behind))];
      } else if (rng.below(2) == 0) {
        d = rng.below(3) == 0 ? behind[rng.below(std::size(behind))]
                              : edges[rng.below(std::size(edges))];
      }
      float a = a0 + uniform(rng, -0.01f, 0.01f);
      // Vertex 0 left of the plane and vertex 1 right of it, at any depth.
      float e = 0.0f;
      if (c == 0) a = -std::fabs(a), e = -1e-4f;
      if (c == 1) a = std::fabs(a), e = 1e-4f;
      v[c] = Vec3{a * d + e, (b0 + uniform(rng, -0.01f, 0.01f)) * d, -d};
    }
    add(v[0], v[1], v[2]);
  }
  for (int cluster = 0; cluster < 60; ++cluster) {
    const Vec3 at{uniform(rng, -40.0f, 40.0f), uniform(rng, -40.0f, 40.0f),
                  uniform(rng, -100.0f, -5.0f)};
    const auto near = [&] {
      return at + Vec3{uniform(rng, -0.05f, 0.05f),
                       uniform(rng, -0.05f, 0.05f),
                       uniform(rng, -0.05f, 0.05f)};
    };
    const int n = 1 + static_cast<int>(rng.below(23));
    for (int t = 0; t < n; ++t) add(near(), near(), near());
  }
  return mesh;
}

TEST(EstimateStrips, MatchesReferenceOnAnEdgeCaseTriangleSoup) {
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    const Mesh mesh = edge_case_soup(seed);
    const Octree octree(mesh);
    const std::string where = "seed " + std::to_string(seed);
    for (const int side : {96, 333}) {
      const Renderer renderer(mesh, octree, CameraConfig{}, side, side);
      const std::vector<StripRange> strips =
          strips_of(side, StripCounts::up_to(8));
      // The view that puts clip w exactly on the thresholds, then seeded
      // looks from inside the soup.
      std::vector<Mat4> views{Mat4::identity()};
      Rng rng{seed};
      for (int v = 0; v < 3; ++v) {
        const Vec3 eye{uniform(rng, -20.0f, 20.0f), uniform(rng, -20.0f, 20.0f),
                       uniform(rng, -60.0f, 0.0f)};
        views.push_back(Mat4::look_at(
            eye, Vec3{uniform(rng, -40.0f, 40.0f), 0.0f, -100.0f},
            Vec3{0, 1, 0}));
      }
      for (std::size_t v = 0; v < views.size(); ++v) {
        const std::uint64_t clipped = expect_matches_reference(
            renderer, views[v], strips,
            where + " side " + std::to_string(side) + " view " +
                std::to_string(v));
        if (v == 0) {
          EXPECT_GT(clipped, 0u) << where;
        }
      }
    }

    // The soup reaches the cases it is built for.
    const Mat4 vp = strip_projection(CameraConfig{}, 96, 96, {0, 96});
    int on_edge[2] = {0, 0};
    bool degenerate = false;
    for (const Triangle& t : mesh.triangles()) {
      for (const Vec3 p : {t.v0, t.v1, t.v2}) {
        const float w = (vp * Vec4{p, 1.0f}).w;
        on_edge[0] += w == 1e-4f;
        on_edge[1] += w == 1e-2f;
      }
      degenerate |= cross(t.v1 - t.v0, t.v2 - t.v0) == Vec3{};
    }
    EXPECT_GT(on_edge[0], 0) << where;
    EXPECT_GT(on_edge[1], 0) << where;
    EXPECT_TRUE(degenerate) << where;
    std::size_t largest = 0;
    bool ragged = false;
    const Frustum frustum(vp);
    std::vector<CullStats> stats(1);
    octree.cull_multi(
        std::span(&frustum, 1),
        [&](std::span<const std::uint32_t> tris, std::uint64_t) {
          largest = std::max(largest, tris.size());
          ragged |= tris.size() % 4 != 0;
        },
        stats);
    EXPECT_GT(largest, 300u) << where;
    EXPECT_TRUE(ragged) << where;
  }
}

TEST(EstimateStrips, OneStripCallAndOutputSize) {
  const Mesh mesh = generate_city(CullMultiFixture::params());
  const Octree octree(mesh);
  const Renderer renderer(mesh, octree, CameraConfig{}, 96, 96);
  const Mat4 view = WalkthroughPath(mesh.bounds(), 10).view(4);
  const std::vector<StripRange> strips = divide_rows(96, 3);
  expect_matches_reference(renderer, view, strips, "k=3");
  const RenderStats one = renderer.estimate_strip(view, strips[1]);
  const RenderStats want = reference::estimate_strip(renderer, view, strips[1]);
  EXPECT_EQ(one.cull.tris_accepted, want.cull.tris_accepted);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(one.projected_pixels),
            std::bit_cast<std::uint64_t>(want.projected_pixels));
  std::vector<RenderStats> short_out(2);
  EXPECT_THROW(renderer.estimate_strips(view, strips, short_out), CheckError);
}

// ------------------------------------------------------------- golden trace

/// 64-bit FNV-1a over the bit patterns of every load, frame-major, then
/// ascending k, then strip, fields in declaration order.
std::uint64_t trace_digest(const WorkloadTrace& trace) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (int f = 0; f < trace.frame_count(); ++f) {
    for (const int k : trace.strip_counts().values()) {
      for (int s = 0; s < k; ++s) {
        const RenderLoad& l = trace.load(f, k, s);
        mix(l.nodes_visited);
        mix(l.tris_accepted);
        mix(l.projected_pixels);
      }
    }
  }
  return h;
}

/// trace_digest of WorkloadTrace::build(default city, 60 frames at 240²,
/// k = 1..8), captured from the per-strip build (one cull and one full
/// Mat4 * Vec4 transform per strip) that the one-pass build replaced. Any
/// drift in culling, transform or area accounting changes it.
constexpr std::uint64_t kGoldenTraceDigest = 0x9293D9266C7A14BCull;

TEST(WorkloadTraceGolden, DefaultCityTraceDigestIsPinned) {
  const SceneBundle scene(CityParams{}, CameraConfig{}, 240, 60);
  EXPECT_EQ(trace_digest(WorkloadTrace::build(scene, 8)), kGoldenTraceDigest);
  EXPECT_EQ(trace_digest(WorkloadTrace::build(scene, 8, exec::trace_runner(4))),
            kGoldenTraceDigest);
}

/// trace_digest of WorkloadTrace::build(default city, 400 frames at 400²,
/// k = 1..7): the paper's walkthrough at full size, every strip count its
/// grids read. Captured from the scalar per-triangle estimate that the
/// vector kernel replaced.
constexpr std::uint64_t kFullSizeTraceDigest = 0x03720E19DB9ECF3Cull;

TEST(WorkloadTraceGolden, FullSizeDefaultCityTraceDigestIsPinned) {
  const SceneBundle scene(CityParams{}, CameraConfig{}, 400, 400);
  EXPECT_EQ(trace_digest(WorkloadTrace::build(scene, 7, exec::trace_runner(1))),
            kFullSizeTraceDigest);
  EXPECT_EQ(trace_digest(WorkloadTrace::build(scene, 7, exec::trace_runner(4))),
            kFullSizeTraceDigest);
}

}  // namespace
}  // namespace sccpipe
