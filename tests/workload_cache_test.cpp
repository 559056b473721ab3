#include <gtest/gtest.h>

#include <filesystem>

#include "sccpipe/core/workload.hpp"

namespace sccpipe {
namespace {

struct CacheFixture : ::testing::Test {
  static CityParams city() {
    CityParams p;
    p.blocks_x = 4;
    p.blocks_z = 4;
    return p;
  }
  SceneBundle scene{city(), CameraConfig{}, 80, 6};
  const std::string path = "/tmp/sccpipe_trace_cache_test.bin";

  void TearDown() override { std::filesystem::remove(path); }
};

TEST_F(CacheFixture, SaveLoadRoundTripIsExact) {
  const WorkloadTrace original = WorkloadTrace::build(scene, 3);
  original.save(path, scene);
  const auto loaded = WorkloadTrace::load(path, scene, 3);
  ASSERT_TRUE(loaded.has_value());
  for (int f = 0; f < 6; ++f) {
    for (int k = 1; k <= 3; ++k) {
      for (int s = 0; s < k; ++s) {
        const RenderLoad& a = original.load(f, k, s);
        const RenderLoad& b = loaded->load(f, k, s);
        EXPECT_EQ(a.nodes_visited, b.nodes_visited);
        EXPECT_EQ(a.tris_accepted, b.tris_accepted);
        EXPECT_EQ(a.projected_pixels, b.projected_pixels);
      }
    }
  }
}

TEST_F(CacheFixture, MissingFileReturnsEmpty) {
  EXPECT_FALSE(WorkloadTrace::load("/tmp/nonexistent.cache", scene, 3));
}

TEST_F(CacheFixture, FingerprintMismatchRejected) {
  WorkloadTrace::build(scene, 3).save(path, scene);
  // Different max_k.
  EXPECT_FALSE(WorkloadTrace::load(path, scene, 4));
  // Different scene (other seed).
  CityParams other = city();
  other.seed ^= 1;
  SceneBundle other_scene(other, CameraConfig{}, 80, 6);
  EXPECT_FALSE(WorkloadTrace::load(path, other_scene, 3));
  // Different frame count.
  SceneBundle longer(city(), CameraConfig{}, 80, 7);
  EXPECT_FALSE(WorkloadTrace::load(path, longer, 3));
}

TEST_F(CacheFixture, StripCountSetMismatchRejected) {
  // Full 1..3 on disk: a {1, 3} request must not be served from it.
  const WorkloadTrace full = WorkloadTrace::build(scene, 3);
  full.save(path, scene);
  EXPECT_FALSE(WorkloadTrace::load(path, scene, StripCounts{1, 3}));
  EXPECT_TRUE(WorkloadTrace::load(path, scene, StripCounts{1, 2, 3}));

  // {1, 3} on disk: the full request is rejected, the same set loads.
  WorkloadTrace::build(scene, StripCounts{1, 3}).save(path, scene);
  EXPECT_FALSE(WorkloadTrace::load(path, scene, 3));
  EXPECT_FALSE(WorkloadTrace::load(path, scene, StripCounts{1, 2}));
  const auto sparse = WorkloadTrace::load(path, scene, StripCounts{1, 3});
  ASSERT_TRUE(sparse.has_value());
  EXPECT_EQ(sparse->strip_counts(), (StripCounts{1, 3}));
  for (int f = 0; f < 6; ++f) {
    for (const int k : {1, 3}) {
      for (int s = 0; s < k; ++s) {
        EXPECT_EQ(sparse->load(f, k, s).tris_accepted,
                  full.load(f, k, s).tris_accepted);
        EXPECT_EQ(sparse->load(f, k, s).projected_pixels,
                  full.load(f, k, s).projected_pixels);
      }
    }
  }
}

TEST_F(CacheFixture, TruncatedFileRejected) {
  WorkloadTrace::build(scene, 3).save(path, scene);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 17);
  EXPECT_FALSE(WorkloadTrace::load(path, scene, 3));
}

TEST_F(CacheFixture, BuildCachedCreatesAndReuses) {
  EXPECT_FALSE(std::filesystem::exists(path));
  const WorkloadTrace first = WorkloadTrace::build_cached(scene, 3, path);
  EXPECT_TRUE(std::filesystem::exists(path));
  const WorkloadTrace second = WorkloadTrace::build_cached(scene, 3, path);
  EXPECT_EQ(first.load(2, 3, 1).tris_accepted,
            second.load(2, 3, 1).tris_accepted);
}

}  // namespace
}  // namespace sccpipe
