#include <gtest/gtest.h>

#include "sccpipe/mem/memory.hpp"
#include "sccpipe/support/check.hpp"

namespace sccpipe {
namespace {

using namespace sccpipe::literals;

// ------------------------------------------------------------- MemorySystem

struct MemFixture : ::testing::Test {
  Simulator sim;
  MeshTopology topo;
  MeshModel mesh{topo};
  MeshFabric fabric{sim, topo.layout(), MeshTimingConfig{}.router_latency};
  MemorySystem mem{sim, topo, mesh, fabric};
};

TEST_F(MemFixture, BulkCompletesAndAccounts) {
  bool done = false;
  mem.bulk(0, 1.0e6, 1.0e8, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  const McStats& st = mem.stats(topo.home_mc(0));
  EXPECT_DOUBLE_EQ(st.bulk_bytes, 1.0e6);
  EXPECT_EQ(st.bulk_flows, 1u);
}

TEST_F(MemFixture, BulkRespectsCoreRateCap) {
  SimTime done = SimTime::zero();
  // 1 MB at a 100 MB/s core cap: ~10 ms (plus small mesh time).
  mem.bulk(0, 1.0e6, 1.0e8, [&] { done = sim.now(); });
  sim.run();
  EXPECT_GE(done, 10_ms);
  EXPECT_LT(done, 11_ms);
}

TEST_F(MemFixture, ConcurrentBulksOnSameMcShareBandwidth) {
  // Two uncapped flows through one controller take twice as long as one.
  SimTime done_one, done_two;
  {
    Simulator s2;
    MeshModel mesh2{topo};
    MeshFabric fabric2{s2, topo.layout(), MeshTimingConfig{}.router_latency};
    MemorySystem mem2{s2, topo, mesh2, fabric2};
    mem2.bulk(0, 1.0e7, 0.0, [&] { done_one = s2.now(); });
    s2.run();
  }
  mem.bulk(0, 1.0e7, 0.0, [&] { done_two = sim.now(); });
  mem.bulk(1, 1.0e7, 0.0, [&] {});
  sim.run();
  EXPECT_GT(done_two.to_sec(), 1.8 * done_one.to_sec());
}

TEST_F(MemFixture, LatencyBoundScalesWithAccesses) {
  const SimTime t1 = mem.latency_bound(0, 1000.0);
  const SimTime t2 = mem.latency_bound(0, 2000.0);
  EXPECT_NEAR(t2.to_sec(), 2.0 * t1.to_sec(), 1e-12);
}

TEST_F(MemFixture, LatencyGrowsWithDistanceToMc) {
  // Core 0 sits on its MC; a core in the middle of the mesh is hops away.
  const CoreId far_core = 2 * topo.tile_at({2, 1});
  EXPECT_GT(mem.latency_bound(far_core, 1000.0),
            mem.latency_bound(0, 1000.0));
}

TEST_F(MemFixture, LatencyInflatesUnderLoad) {
  const SimTime idle = mem.latency_bound(0, 1000.0);
  // Register two competing walkers on the same controller (cores 0 and 1
  // share MC 0).
  mem.register_latency_stream(1);
  mem.register_latency_stream(2);
  const SimTime loaded = mem.latency_bound(0, 1000.0);
  EXPECT_GT(loaded, idle);
  mem.unregister_latency_stream(1);
  mem.unregister_latency_stream(2);
  EXPECT_EQ(mem.latency_bound(0, 1000.0), idle);
}

TEST_F(MemFixture, LoadCountsBulkAndLatencyStreams) {
  EXPECT_DOUBLE_EQ(mem.mc_load(0), 0.0);
  mem.register_latency_stream(0);
  EXPECT_DOUBLE_EQ(mem.mc_load(0), 1.0);
  bool done = false;
  mem.bulk(0, 1.0e6, 0.0, [&] { done = true; });
  // The flow registers at the controller once it has crossed the mesh
  // from the bridge; uncapped, 1 MB keeps it busy for about 400 us.
  EXPECT_DOUBLE_EQ(mem.mc_load(0), 1.0);
  sim.run_until(100_us);
  EXPECT_FALSE(done);
  EXPECT_DOUBLE_EQ(mem.mc_load(0), 2.0);
  mem.unregister_latency_stream(0);
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(mem.mc_load(0), 0.0);
}

TEST_F(MemFixture, UnbalancedUnregisterThrows) {
  EXPECT_THROW(mem.unregister_latency_stream(0), CheckError);
}

TEST_F(MemFixture, LatencyStreamScopeIsRaii) {
  {
    LatencyStreamScope scope(mem, 0);
    EXPECT_DOUBLE_EQ(mem.mc_load(0), 1.0);
  }
  EXPECT_DOUBLE_EQ(mem.mc_load(0), 0.0);
}

TEST_F(MemFixture, DifferentQuadrantsUseDifferentControllers) {
  // A core near (5,3) homes on MC 3; its bulk should not appear on MC 0.
  const CoreId c = 2 * topo.tile_at({5, 3});
  mem.bulk(c, 500.0, 0.0, [] {});
  sim.run();
  EXPECT_DOUBLE_EQ(mem.stats(0).bulk_bytes, 0.0);
  EXPECT_DOUBLE_EQ(mem.stats(3).bulk_bytes, 500.0);
}

}  // namespace
}  // namespace sccpipe
