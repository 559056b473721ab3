#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>
#include <vector>

#include "sccpipe/noc/fabric.hpp"
#include "sccpipe/noc/mesh.hpp"
#include "sccpipe/noc/topology.hpp"
#include "sccpipe/support/check.hpp"
#include "sccpipe/support/rng.hpp"

namespace sccpipe {
namespace {

using namespace sccpipe::literals;

// ---------------------------------------------------------------- Topology

TEST(Topology, SccDefaults) {
  MeshTopology topo;
  EXPECT_EQ(topo.tile_count(), 24);
  EXPECT_EQ(topo.core_count(), 48);
  EXPECT_EQ(topo.mc_count(), 4);
}

TEST(Topology, CoreToTileMapping) {
  MeshTopology topo;
  EXPECT_EQ(topo.tile_of(0), 0);
  EXPECT_EQ(topo.tile_of(1), 0);
  EXPECT_EQ(topo.tile_of(2), 1);
  EXPECT_EQ(topo.tile_of(47), 23);
  const TileCoord c = topo.coord_of(7);
  EXPECT_EQ(c.x, 1);
  EXPECT_EQ(c.y, 1);
  EXPECT_EQ(topo.tile_at(c), 7);
}

TEST(Topology, RejectsInvalidCores) {
  MeshTopology topo;
  EXPECT_THROW(topo.tile_of(-1), CheckError);
  EXPECT_THROW(topo.tile_of(48), CheckError);
  EXPECT_FALSE(topo.valid_core(48));
  EXPECT_TRUE(topo.valid_core(0));
}

TEST(Topology, HopDistanceIsManhattan) {
  MeshTopology topo;
  EXPECT_EQ(topo.hop_distance({0, 0}, {5, 3}), 8);
  EXPECT_EQ(topo.hop_distance({2, 1}, {2, 1}), 0);
  EXPECT_EQ(topo.hop_distance({5, 0}, {0, 0}), 5);
}

TEST(Topology, RouteLengthEqualsManhattanDistance) {
  MeshTopology topo;
  Rng rng{99};
  for (int i = 0; i < 200; ++i) {
    const TileCoord a{static_cast<int>(rng.below(6)),
                      static_cast<int>(rng.below(4))};
    const TileCoord b{static_cast<int>(rng.below(6)),
                      static_cast<int>(rng.below(4))};
    const auto route = topo.route(a, b);
    EXPECT_EQ(static_cast<int>(route.size()), topo.hop_distance(a, b));
  }
}

TEST(Topology, RouteIsXThenY) {
  MeshTopology topo;
  const auto route = topo.route({0, 0}, {2, 2});
  ASSERT_EQ(route.size(), 4u);
  EXPECT_EQ(route[0].dir, Direction::East);
  EXPECT_EQ(route[1].dir, Direction::East);
  EXPECT_EQ(route[2].dir, Direction::South);
  EXPECT_EQ(route[3].dir, Direction::South);
  // Route hops are contiguous.
  EXPECT_EQ(route[1].from.x, 1);
  EXPECT_EQ(route[2].from.x, 2);
}

TEST(Topology, EmptyRouteForSameTile) {
  MeshTopology topo;
  EXPECT_TRUE(topo.route({3, 2}, {3, 2}).empty());
}

TEST(Topology, HomeMcIsNearest) {
  MeshTopology topo;
  // Core 0 is at (0,0), the site of MC 0.
  EXPECT_EQ(topo.home_mc(0), 0);
  // Core at tile (5,0) -> MC 1 at (5,0).
  EXPECT_EQ(topo.home_mc(2 * topo.tile_at({5, 0})), 1);
  // Core at (0,3) is closest to MC 2 at (0,2).
  EXPECT_EQ(topo.home_mc(2 * topo.tile_at({0, 3})), 2);
  // Core at (5,3) -> MC 3 at (5,2).
  EXPECT_EQ(topo.home_mc(2 * topo.tile_at({5, 3})), 3);
}

TEST(Topology, EveryCoreHasAHomeMcWithinMesh) {
  MeshTopology topo;
  int counts[4] = {0, 0, 0, 0};
  for (CoreId c = 0; c < topo.core_count(); ++c) {
    const McId m = topo.home_mc(c);
    ASSERT_GE(m, 0);
    ASSERT_LT(m, 4);
    ++counts[m];
  }
  // The quadrant assignment is balanced: 12 cores per controller.
  for (const int n : counts) EXPECT_EQ(n, 12);
}

TEST(Topology, LinkIndexIsDense) {
  MeshTopology topo;
  std::vector<bool> seen(static_cast<std::size_t>(topo.link_index_count()));
  for (TileId t = 0; t < topo.tile_count(); ++t) {
    for (int d = 0; d < 4; ++d) {
      const LinkId link{topo.coord_of(t), static_cast<Direction>(d)};
      const int idx = topo.link_index(link);
      ASSERT_GE(idx, 0);
      ASSERT_LT(idx, topo.link_index_count());
      EXPECT_FALSE(seen[static_cast<std::size_t>(idx)]);
      seen[static_cast<std::size_t>(idx)] = true;
    }
  }
}

TEST(Topology, CustomLayout) {
  MeshLayout layout;
  layout.width = 8;
  layout.height = 4;
  layout.mc_positions = {{0, 0}, {7, 0}, {0, 2}, {7, 2}};
  MeshTopology topo(layout);
  EXPECT_EQ(topo.core_count(), 64);
  EXPECT_EQ(topo.hop_distance({0, 0}, {7, 3}), 10);
}

TEST(Topology, RejectsMcOutsideMesh) {
  MeshLayout layout;
  layout.mc_positions = {{9, 0}};
  EXPECT_THROW(MeshTopology{layout}, CheckError);
}

// -------------------------------------------------------------------- Mesh

TEST(MeshModel, IdealLatencyScalesWithHops) {
  MeshTopology topo;
  MeshTimingConfig cfg;
  cfg.router_latency = SimTime::ns(10);
  cfg.link_bandwidth_bytes_per_sec = 1e9;
  MeshModel mesh(topo, cfg);
  const SimTime near = mesh.ideal_latency({0, 0}, {1, 0}, 1000.0);
  const SimTime far = mesh.ideal_latency({0, 0}, {5, 3}, 1000.0);
  EXPECT_LT(near, far);
  // 1 hop: 2 routers + 1 us serialisation.
  EXPECT_EQ(near, SimTime::ns(20) + SimTime::us(1.0));
}

TEST(MeshModel, TransferAdvancesContention) {
  MeshTopology topo;
  MeshTimingConfig cfg;
  cfg.router_latency = SimTime::ns(0);
  cfg.link_bandwidth_bytes_per_sec = 1e6;  // 1 B/us
  MeshModel mesh(topo, cfg);
  // Two messages over the same single link back to back.
  const SimTime t1 = mesh.transfer(SimTime::zero(), {0, 0}, {1, 0}, 1000.0);
  const SimTime t2 = mesh.transfer(SimTime::zero(), {0, 0}, {1, 0}, 1000.0);
  EXPECT_EQ(t1, SimTime::ms(1));
  EXPECT_EQ(t2, SimTime::ms(2));  // queued behind the first
}

TEST(MeshModel, DisjointRoutesDoNotContend) {
  MeshTopology topo;
  MeshTimingConfig cfg;
  cfg.router_latency = SimTime::ns(0);
  cfg.link_bandwidth_bytes_per_sec = 1e6;
  MeshModel mesh(topo, cfg);
  const SimTime t1 = mesh.transfer(SimTime::zero(), {0, 0}, {1, 0}, 1000.0);
  const SimTime t2 = mesh.transfer(SimTime::zero(), {0, 2}, {1, 2}, 1000.0);
  EXPECT_EQ(t1, t2);
}

TEST(MeshModel, LocalTransferCostsOneRouter) {
  MeshTopology topo;
  MeshTimingConfig cfg;
  cfg.router_latency = SimTime::ns(5);
  MeshModel mesh(topo, cfg);
  EXPECT_EQ(mesh.transfer(SimTime::zero(), {2, 2}, {2, 2}, 1e6),
            SimTime::ns(5));
}

TEST(MeshModel, TrafficAccounting) {
  MeshTopology topo;
  MeshModel mesh(topo);
  mesh.transfer(SimTime::zero(), {0, 0}, {2, 0}, 500.0);
  const LinkId first{{0, 0}, Direction::East};
  EXPECT_EQ(mesh.traffic(first).messages, 1u);
  EXPECT_DOUBLE_EQ(mesh.traffic(first).bytes, 500.0);
  EXPECT_DOUBLE_EQ(mesh.total_bytes(), 1000.0);  // 2 links x 500 B
}

TEST(MeshModel, RejectsNegativeBytes) {
  MeshTopology topo;
  MeshModel mesh(topo);
  EXPECT_THROW(mesh.transfer(SimTime::zero(), {0, 0}, {1, 0}, -1.0),
               CheckError);
}

// -------------------------------------------------------------- MeshFabric

TEST(MeshFabric, BridgeIsTheSouthWestRouter) {
  Simulator sim;
  const MeshFabric fab(sim, MeshLayout{}, 5_ns);
  const MeshTopology topo;
  EXPECT_EQ(fab.bridge_site(), topo.tile_at(TileCoord{0, 3}));
  EXPECT_EQ(fab.transit(7, 7), SimTime::zero());
  EXPECT_EQ(fab.transit(0, 23), SimTime::ns(5 * 8));
}

TEST(MeshFabric, HopPaysHopLatencyPerManhattanHop) {
  Simulator sim;
  MeshFabric fab(sim, MeshLayout{}, 5_ns);
  const MeshTopology topo;
  std::vector<SimTime> fired;
  // Issue the hops from an event at t=1us, so they add to a non-zero now.
  sim.schedule_at(1_us, [&] {
    for (const auto& [from, to] :
         std::vector<std::pair<TileId, TileId>>{{0, 23}, {18, 5}, {9, 9}}) {
      const TileCoord a = topo.coord_of(from), b = topo.coord_of(to);
      const int hops = std::abs(a.x - b.x) + std::abs(a.y - b.y);
      const SimTime expect = 1_us + SimTime::ns(5 * hops);
      fab.hop(from, to, [&fired, &fab, expect] {
        EXPECT_EQ(fab.now(), expect);
        fired.push_back(fab.now());
      });
    }
  });
  sim.run();
  EXPECT_EQ(fired.size(), 3u);
}

TEST(MeshFabric, AfterAddsNoTransit) {
  Simulator sim;
  MeshFabric fab(sim, MeshLayout{}, 5_ns);
  SimTime at = SimTime::zero();
  sim.schedule_at(2_us, [&] { fab.after(3_ns, [&] { at = fab.now(); }); });
  sim.run();
  EXPECT_EQ(at, 2_us + 3_ns);
}

TEST(MeshFabric, PostAtRunsAtTheInstantButNeverUndercutsTransit) {
  Simulator sim;
  MeshFabric fab(sim, MeshLayout{}, 5_ns);
  SimTime at = SimTime::zero();
  // Tiles 0 and 23 are 8 hops apart: 40 ns is the earliest legal instant.
  fab.post_at(0, 23, 40_ns, [&] { at = fab.now(); });
  EXPECT_THROW(fab.post_at(0, 23, 39_ns, [] {}), CheckError);
  EXPECT_THROW(fab.post_at(23, 0, 39_ns, [] {}), CheckError);
  fab.post_at(9, 9, SimTime::zero(), [] {});  // same tile: no transit
  sim.run();
  EXPECT_EQ(at, 40_ns);
  EXPECT_EQ(sim.dispatched(), 2u);
}

}  // namespace
}  // namespace sccpipe
