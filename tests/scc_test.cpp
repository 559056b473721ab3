#include <gtest/gtest.h>

#include "sccpipe/scc/chip.hpp"
#include "sccpipe/support/check.hpp"

namespace sccpipe {
namespace {

using namespace sccpipe::literals;

struct ChipFixture : ::testing::Test {
  Simulator sim;
  SccChip chip{sim};

  /// Mesh transit from the host bridge to \p core's tile: every timed
  /// primitive pays it on the way in and again on the way back.
  SimTime leg(CoreId core) {
    return chip.fabric().transit(chip.fabric().bridge_site(),
                                 chip.topology().tile_of(core));
  }
};

// --------------------------------------------------------------------- DVFS

TEST(DvfsTable, PaperOperatingPoints) {
  DvfsTable table;
  EXPECT_EQ(table.point_for(533).volts, 1.1);
  EXPECT_EQ(table.point_for(800).volts, 1.3);
  EXPECT_EQ(table.point_for(400).volts, 0.7);
  EXPECT_TRUE(table.allowed(1066));
  EXPECT_FALSE(table.allowed(600));
  EXPECT_THROW(table.point_for(600), CheckError);
}

TEST_F(ChipFixture, DefaultFrequencyIs533) {
  for (CoreId c = 0; c < chip.core_count(); ++c) {
    EXPECT_EQ(chip.operating_point(c).mhz, 533);
    EXPECT_DOUBLE_EQ(chip.frequency_hz(c), 533e6);
  }
}

TEST_F(ChipFixture, FrequencyChangeIsTileGranular) {
  // Paper §VI-D / Fig. 18: raising one core raises its whole tile.
  chip.set_core_frequency(4, 800);  // core 4 lives on tile 2 with core 5
  EXPECT_EQ(chip.operating_point(4).mhz, 800);
  EXPECT_EQ(chip.operating_point(5).mhz, 800);
  EXPECT_EQ(chip.operating_point(4).volts, 1.3);
  EXPECT_EQ(chip.operating_point(6).mhz, 533);  // next tile untouched
}

TEST_F(ChipFixture, RejectsUnsupportedFrequency) {
  EXPECT_THROW(chip.set_tile_frequency(0, 666), CheckError);
}

TEST_F(ChipFixture, EffectiveHzUsesIpcFactor) {
  EXPECT_DOUBLE_EQ(chip.effective_hz(0), 533e6);  // SCC: ipc_factor 1
  Simulator s2;
  SccChip mogon(s2, ChipConfig::mogon_node());
  EXPECT_GT(mogon.effective_hz(0), 4e9);
}

TEST_F(ChipFixture, CopyRateIsFrequencyIndependent) {
  // DRAM-latency-bound copies do not speed up with the core clock — one
  // reason the 800 MHz blur core gains less than the frequency ratio.
  const double at533 = chip.copy_rate(0);
  chip.set_core_frequency(0, 800);
  EXPECT_DOUBLE_EQ(chip.copy_rate(0), at533);
}

// -------------------------------------------------------------------- Power

TEST_F(ChipFixture, IdleChipDrawsIdlePower) {
  EXPECT_DOUBLE_EQ(chip.current_watts(),
                   chip.power_model().config().chip_idle_watts);
}

TEST_F(ChipFixture, AllocatedCoresAddDynamicPower) {
  const double idle = chip.current_watts();
  chip.allocate_core(0);
  const double one = chip.current_watts();
  // Uncore activation + one core.
  EXPECT_NEAR(one - idle,
              chip.power_model().config().uncore_active_watts +
                  chip.power_model().config().core_dynamic_watts_ref,
              1e-9);
  chip.allocate_core(1);
  EXPECT_NEAR(chip.current_watts() - one,
              chip.power_model().config().core_dynamic_watts_ref, 1e-9);
  chip.release_core(0);
  chip.release_core(1);
  EXPECT_DOUBLE_EQ(chip.current_watts(), idle);
}

TEST_F(ChipFixture, PowerGrowsLinearlyWithAllocatedCores) {
  // The paper's Fig. 14: consumption increases linearly with pipelines.
  chip.allocate_core(0);
  const double base = chip.current_watts();
  std::vector<double> deltas;
  for (CoreId c = 1; c <= 10; ++c) {
    const double before = chip.current_watts();
    chip.allocate_core(c);
    deltas.push_back(chip.current_watts() - before);
  }
  for (const double d : deltas) {
    EXPECT_NEAR(d, deltas.front(), 1e-9);
  }
  EXPECT_GT(chip.current_watts(), base);
}

TEST_F(ChipFixture, HighVoltageTileCostsExtraStaticPower) {
  chip.allocate_core(4);
  const double before = chip.current_watts();
  chip.set_core_frequency(4, 800);  // 1.3 V tile
  const double after = chip.current_watts();
  // Dynamic scaling (f * V^2) plus the per-tile static adder; the paper
  // measured ~4-5 W for the blur tile (§VI-D).
  EXPECT_GT(after - before, 2.0);
  EXPECT_LT(after - before, 6.0);
  chip.release_core(4);
}

TEST_F(ChipFixture, LowVoltageTileSavesPower) {
  chip.allocate_core(8);
  const double before = chip.current_watts();
  chip.set_core_frequency(8, 400);  // 0.7 V tile
  EXPECT_LT(chip.current_watts(), before);
}

TEST_F(ChipFixture, EnergyIntegratesOverTime) {
  chip.allocate_core(0);
  sim.schedule_at(10_sec, [&] { chip.release_core(0); });
  sim.run();
  const double joules =
      chip.power_meter().energy_joules(SimTime::zero(), 10_sec);
  const double watts = chip.power_model().config().chip_idle_watts +
                       chip.power_model().config().uncore_active_watts +
                       chip.power_model().config().core_dynamic_watts_ref;
  EXPECT_NEAR(joules, watts * 10.0, 1e-6);
}

TEST_F(ChipFixture, DoubleAllocationThrows) {
  chip.allocate_core(3);
  EXPECT_THROW(chip.allocate_core(3), CheckError);
  chip.release_core(3);
  EXPECT_THROW(chip.release_core(3), CheckError);
}

// ---------------------------------------------------------------- Execution

TEST_F(ChipFixture, ComputeDurationMatchesFrequency) {
  chip.allocate_core(0);
  SimTime done;
  chip.compute(0, 533e6, [&] { done = sim.now(); });  // 1 s at 533 MHz
  sim.run();
  // Tile 0 is three router hops from the bridge, 5 ns each, both ways.
  EXPECT_EQ(leg(0), 15_ns);
  EXPECT_EQ(done, 1_sec + leg(0) + leg(0));
}

TEST_F(ChipFixture, ComputeFasterAt800MHz) {
  chip.set_core_frequency(0, 800);
  SimTime done;
  chip.compute(0, 800e6, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, 1_sec + leg(0) + leg(0));
}

TEST_F(ChipFixture, DvfsInARunCrossesTheMeshBeforeItTakesEffect) {
  const SimTime at533 = 1_sec;
  const SimTime at800 = SimTime::sec(533e6 / 800e6);
  // Outside a run the new clock applies at once, even to work already
  // issued in the same instant.
  SimTime setup_done;
  chip.compute(0, 533e6, [&] { setup_done = sim.now(); });
  chip.set_core_frequency(0, 800);
  sim.run();
  EXPECT_EQ(setup_done, leg(0) + at800 + leg(0));

  // In a run the command crosses the mesh from the bridge first: work
  // issued in the same instant still runs at the old clock, work issued
  // one transit later at the new one. Cores 0 and 1 share tile 0.
  chip.set_core_frequency(0, 533);
  chip.fabric().set_in_run(true);
  const SimTime t0 = sim.now();
  SimTime same_instant_done, after_transit_done;
  chip.compute(0, 533e6, [&] { same_instant_done = sim.now(); });
  chip.set_core_frequency(0, 800);
  sim.schedule_at(t0 + leg(1), [&] {
    chip.compute(1, 533e6, [&] { after_transit_done = sim.now(); });
  });
  sim.run();
  chip.fabric().set_in_run(false);
  EXPECT_EQ(same_instant_done, t0 + leg(0) + at533 + leg(0));
  EXPECT_EQ(after_transit_done, t0 + leg(1) + leg(1) + at800 + leg(1));
}

TEST_F(ChipFixture, BusyTimeAccounting) {
  chip.allocate_core(0);
  chip.compute(0, 533e6, [] {});
  sim.run();
  EXPECT_EQ(chip.core_busy_time(0), 1_sec);
  EXPECT_EQ(chip.core_busy_time(1), SimTime::zero());
}

TEST_F(ChipFixture, MemoryWalkReflectsMcLoad) {
  SimTime idle_done, loaded_done;
  {
    Simulator s;
    SccChip c2(s);
    c2.memory_walk(0, 10000.0, [&] { idle_done = s.now(); });
    s.run();
  }
  // Competing walker on the same controller (registered while we measure).
  chip.memory().register_latency_stream(1);
  chip.memory_walk(0, 10000.0, [&] { loaded_done = sim.now(); });
  sim.run();
  chip.memory().unregister_latency_stream(1);
  EXPECT_GT(loaded_done, idle_done);
}

TEST_F(ChipFixture, DramStreamTakesBytesOverCopyRate) {
  SimTime done;
  const double bytes = 1.0e6;
  chip.dram_stream(0, bytes, [&] { done = sim.now(); });
  sim.run();
  const double expect_sec = bytes / chip.copy_rate(0);
  EXPECT_NEAR(done.to_sec(), expect_sec, 0.001 * expect_sec + 1e-6);
}

TEST(ChipConfigs, MogonNodeIsFasterAndFlatter) {
  Simulator sim;
  SccChip mogon(sim, ChipConfig::mogon_node());
  EXPECT_EQ(mogon.core_count(), 64);
  EXPECT_GT(mogon.effective_hz(0), 8.0 * 533e6);
  // Memory latency far below the SCC's.
  EXPECT_LT(mogon.memory().config().base_line_latency, SimTime::ns(30));
}

}  // namespace
}  // namespace sccpipe
