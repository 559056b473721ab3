#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sccpipe/host/host_cpu.hpp"
#include "sccpipe/host/host_link.hpp"
#include "sccpipe/support/check.hpp"

namespace sccpipe {
namespace {

using namespace sccpipe::literals;

// ------------------------------------------------------------------ HostCpu

TEST(HostCpu, ComputeDurationMatchesRate) {
  Simulator sim;
  HostCpu host(sim, HostCpuConfig{1.0e9, 50.0, 80.0});
  SimTime done;
  host.compute(5.0e8, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, SimTime::ms(500));
  EXPECT_EQ(host.busy_time(), SimTime::ms(500));
}

TEST(HostCpu, WorkSerialises) {
  Simulator sim;
  HostCpu host(sim, HostCpuConfig{1.0e9, 50.0, 80.0});
  SimTime first, second;
  host.compute(1.0e9, [&] { first = sim.now(); });
  host.compute(1.0e9, [&] { second = sim.now(); });
  sim.run();
  EXPECT_EQ(first, 1_sec);
  EXPECT_EQ(second, 2_sec);
}

TEST(HostCpu, PowerStepsBetweenIdleAndBusy) {
  Simulator sim;
  HostCpu host(sim, HostCpuConfig{1.0e9, 52.0, 80.0});
  EXPECT_DOUBLE_EQ(host.current_watts(), 52.0);
  host.compute(1.0e9, [] {});
  EXPECT_DOUBLE_EQ(host.current_watts(), 80.0);
  sim.run();
  EXPECT_DOUBLE_EQ(host.current_watts(), 52.0);
  // Energy: 80 W for 1 s.
  EXPECT_NEAR(host.power_meter().energy_joules(SimTime::zero(), 1_sec), 80.0,
              1e-9);
}

TEST(HostCpu, McpcDefaultsMatchPaper) {
  Simulator sim;
  HostCpu host(sim);
  EXPECT_DOUBLE_EQ(host.config().idle_watts, 52.0);   // §II
  EXPECT_DOUBLE_EQ(host.config().busy_watts, 80.0);   // §VI-B
}

// -------------------------------------------------------------- HostChannel

struct ChannelFixture : ::testing::Test {
  Simulator sim;
  std::unique_ptr<HostChannel> channel;
  HostChannel& make(int credits = 2) {
    HostLinkConfig c = HostLinkConfig::mcpc();
    c.credit_frames = credits;
    channel = std::make_unique<HostChannel>(sim, c);
    return *channel;
  }
};

TEST_F(ChannelFixture, PushPopDelivers) {
  HostChannel& ch = make();
  double got = 0.0;
  bool accepted = false;
  ch.push(1000.0, [&] { accepted = true; });
  ch.pop([&](double bytes) { got = bytes; });
  sim.run();
  EXPECT_TRUE(accepted);
  EXPECT_DOUBLE_EQ(got, 1000.0);
}

TEST_F(ChannelFixture, WireTimeMatchesBandwidth) {
  HostChannel& ch = make();
  SimTime arrival;
  ch.push(8.0e7, [] {});  // 1 s at 80 MB/s
  ch.pop([&](double) { arrival = sim.now(); });
  sim.run();
  EXPECT_EQ(arrival, 1_sec);
}

TEST_F(ChannelFixture, CreditsBoundProducerRunahead) {
  HostChannel& ch = make(/*credits=*/2);
  int accepted = 0;
  for (int i = 0; i < 5; ++i) {
    ch.push(100.0, [&] { ++accepted; });
  }
  sim.run();
  // Only two messages may be in flight until the consumer pops.
  EXPECT_EQ(accepted, 2);
  int popped = 0;
  for (int i = 0; i < 5; ++i) {
    ch.pop([&](double) { ++popped; });
  }
  sim.run();
  EXPECT_EQ(popped, 5);
  EXPECT_EQ(accepted, 5);
}

TEST_F(ChannelFixture, PopBeforePushWaits) {
  HostChannel& ch = make();
  bool got = false;
  ch.pop([&](double) { got = true; });
  sim.run();
  EXPECT_FALSE(got);
  ch.push(10.0, [] {});
  sim.run();
  EXPECT_TRUE(got);
}

TEST_F(ChannelFixture, FifoOrderPreserved) {
  HostChannel& ch = make(3);
  std::vector<double> got;
  for (double b : {10.0, 20.0, 30.0}) {
    ch.push(b, [] {});
  }
  for (int i = 0; i < 3; ++i) {
    ch.pop([&](double bytes) { got.push_back(bytes); });
  }
  sim.run();
  EXPECT_EQ(got, (std::vector<double>{10.0, 20.0, 30.0}));
}

// --------------------------------------------------------- endpoint costing

TEST(HostLinkCosts, DatagramSegmentation) {
  const HostLinkConfig link = HostLinkConfig::mcpc();
  EXPECT_DOUBLE_EQ(link.datagrams(0.0), 1.0);
  EXPECT_DOUBLE_EQ(link.datagrams(8192.0), 1.0);
  EXPECT_DOUBLE_EQ(link.datagrams(8193.0), 2.0);
  EXPECT_DOUBLE_EQ(link.datagrams(640.0 * 1024.0), 80.0);
}

TEST(HostLinkCosts, SccRecvIsFarDearerThanSend) {
  // The paper's asymmetry: the connect stage's UDP receive dominates its
  // budget; the transfer stage's send is ~5x cheaper.
  const HostLinkConfig link = HostLinkConfig::mcpc();
  const double frame = 640.0 * 1024.0;
  EXPECT_GT(link.scc_recv_cycles(frame), 3.0 * link.scc_send_cycles(frame));
  // ~120 ms at 533 MHz for the receive path (Fig. 11's plateau).
  EXPECT_NEAR(link.scc_recv_cycles(frame) / 533e6, 0.12, 0.03);
  // ~25 ms for the send path (Fig. 8's transfer stage).
  EXPECT_NEAR(link.scc_send_cycles(frame) / 533e6, 0.025, 0.008);
}

TEST(HostLinkCosts, ClusterStackIsCheap) {
  const double frame = 640.0 * 1024.0;
  EXPECT_LT(HostLinkConfig::cluster().scc_recv_cycles(frame), 2.0e6);
}

TEST(HostLinkCosts, ExternalClusterPathIsSlowWire) {
  EXPECT_LT(HostLinkConfig::cluster_external().wire_bandwidth_bytes_per_sec,
            0.2 * HostLinkConfig::cluster().wire_bandwidth_bytes_per_sec);
}

TEST(HostLinkConfigs, RejectBadValues) {
  Simulator sim;
  HostLinkConfig bad;
  bad.wire_bandwidth_bytes_per_sec = 0.0;
  EXPECT_THROW(HostChannel(sim, bad), CheckError);
  HostLinkConfig bad2;
  bad2.credit_frames = 0;
  EXPECT_THROW(HostChannel(sim, bad2), CheckError);
}

}  // namespace
}  // namespace sccpipe
