#include <gtest/gtest.h>

#include <vector>

#include "sccpipe/core/channel.hpp"
#include "sccpipe/support/check.hpp"

namespace sccpipe {
namespace {

using namespace sccpipe::literals;

struct ChannelFixture : ::testing::Test {
  Simulator sim;
  SccChip chip{sim};
  RcceComm comm{chip};

  static FrameToken token(int frame, double bytes = 1024.0) {
    FrameToken t;
    t.frame = frame;
    t.strip = StripRange{0, 10};
    t.bytes = bytes;
    return t;
  }
};

// --------------------------------------------------------------- SccChannel

TEST_F(ChannelFixture, DeliversTokenWithPayloadIntact) {
  SccChannel ch(comm, 0, 2);
  FrameToken tok = token(7, 4096.0);
  tok.strip = StripRange{30, 12};
  bool sent = false;
  FrameToken got;
  ch.send(std::move(tok), [&] { sent = true; });
  ch.recv([&](FrameToken t, SimTime) { got = std::move(t); });
  sim.run();
  EXPECT_TRUE(sent);
  EXPECT_EQ(got.frame, 7);
  EXPECT_EQ(got.strip.y0, 30);
  EXPECT_EQ(got.strip.rows, 12);
  EXPECT_EQ(got.bytes, 4096.0);
  EXPECT_EQ(got.crc, frame_token_crc(got));
}

TEST_F(ChannelFixture, MatchedAtIsRendezvousInstant) {
  SccChannel ch(comm, 0, 2);
  // Sender arrives at t=0; receiver posts at 5 ms: matched at 5 ms.
  ch.send(token(0), [] {});
  SimTime matched;
  sim.schedule_at(5_ms, [&] {
    ch.recv([&](FrameToken, SimTime m) { matched = m; });
  });
  sim.run();
  EXPECT_EQ(matched, 5_ms);
}

TEST_F(ChannelFixture, MatchedAtUsesSenderTimeWhenReceiverWaits) {
  SccChannel ch(comm, 0, 2);
  SimTime matched;
  ch.recv([&](FrameToken, SimTime m) { matched = m; });
  sim.schedule_at(3_ms, [&] { ch.send(token(0), [] {}); });
  sim.run();
  EXPECT_EQ(matched, 3_ms);
}

TEST_F(ChannelFixture, TokensStayInOrder) {
  SccChannel ch(comm, 0, 2);
  std::vector<int> got;
  for (int f = 0; f < 3; ++f) {
    ch.send(token(f), [] {});
  }
  for (int f = 0; f < 3; ++f) {
    ch.recv([&](FrameToken t, SimTime) { got.push_back(t.frame); });
  }
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2}));
}

TEST_F(ChannelFixture, SendBlocksUntilReceiverConsumes) {
  SccChannel ch(comm, 0, 2);
  SimTime send_done;
  ch.send(token(0, 100000.0), [&] { send_done = sim.now(); });
  sim.run();
  EXPECT_TRUE(send_done.is_zero());  // no receiver yet: rendezvous pending
  ch.recv([](FrameToken, SimTime) {});
  sim.run();
  EXPECT_GT(send_done, SimTime::zero());
}

// A rebuilt pipeline wires a fresh credited channel between the same two
// cores. The retired channel's unmatched data send and credit receive must
// not pair with the fresh channel's traffic, or the fresh one loses a
// credit to its predecessor and stalls.
TEST_F(ChannelFixture, RetiredCreditedChannelKeepsItsCredits) {
  CreditedSccChannel old(comm, 0, 2, /*depth=*/1);
  old.send(token(0), [] {});
  old.retire();
  CreditedSccChannel fresh(comm, 0, 2, /*depth=*/1);
  int sent = 0;
  std::vector<int> got;
  for (int f = 1; f <= 3; ++f) {
    fresh.send(token(f), [&] { ++sent; });
  }
  for (int f = 1; f <= 3; ++f) {
    fresh.recv([&](FrameToken t, SimTime) { got.push_back(t.frame); });
  }
  sim.run();
  EXPECT_EQ(sent, 3);
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(fresh.max_occupancy(), 1);
}

// --------------------------------------------------------- HostToChipChannel

TEST_F(ChannelFixture, HostChannelChargesConsumerCore) {
  HostCpu host(sim);
  HostToChipChannel ch(host, chip, /*consumer=*/0, HostLinkConfig::mcpc());
  chip.allocate_core(0);
  FrameToken got;
  ch.send(token(3, 640.0 * 1024.0), [] {});
  ch.recv([&](FrameToken t, SimTime) { got = std::move(t); });
  sim.run();
  EXPECT_EQ(got.frame, 3);
  // The UDP receive burned ~120 ms of the consumer core at 533 MHz.
  EXPECT_GT(chip.core_busy_time(0), 80_ms);
  // The host paid its (much cheaper) stack cost too.
  EXPECT_GT(host.busy_time(), SimTime::zero());
  EXPECT_LT(host.busy_time(), 5_ms);
}

TEST_F(ChannelFixture, HostChannelMatchedAtIsWireArrival) {
  HostCpu host(sim);
  HostToChipChannel ch(host, chip, 0, HostLinkConfig::mcpc());
  SimTime matched, delivered;
  ch.send(token(0, 8.0e5), [] {});
  ch.recv([&](FrameToken, SimTime m) {
    matched = m;
    delivered = sim.now();
  });
  sim.run();
  // Delivery strictly after match (the consumer works the UDP stack).
  EXPECT_GT(delivered, matched);
  EXPECT_GT(matched, SimTime::zero());
}

// ------------------------------------------------------- ChipToViewerChannel

TEST_F(ChannelFixture, ViewerChannelSinksFrames) {
  std::vector<int> shown;
  SimTime last_arrival;
  ChipToViewerChannel viewer(chip, /*producer=*/1, HostLinkConfig::mcpc(),
                             [&](const FrameToken& t, SimTime at) {
                               shown.push_back(t.frame);
                               last_arrival = at;
                             });
  chip.allocate_core(1);
  viewer.send(token(0, 640.0 * 1024.0), [] {});
  sim.run();
  viewer.send(token(1, 640.0 * 1024.0), [] {});
  sim.run();
  EXPECT_EQ(shown, (std::vector<int>{0, 1}));
  EXPECT_GT(last_arrival, SimTime::zero());
  // The producer core paid the UDP send (~25 ms/frame at 533 MHz).
  EXPECT_GT(chip.core_busy_time(1), 30_ms);
}

TEST_F(ChannelFixture, ViewerChannelRecvIsForbidden) {
  ChipToViewerChannel viewer(chip, 0, HostLinkConfig::mcpc(),
                             [](const FrameToken&, SimTime) {});
  EXPECT_THROW(viewer.recv([](FrameToken, SimTime) {}), CheckError);
}

}  // namespace
}  // namespace sccpipe
