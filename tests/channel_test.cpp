#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sccpipe/core/channel.hpp"
#include "sccpipe/host/reliable_link.hpp"
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
  HostToChipChannel ch(host, chip, /*consumer=*/0,
                       std::make_unique<HostChannel>(sim));
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
  HostToChipChannel ch(host, chip, 0, std::make_unique<HostChannel>(sim));
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

/// A fault layer for the host wire alone (the chip's own components are
/// never attached to it).
FaultInjector host_faults(const std::string& plan_text, std::uint64_t seed) {
  FaultPlan plan;
  const Status st = plan.parse(plan_text);
  EXPECT_TRUE(st.ok()) << st.to_string();
  plan.seed = seed;
  return FaultInjector(plan, 96, 24, 4);
}

TEST_F(ChannelFixture, HostChannelOvertakenMessageStillPairsTokensInOrder) {
  // Every host datagram is delayed by up to 50 ms; under seed 5 the first
  // one is held back far longer than the second, so message 1 crosses the
  // wire first. The stop-and-wait wire pairs tokens by position: the
  // tokens still leave in send order, each one intact.
  FaultInjector fault = host_faults("host-delay=1:50ms", 5);
  HostCpu host(sim);
  auto wire = std::make_unique<HostChannel>(sim);
  wire->set_fault(&fault, RetryPolicy{});
  HostToChipChannel ch(host, chip, 0, std::move(wire));
  chip.allocate_core(0);
  std::vector<int> got;
  ch.send(token(0), [] {});
  ch.send(token(1), [] {});
  for (int i = 0; i < 2; ++i) {
    ch.recv([&](FrameToken t, SimTime) { got.push_back(t.frame); });
  }
  sim.run();
  ASSERT_EQ(fault.trace().size(), 2u);
  EXPECT_GT(fault.trace()[0].extra, fault.trace()[1].extra + 1_ms)
      << "seed no longer makes message 1 overtake message 0";
  EXPECT_EQ(got, (std::vector<int>{0, 1}));
}

TEST_F(ChannelFixture, ArqAbandonHandsTheTokenOverAndTheNextOneDelivers) {
  // Seed 4 under a 60 % drop rate loses both attempts of message 0 and
  // delivers message 1 on its first.
  FaultInjector fault = host_faults("host-drop=0.6", 4);
  HostCpu host(sim);
  ReliableLinkConfig rl;
  rl.window = 1;
  rl.retry.max_attempts = 2;
  rl.retry.timeout = 5_ms;
  auto wire = std::make_unique<ReliableHostChannel>(sim, rl);
  wire->set_fault(&fault);
  HostToChipChannel ch(host, chip, 0, std::move(wire));
  chip.allocate_core(0);
  std::vector<int> abandoned;
  std::vector<StatusCode> codes;
  ch.set_abandon_handler([&](const FrameToken& t, const Status& s) {
    abandoned.push_back(t.frame);
    codes.push_back(s.code());
  });
  ch.set_error_handler([](const Status& s) {
    ADD_FAILURE() << "abandon reached the error handler: " << s.to_string();
  });
  std::vector<int> got;
  ch.send(token(0), [] {});
  ch.send(token(1), [] {});
  ch.recv([&](FrameToken t, SimTime) { got.push_back(t.frame); });
  sim.run();
  ASSERT_EQ(fault.trace().size(), 2u)
      << "seed no longer drops exactly message 0's two attempts";
  EXPECT_EQ(abandoned, (std::vector<int>{0}));
  EXPECT_EQ(codes, (std::vector<StatusCode>{StatusCode::RetriesExhausted}));
  EXPECT_EQ(got, (std::vector<int>{1}));
}

TEST_F(ChannelFixture, WireErrorWithoutAbandonHandlerFailsTheChannel) {
  // Every datagram is lost and no retry is allowed. With no abandon
  // handler either wire's give-up reaches the channel's error handler, and
  // the lost token is never delivered.
  FaultInjector fault = host_faults("host-drop=1", 1);
  for (const bool arq : {false, true}) {
    Simulator s;
    SccChip c{s};
    HostCpu host(s);
    std::unique_ptr<HostWire> wire;
    if (arq) {
      auto w = std::make_unique<ReliableHostChannel>(s, ReliableLinkConfig{});
      w->set_fault(&fault);
      wire = std::move(w);
    } else {
      auto w = std::make_unique<HostChannel>(s);
      w->set_fault(&fault, RetryPolicy{});
      wire = std::move(w);
    }
    HostToChipChannel ch(host, c, 0, std::move(wire));
    c.allocate_core(0);
    std::vector<StatusCode> errors;
    ch.set_error_handler([&](const Status& st) { errors.push_back(st.code()); });
    bool delivered = false;
    ch.send(token(0), [] {});
    ch.recv([&](FrameToken, SimTime) { delivered = true; });
    s.run();
    EXPECT_EQ(errors, (std::vector<StatusCode>{StatusCode::RetriesExhausted}))
        << (arq ? "ARQ wire" : "stop-and-wait wire");
    EXPECT_FALSE(delivered);
  }
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
