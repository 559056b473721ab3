#include <gtest/gtest.h>

#include <vector>

#include "sccpipe/rcce/rcce.hpp"
#include "sccpipe/support/check.hpp"

namespace sccpipe {
namespace {

using namespace sccpipe::literals;

struct RcceFixture : ::testing::Test {
  Simulator sim;
  SccChip chip{sim};
  RcceComm comm{chip};
};

TEST_F(RcceFixture, SendThenRecvDelivers) {
  bool sent = false, received = false;
  comm.send(0, 2, 1024.0, [&] { sent = true; });
  EXPECT_FALSE(sent);  // rendezvous: blocked until the receiver arrives
  comm.recv(2, 0, [&] { received = true; });
  sim.run();
  EXPECT_TRUE(sent);
  EXPECT_TRUE(received);
  EXPECT_EQ(comm.messages_delivered(), 1u);
}

TEST_F(RcceFixture, RecvThenSendDelivers) {
  bool received = false;
  comm.recv(5, 1, [&] { received = true; });
  sim.run();
  EXPECT_FALSE(received);  // no matching send yet
  comm.send(1, 5, 64.0, [] {});
  sim.run();
  EXPECT_TRUE(received);
}

TEST_F(RcceFixture, MessagesMatchPairwiseFifo) {
  std::vector<int> order;
  comm.send(0, 2, 100.0, [&] { order.push_back(1); });
  comm.send(0, 2, 100.0, [&] { order.push_back(2); });
  comm.recv(2, 0, [&] { order.push_back(10); });
  comm.recv(2, 0, [&] { order.push_back(20); });
  sim.run();
  ASSERT_EQ(order.size(), 4u);
  // First message completes fully (sender then receiver) before the second.
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 10);
  EXPECT_EQ(order[2], 2);
  EXPECT_EQ(order[3], 20);
}

TEST_F(RcceFixture, DistinctPairsDoNotCrossMatch) {
  bool wrong = false, right = false;
  comm.recv(3, 1, [&] { right = true; });
  comm.send(0, 3, 10.0, [&] { wrong = true; });  // from 0, not 1
  sim.run();
  EXPECT_FALSE(right);
  EXPECT_FALSE(wrong);
  comm.recv(3, 0, [] {});
  sim.run();
  EXPECT_TRUE(wrong);  // now the (0,3) pair matches
}

TEST_F(RcceFixture, TransferTimeGrowsWithSize) {
  SimTime t_small, t_big;
  comm.send(0, 2, 1024.0, [] {});
  comm.recv(2, 0, [&] { t_small = sim.now(); });
  sim.run();
  const SimTime base = sim.now();
  comm.send(0, 2, 640.0 * 1024.0, [] {});
  comm.recv(2, 0, [&] { t_big = sim.now(); });
  sim.run();
  EXPECT_GT((t_big - base).to_ms(), 5.0 * t_small.to_ms());
}

TEST_F(RcceFixture, TransferBouncesThroughBothDramPartitions) {
  // The central SCC cost: sender reads from its partition, receiver writes
  // to its own. Both controllers see the payload.
  const McId sender_mc = chip.topology().home_mc(0);
  const CoreId far_core = 2 * chip.topology().tile_at({5, 2});
  const McId recv_mc = chip.topology().home_mc(far_core);
  ASSERT_NE(sender_mc, recv_mc);
  comm.send(0, far_core, 50000.0, [] {});
  comm.recv(far_core, 0, [] {});
  sim.run();
  EXPECT_GE(chip.memory().stats(sender_mc).bulk_bytes, 50000.0);
  EXPECT_GE(chip.memory().stats(recv_mc).bulk_bytes, 50000.0);
}

TEST_F(RcceFixture, ChunkCount) {
  EXPECT_EQ(comm.chunk_count(0.0), 1);
  EXPECT_EQ(comm.chunk_count(8192.0), 1);
  EXPECT_EQ(comm.chunk_count(8193.0), 2);
  EXPECT_EQ(comm.chunk_count(640.0 * 1024.0), 80);
}

TEST_F(RcceFixture, IdealTransferTimeIsPlausible) {
  // A 91 KB strip hand-off on an idle chip: around a millisecond or two
  // (two 133 MB/s partition copies dominate).
  const SimTime t = comm.ideal_transfer_time(0, 2, 91.0 * 1024.0);
  EXPECT_GT(t, SimTime::ms(0.8));
  EXPECT_LT(t, SimTime::ms(4.0));
}

TEST_F(RcceFixture, SelfSendRejected) {
  EXPECT_THROW(comm.send(3, 3, 10.0, [] {}), CheckError);
}

TEST_F(RcceFixture, InvalidCoreRejected) {
  EXPECT_THROW(comm.send(0, 99, 10.0, [] {}), CheckError);
  EXPECT_THROW(comm.recv(-1, 0, [] {}), CheckError);
}

TEST_F(RcceFixture, ConcurrentTransfersContendOnSharedMc) {
  // Two transfers whose endpoints share memory controllers take longer
  // than the same transfers run back-to-back in isolation would suggest.
  SimTime solo_done;
  {
    Simulator s2;
    SccChip c2(s2);
    RcceComm comm2(c2);
    comm2.send(0, 2, 200000.0, [] {});
    comm2.recv(2, 0, [&] { solo_done = s2.now(); });
    s2.run();
  }
  SimTime a_done, b_done;
  comm.send(0, 2, 200000.0, [] {});
  comm.recv(2, 0, [&] { a_done = sim.now(); });
  comm.send(1, 3, 200000.0, [] {});
  comm.recv(3, 1, [&] { b_done = sim.now(); });
  sim.run();
  EXPECT_GT(max(a_done, b_done), solo_done);
}

}  // namespace
}  // namespace sccpipe
