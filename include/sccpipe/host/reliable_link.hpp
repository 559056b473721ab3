#pragma once

/// \file reliable_link.hpp
/// Sliding-window ARQ over the lossy host datagram link. The paper streams
/// frames MCPC -> SCC over plain UDP; PR 1 modelled the losses and a
/// stop-and-wait retry. This transport makes the link a real data plane:
///
///  * sequence numbers with a bounded send window (cfg.window unacked
///    messages in flight), so the wire is kept busy across the
///    bandwidth-delay product instead of idling between acks;
///  * cumulative + selective acknowledgements; a message covered by either
///    is settled and never retransmitted (SACK prevents go-back-N storms);
///  * retransmit timers driven by an RFC 6298-style RTT estimator
///    (srtt + 4 * rttvar; only never-retransmitted messages are sampled —
///    Karn's algorithm), with capped exponential backoff and an attempt
///    budget from the shared RetryPolicy; three duplicate indications
///    trigger one fast retransmit ahead of the timer;
///  * receiver-side duplicate suppression and in-order delivery through a
///    bounded reassembly buffer, so the consumer above sees each admitted
///    message exactly once, in push order;
///  * credit-based flow control: the sender may hold at most
///    cfg.queue_depth messages un-consumed at the receiver. Credits return
///    as real (simulated) control traffic; a producer that outruns the
///    consumer stalls on credit, visibly (credit_stalls()).
///
/// Loss model split: every *data* datagram consults the fault oracle
/// (drop/corrupt/delay/reorder/duplicate/burst). *Control* datagrams
/// (ACKs, credit grants, skips) pay wire occupancy but are not subject to
/// the loss oracle: their state is cumulative, so the loss of any one is
/// repaired by the next — modelling that repair explicitly would add RNG
/// draws and timers without changing any behaviour under study, and a lost
/// final credit grant could deadlock the model where a real stack would
/// window-probe.
///
/// A message whose retries exhaust is *abandoned*: the error handler gets a
/// typed Status plus the sequence number, and a skip notice tells the
/// receiver to advance past the hole so later messages still deliver in
/// order. The overload layer (src/core) sheds the frame and trips its
/// circuit breaker; without that layer an abandon is a run failure, exactly
/// like the stop-and-wait transport's retry exhaustion.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>

#include "sccpipe/host/host_link.hpp"
#include "sccpipe/sim/fault.hpp"
#include "sccpipe/sim/resource.hpp"
#include "sccpipe/sim/simulator.hpp"
#include "sccpipe/support/status.hpp"

namespace sccpipe {

struct ReliableLinkConfig {
  HostLinkConfig link;  ///< wire + endpoint costs (credit_frames unused)
  int window = 8;       ///< max unacked data messages in flight
  int queue_depth = 8;  ///< receiver buffer bound == credit pool
  double control_bytes = 64.0;  ///< ACK / credit-grant / skip datagram size
  /// timeout doubles as the pre-sample initial RTO; backoff is the RTO
  /// floor once the estimator has samples; max_backoff caps the
  /// exponential timer growth; max_attempts bounds retransmissions.
  RetryPolicy retry;
};

/// One-directional reliable message channel over a shared lossy wire.
/// Mirrors HostChannel's push/pop surface so the channel layer above can
/// swap transports; endpoint CPU costs are likewise *not* charged here.
class ReliableHostChannel {
 public:
  using PushCallback = InplaceFunction<void(), kHostPushCallbackBytes>;
  using PopCallback =
      InplaceFunction<void(double bytes), kHostPopCallbackBytes>;
  /// Abandoned message: retries exhausted (or per-transfer deadline hit).
  /// seq identifies the message in push order, 0-based.
  using ErrorHandler = std::function<void(const Status&, std::uint64_t seq)>;

  ReliableHostChannel(Simulator& sim, ReliableLinkConfig cfg);

  ReliableHostChannel(const ReliableHostChannel&) = delete;
  ReliableHostChannel& operator=(const ReliableHostChannel&) = delete;

  const ReliableLinkConfig& config() const { return cfg_; }

  /// Attach the fault oracle consulted per data datagram (may be nullptr).
  void set_fault(FaultInjector* fault) { fault_ = fault; }
  void set_error_handler(ErrorHandler on_error);

  /// Producer: enqueue a message. \p on_accepted fires when the message is
  /// admitted into the send window (window slot + receiver credit
  /// reserved, first transmission under way) — the producer may then
  /// prepare its next message, up to the window/credit bound ahead.
  void push(double bytes, PushCallback on_accepted);

  /// Consumer: take the next in-order message (waits if none). Consuming
  /// frees a receiver-buffer slot; the credit returns to the sender as a
  /// control datagram on the wire.
  void pop(PopCallback on_message);

  // --- endpoint CPU cost helpers (reference cycles), as HostChannel ------
  double datagrams(double bytes) const;
  double host_side_cycles(double bytes) const;
  double scc_send_cycles(double bytes) const;
  double scc_recv_cycles(double bytes) const;

  // --- observability ------------------------------------------------------
  std::uint64_t first_sends() const { return first_sends_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t dup_suppressed() const { return dup_suppressed_; }
  std::uint64_t acks_sent() const { return acks_sent_; }
  std::uint64_t credit_grants() const { return credit_grants_; }
  std::uint64_t abandoned() const { return abandoned_; }
  /// Times the sender wanted to transmit but held no receiver credit.
  std::uint64_t credit_stalls() const { return credit_stalls_; }
  SimTime credit_stall_time() const { return credit_stall_time_; }
  /// Peak receiver-buffer occupancy (in-order + reassembly), in messages;
  /// never exceeds cfg.queue_depth by construction.
  int max_receiver_occupancy() const { return max_occupancy_; }
  /// Smoothed RTT estimate (zero before the first sample).
  SimTime smoothed_rtt() const;

 private:
  struct PendingPush {
    double bytes;
    PushCallback on_accepted;
  };
  struct InFlight {
    double bytes = 0.0;
    int attempt = 0;           ///< transmissions performed so far
    SimTime first_tx{};        ///< for the per-transfer deadline
    SimTime last_tx{};         ///< RTT sample anchor
    bool retransmitted = false;  ///< Karn: never sample a retransmitted msg
    bool fast_retx_done = false;
    int dup_indications = 0;
    EventHandle timer{};
  };

  int credit_available() const;
  void pump();
  void transmit(std::uint64_t seq, int attempt);
  void on_timeout(std::uint64_t seq);
  void abandon(std::uint64_t seq, StatusCode code);
  SimTime base_rto() const;
  void settle(std::uint64_t seq, SimTime now);

  // Receiver side (same object: the channel models both endpoints).
  void deliver_data(std::uint64_t seq, double bytes);
  void drain();
  void try_deliver();
  void send_control(bool is_grant);
  void on_control(std::uint64_t cum_next, std::uint64_t consumed,
                  const std::set<std::uint64_t>& sacks);
  void note_occupancy();

  Simulator& sim_;
  ReliableLinkConfig cfg_;
  FlowResource wire_;
  FaultInjector* fault_ = nullptr;
  ErrorHandler on_error_;

  // --- sender state -------------------------------------------------------
  std::uint64_t next_seq_ = 0;
  std::uint64_t admitted_ = 0;  ///< messages granted a window+credit slot
  std::uint64_t granted_ = 0;   ///< receiver slots known freed (cumulative)
  std::deque<PendingPush> queue_;
  std::map<std::uint64_t, InFlight> flight_;
  bool stalled_ = false;
  SimTime stall_since_{};
  double srtt_sec_ = 0.0;
  double rttvar_sec_ = 0.0;
  bool has_rtt_ = false;

  // --- receiver state -----------------------------------------------------
  std::uint64_t next_expected_ = 0;
  std::uint64_t consumed_total_ = 0;  ///< pops + skips: slots freed, ever
  std::map<std::uint64_t, double> reassembly_;  ///< out-of-order arrivals
  std::set<std::uint64_t> skipped_;             ///< abandoned holes
  std::deque<double> arrived_;                  ///< in-order, awaiting pop
  std::deque<PopCallback> waiting_pop_;

  // --- stats --------------------------------------------------------------
  std::uint64_t first_sends_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t dup_suppressed_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t credit_grants_ = 0;
  std::uint64_t abandoned_ = 0;
  std::uint64_t credit_stalls_ = 0;
  SimTime credit_stall_time_{};
  int max_occupancy_ = 0;
};

}  // namespace sccpipe
