#pragma once

/// \file channel.hpp
/// Frame-token channels between pipeline stages. A channel hides which
/// transport carries the strip — RCCE rendezvous between two SCC cores, the
/// UDP path from the MCPC into the chip, or the outbound path to the
/// visualisation client — while exposing the one timing fact the metrics
/// need: when the rendezvous *matched* (Fig. 15 measures the time a stage
/// wastes waiting for its next input tile, not the transfer work itself).

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sccpipe/filters/image.hpp"
#include "sccpipe/host/host_cpu.hpp"
#include "sccpipe/host/host_link.hpp"
#include "sccpipe/rcce/rcce.hpp"

namespace sccpipe {

/// One strip (or whole frame) travelling between stages. Tokens carry no
/// pixels: a functional run composes the frames the viewer received after
/// its event loop drains (run_walkthrough), so timed and functional runs
/// move the same tokens.
struct FrameToken {
  int frame = 0;
  StripRange strip{};
  double bytes = 0.0;
  /// End-to-end CRC-32 over the header (frame, strip, bytes), stamped by
  /// Channel::send and verified at delivery. Transport-level
  /// corruption (MessageFate::Corrupt) is caught *below* this layer by the
  /// transports' own CRC check and retried, so a token that reaches a
  /// consumer with a bad checksum is a simulator bug, not a modelled fault.
  std::uint32_t crc = 0;
};

/// The checksum Channel implementations stamp into FrameToken::crc.
std::uint32_t frame_token_crc(const FrameToken& token);

class Channel {
 public:
  /// Per-message completions are fixed-capacity InplaceFunctions (a
  /// capture past kChannelCallbackBytes is a compile error), so sending and
  /// receiving a token allocates nothing.
  using SendDone = InplaceFunction<void(), kChannelCallbackBytes>;
  /// matched_at: instant the rendezvous matched / the message was available
  /// at the consumer's door — the end of the consumer's *waiting* time.
  using RecvDone = InplaceFunction<void(FrameToken, SimTime matched_at),
                                   kChannelCallbackBytes>;
  using ErrorHandler = std::function<void(const Status&)>;

  virtual ~Channel() = default;
  virtual void send(FrameToken token, SendDone on_sent) = 0;
  virtual void recv(RecvDone on_token) = 0;

  /// Route transport failures (retry exhaustion under fault injection) to
  /// \p handler instead of aborting the run. A failed token's SendDone /
  /// RecvDone callbacks never fire; the owner is expected to stop pumping.
  void set_error_handler(ErrorHandler handler) {
    on_error_ = std::move(handler);
  }

  /// The owner dropped this channel (its pipeline was rebuilt or written
  /// off): its late transport errors are ignored, and an RCCE channel also
  /// discards its unmatched rendezvous and posts no further traffic, so
  /// nothing of it pairs with a channel rebuilt on the same cores.
  virtual void retire() { on_error_ = [](const Status&) {}; }

 protected:
  /// Report a transport failure; fails the run loudly when no handler is
  /// installed (an un-handled fault must not dissolve into a silent stall).
  void fail(const Status& status);

  ErrorHandler on_error_;
};

/// RCCE rendezvous between two SCC cores. Blocking both ways; the transfer
/// bounces through the receiver's DRAM partition (see rcce.hpp).
class SccChannel final : public Channel {
 public:
  SccChannel(RcceComm& comm, CoreId from, CoreId to);

  void send(FrameToken token, SendDone on_sent) override;
  void recv(RecvDone on_token) override;
  void retire() override;

 private:
  RcceComm& comm_;
  CoreId from_;
  CoreId to_;
  std::deque<FrameToken> tokens_;       // send order == delivery order
  std::deque<SimTime> send_posted_;
  std::deque<SimTime> recv_posted_;
};

/// Host -> SCC path (MCPC renderer feeding the connect stage), or an
/// external cluster node feeding a cluster pipeline, over either host wire.
/// The host pays its stack cost before the push; the consumer core pays the
/// UDP receive cost before the token is handed over. Tokens leave lowest
/// push sequence first: the ARQ delivers in order with abandoned holes
/// already erased, and the stop-and-wait wire pairs by position.
class HostToChipChannel final : public Channel {
 public:
  using AbandonHandler =
      std::function<void(const FrameToken&, const Status&)>;

  HostToChipChannel(HostCpu& host, SccChip& chip, CoreId consumer_core,
                    std::unique_ptr<HostWire> wire);

  void send(FrameToken token, SendDone on_sent) override;  // host side
  void recv(RecvDone on_token) override;                   // chip side

  /// Hand each message the wire gives up on, with its token, to \p handler
  /// (the overload layer sheds and ledgers the frame). Without one a wire
  /// error fails the channel. Only an in-order wire (the ARQ) may carry a
  /// handler: on the stop-and-wait wire a delayed message can be overtaken,
  /// and its token then leaves with the overtaking message.
  void set_abandon_handler(AbandonHandler handler) {
    on_abandon_ = std::move(handler);
  }

 private:
  HostCpu& host_;
  SccChip& chip_;
  CoreId consumer_;
  std::unique_ptr<HostWire> wire_;
  std::map<std::uint64_t, FrameToken> tokens_;  ///< push seq -> undelivered
  std::uint64_t push_seq_ = 0;
  AbandonHandler on_abandon_;
};

/// RCCE channel with a bounded run-ahead queue and credit-based flow
/// control (the BDDT-SCC bounded-queue model): send() completes as soon as
/// a credit is held, decoupling the producer from the consumer by at most
/// `depth` in-flight tokens, and every delivered token returns its credit
/// to the producer as a real RCCE message on the mesh — backpressure is
/// traffic, not a free global variable, exactly the discipline the SCC's
/// no-coherence constraint forces.
class CreditedSccChannel final : public Channel {
 public:
  CreditedSccChannel(RcceComm& comm, CoreId from, CoreId to, int depth,
                     double credit_bytes = 64.0);

  void send(FrameToken token, SendDone on_sent) override;
  void recv(RecvDone on_token) override;
  void retire() override;

  std::uint64_t credit_stalls() const { return credit_stalls_; }
  SimTime credit_stall_time() const { return credit_stall_time_; }
  /// Peak sent-but-undelivered tokens; never exceeds depth.
  int max_occupancy() const { return max_occupancy_; }
  std::uint64_t credit_messages() const { return credit_messages_; }

 private:
  void admit(FrameToken token, SendDone on_sent);
  void on_credit();

  RcceComm& comm_;
  CoreId from_;
  CoreId to_;
  int depth_;
  double credit_bytes_;
  SccChannel data_;
  int credits_;
  int outstanding_ = 0;  ///< sent - delivered
  std::deque<std::pair<FrameToken, SendDone>> waiting_;
  /// Consumer callbacks of posted data receives, parked by index so the
  /// data channel's callback captures only the index.
  std::vector<RecvDone> recv_done_;
  std::vector<std::uint32_t> free_recv_done_;
  bool stalled_ = false;
  bool retired_ = false;
  SimTime stall_since_{};
  std::uint64_t credit_stalls_ = 0;
  SimTime credit_stall_time_{};
  int max_occupancy_ = 0;
  std::uint64_t credit_messages_ = 0;
};

/// SCC -> visualisation client. The producer core pays the UDP send cost;
/// the viewer consumes instantly. The sink callback observes each frame's
/// arrival (completion times of the walkthrough).
class ChipToViewerChannel final : public Channel {
 public:
  using FrameSink = std::function<void(const FrameToken&, SimTime arrived)>;

  ChipToViewerChannel(SccChip& chip, CoreId producer_core,
                      HostLinkConfig link_cfg, FrameSink sink);

  void send(FrameToken token, SendDone on_sent) override;
  /// The viewer is a sink; recv() is not part of its contract.
  void recv(RecvDone on_token) override;

  /// Attach the fault layer to the underlying wire: losses retransmit per
  /// \p retry, exhaustion reaches the channel's error handler.
  void set_fault(FaultInjector* fault, RetryPolicy retry) {
    wire_.set_fault(fault, retry);
  }
  std::uint64_t wire_retransmissions() const {
    return wire_.retransmissions();
  }

 private:
  SccChip& chip_;
  CoreId producer_;
  HostChannel wire_;
  FrameSink sink_;
};

}  // namespace sccpipe
