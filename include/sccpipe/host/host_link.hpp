#pragma once

/// \file host_link.hpp
/// The channel between the host and the chip (PCIe + UDP in the paper's
/// setup), and the outbound path from the transfer stage to the
/// visualisation client. Two cost classes matter and are kept separate:
///
///  * wire time — bytes over the physical path (shared FlowResource);
///  * endpoint CPU time — the UDP stack. On the SCC's P54C this dominates:
///    receiving a frame costs ~100 cycles/byte (the connect stage's ~120 ms
///    per 640 KB frame that flattens Fig. 11 beyond four pipelines), while
///    sending costs ~20 (the transfer stage's ~25 ms share of Fig. 8).
///    HostLinkConfig's cost helpers let the *stage* pay them as busy
///    time; a wire itself only models occupancy and flow control.
///
/// Two wires implement HostWire: the stop-and-wait HostChannel below and
/// the sliding-window ARQ in reliable_link.hpp. HostChannel's flow control
/// is bounded credits. UDP has none, but the application-level
/// producer/consumer did (the renderer idles most of the run, §VI-B);
/// credit_frames bounds how far the host may run ahead.

#include <cstdint>
#include <deque>
#include <functional>

#include "sccpipe/host/host_cpu.hpp"
#include "sccpipe/sim/fault.hpp"
#include "sccpipe/sim/resource.hpp"
#include "sccpipe/sim/simulator.hpp"
#include "sccpipe/support/status.hpp"

namespace sccpipe {

struct HostLinkConfig {
  double wire_bandwidth_bytes_per_sec = 8.0e7;  ///< PCIe/GbE effective path
  double datagram_bytes = 8192.0;               ///< UDP segmentation unit
  /// Endpoint CPU costs, in reference cycles.
  double host_cycles_per_byte = 2.0;
  double scc_send_cycles_per_byte = 20.0;
  double scc_recv_cycles_per_byte = 95.0;
  double per_datagram_cycles = 3000.0;
  int credit_frames = 2;  ///< producer may run this many messages ahead

  static HostLinkConfig mcpc() { return {}; }
  /// Cluster interconnect for the Fig. 13 runs: fat pipe, cheap stack.
  static HostLinkConfig cluster() {
    HostLinkConfig cfg;
    cfg.wire_bandwidth_bytes_per_sec = 2.0e8;
    cfg.host_cycles_per_byte = 1.0;
    cfg.scc_send_cycles_per_byte = 1.2;
    cfg.scc_recv_cycles_per_byte = 1.6;
    cfg.per_datagram_cycles = 1500.0;
    return cfg;
  }
  /// The path feeding frames from the *external* render node in the
  /// cluster's Fig. 13 configuration. Calibrated to the figure's early
  /// plateau (~50 ms/frame): the paper's UDP streaming path between nodes
  /// sustained far less than the fabric's raw bandwidth.
  static HostLinkConfig cluster_external() {
    HostLinkConfig cfg = cluster();
    cfg.wire_bandwidth_bytes_per_sec = 1.5e7;
    return cfg;
  }

  // --- endpoint CPU cost (reference cycles), whichever wire carries it ---
  double datagrams(double bytes) const;
  double host_side_cycles(double bytes) const;
  double scc_send_cycles(double bytes) const;
  double scc_recv_cycles(double bytes) const;
};

/// What the channel layer above needs from a host wire: its link costs,
/// the producer/consumer surface and one error report. Endpoint CPU time
/// is *not* charged by a wire — callers account it on their own processor
/// (through link()) so that stage busy/idle metrics stay truthful.
class HostWire {
 public:
  using PushCallback = InplaceFunction<void(), kHostPushCallbackBytes>;
  using PopCallback =
      InplaceFunction<void(double bytes), kHostPopCallbackBytes>;
  /// A message the wire gave up on (retries exhausted). \p seq is the
  /// message's place in push order, 0-based.
  using ErrorHandler = std::function<void(const Status&, std::uint64_t seq)>;

  HostWire() = default;
  HostWire(const HostWire&) = delete;
  HostWire& operator=(const HostWire&) = delete;
  virtual ~HostWire() = default;

  virtual const HostLinkConfig& link() const = 0;
  /// Producer: enqueue a message; \p on_accepted fires when the producer
  /// may prepare its next one.
  virtual void push(double bytes, PushCallback on_accepted) = 0;
  /// Consumer: take the next message (waits if none).
  virtual void pop(PopCallback on_message) = 0;

  void set_error_handler(ErrorHandler on_error);

 protected:
  /// Surface a message the wire gave up on; a wire without a handler
  /// fails loudly instead of stalling.
  void report(const Status& failure, std::uint64_t seq) const;

  ErrorHandler on_error_;
};

/// One-directional, credit-bounded stop-and-wait message channel over a
/// shared wire: each lost message is retransmitted on its own ack timer.
class HostChannel final : public HostWire {
 public:
  HostChannel(Simulator& sim, HostLinkConfig cfg = HostLinkConfig::mcpc());

  const HostLinkConfig& link() const override { return cfg_; }

  /// Attach the deterministic fault layer: each message crossing the wire
  /// may be dropped (retransmitted per \p retry, then surfaced to the
  /// error handler) or delayed. Injector must outlive the channel.
  void set_fault(FaultInjector* fault, RetryPolicy retry);

  /// Retransmissions performed after injected message losses. A message
  /// corrupted and retried N times counts one first send and N
  /// retransmissions — never N+1 fresh sends.
  std::uint64_t retransmissions() const { return retransmissions_; }

  /// \p on_accepted fires once a credit is available and the message has
  /// finished crossing the wire (the producer is then free to prepare the
  /// next frame).
  void push(double bytes, PushCallback on_accepted) override;

  /// Consuming a message returns a credit to the producer.
  void pop(PopCallback on_message) override;

 private:
  struct PendingPush {
    std::uint64_t seq;
    double bytes;
    PushCallback on_accepted;
  };

  void try_admit();
  void try_deliver();
  void transmit(std::uint64_t seq, double bytes, PushCallback on_accepted,
                int attempt);

  Simulator& sim_;
  HostLinkConfig cfg_;
  FlowResource wire_;
  int credits_;
  std::uint64_t next_seq_ = 0;
  std::deque<PendingPush> waiting_admission_;
  std::deque<double> arrived_;          // messages that crossed the wire
  std::deque<PopCallback> waiting_pop_;
  FaultInjector* fault_ = nullptr;
  RetryPolicy retry_{};
  std::uint64_t retransmissions_ = 0;
};

}  // namespace sccpipe
