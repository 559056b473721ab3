#pragma once

/// \file rcce.hpp
/// RCCE-flavoured message passing over the simulated chip. Semantics follow
/// the library the paper used (RCCE 2.0): sends and receives are blocking
/// and match pairwise on (source, destination); a transfer happens only
/// when both sides have arrived (rendezvous).
///
/// Timing of one matched transfer of B bytes — this encodes the paper's
/// central observation that, lacking local memory, "the message actually
/// has to travel first to the receiver processor's memory partition" and be
/// re-read from there (§VI-A):
///
///   sender : software overhead + per-chunk protocol cost (B / MPB chunk)
///   sender : streams B from its own DRAM partition      (source buffer)
///   mesh   : B crosses the routed grid sender -> receiver
///   recv   : software overhead
///   recv   : streams B into its own DRAM partition      (the bounce)
///
/// Both cores are held for the whole transfer, as with spin-waiting RCCE.
///
/// Fault tolerance: with a FaultInjector attached, a transfer's payload may
/// be lost crossing the mesh. The sender detects the loss when its
/// per-attempt timeout expires (spin-waiting on the ack flag), backs off in
/// simulated time, and retransmits up to RetryPolicy::max_attempts times;
/// exhaustion surfaces a typed Status to both endpoints instead of hanging
/// the rendezvous.
///
/// Completions are fixed-capacity InplaceFunctions (sim/callback.hpp). A
/// matched transfer parks its two status callbacks in a reused transfer
/// table, and its chip continuations capture only the table index, so a
/// message allocates nothing once the table has grown to the run's
/// largest number of transfers in flight.

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "sccpipe/scc/chip.hpp"
#include "sccpipe/sim/fault.hpp"
#include "sccpipe/support/status.hpp"

namespace sccpipe {

struct RcceConfig {
  /// Message-passing-buffer chunk: RCCE moves large messages through the
  /// 8 KiB per-core MPB window.
  double mpb_chunk_bytes = 8192.0;
  double send_overhead_cycles = 3000.0;  ///< per-message software cost
  double recv_overhead_cycles = 3000.0;
  double per_chunk_cycles = 800.0;       ///< flag handshake per MPB round
  /// Hypothetical Cell-style local memory banks (§VII: "small local and
  /// manageable memory banks per node would be a nice way to reduce the
  /// traffic"): when true, transfers go core-to-core over the mesh without
  /// bouncing through the receiver's DRAM partition. Used by the
  /// local-store ablation bench; the real SCC has no such banks.
  bool local_memory_banks = false;
  /// Timeout/retry/backoff discipline for lost payloads. Only consulted
  /// when a FaultInjector is attached; the default (max_attempts = 1)
  /// surfaces the first loss as an error after `retry.timeout`.
  RetryPolicy retry{};

  bool operator==(const RcceConfig&) const = default;
};

class RcceComm {
 public:
  using Callback = InplaceFunction<void(), kChannelCallbackBytes>;
  /// Fault-aware completion: receives Ok on delivery, or RetriesExhausted
  /// when the transfer gave up.
  using StatusCallback =
      InplaceFunction<void(const Status&), kRcceStatusCallbackBytes>;

  explicit RcceComm(SccChip& chip, RcceConfig cfg = {});

  RcceComm(const RcceComm&) = delete;
  RcceComm& operator=(const RcceComm&) = delete;

  SccChip& chip() { return chip_; }
  const RcceConfig& config() const { return cfg_; }

  /// Attach the deterministic fault layer (per-message drop/delay fates).
  /// Must outlive the comm object; nullptr detaches.
  void set_fault_injector(FaultInjector* fault) { fault_ = fault; }

  /// Blocking send: \p on_complete fires when the receiver has fully
  /// consumed the message (data landed in its partition). This overload
  /// has no error path: a transfer that gives up fails the run loudly
  /// (CheckError) — use the StatusCallback overload under fault injection.
  void send(CoreId from, CoreId to, double bytes, Callback on_complete);
  void send(CoreId from, CoreId to, double bytes, StatusCallback on_complete);

  /// Blocking receive matching a send from \p from.
  void recv(CoreId to, CoreId from, Callback on_complete);
  void recv(CoreId to, CoreId from, StatusCallback on_complete);

  /// Number of MPB chunk rounds for a message size.
  int chunk_count(double bytes) const;

  /// Estimated duration of a transfer on an idle system (for tests and
  /// back-of-envelope checks; does not advance any contention state).
  SimTime ideal_transfer_time(CoreId from, CoreId to, double bytes) const;

  std::uint64_t messages_delivered() const { return delivered_; }
  /// Number of retransmissions performed after injected payload losses.
  std::uint64_t retransmissions() const { return retransmissions_; }
  /// Number of transfers that surfaced an error after exhausting retries.
  std::uint64_t transfers_failed() const { return transfers_failed_; }

  /// Drop every *unmatched* pending send and recv posted on the (from, to)
  /// pair and return how many were discarded. The Supervisor uses this when
  /// it tears a failed pipeline down: the dead incarnation's rendezvous
  /// state must not pair with the healed incarnation's. Matched transfers
  /// already in flight are not affected (their completions are ignored by
  /// the caller via generation checks).
  std::size_t abandon_pair(CoreId from, CoreId to);

 private:
  struct PendingSend {
    double bytes;
    StatusCallback on_complete;
  };
  using Key = std::pair<CoreId, CoreId>;  // (from, to)
  /// A matched transfer in flight, parked in transfers_ under its index.
  struct Transfer {
    CoreId from;
    CoreId to;
    double bytes;
    int attempt;
    SimTime first_attempt_at;
    StatusCallback sender_done;
    StatusCallback receiver_done;
  };

  void start_transfer(CoreId from, CoreId to, double bytes,
                      StatusCallback sender_done,
                      StatusCallback receiver_done);
  void attempt_transfer(std::uint32_t id);
  void finish_delivery(std::uint32_t id);
  /// Shared retry-or-give-up tail for a lost or corrupted attempt. \p detect
  /// is when the sender learns of the loss (timeout expiry for a drop, NACK
  /// completion for a CRC failure); \p how labels the error message.
  void resolve_loss(std::uint32_t id, SimTime detect, const char* how);
  /// Free transfer \p id and complete both endpoints with \p status,
  /// sender first. The slot is free before either callback runs, so a
  /// callback that starts a new transfer may reuse it.
  void complete(std::uint32_t id, const Status& status);
  /// Wrap a plain Callback into a StatusCallback that fails loudly.
  static StatusCallback require_ok(Callback cb, const char* what);

  SccChip& chip_;
  RcceConfig cfg_;
  FaultInjector* fault_ = nullptr;
  std::map<Key, std::deque<PendingSend>> sends_;
  std::map<Key, std::deque<StatusCallback>> recvs_;
  std::vector<Transfer> transfers_;        ///< slot table (reused)
  std::vector<std::uint32_t> free_transfers_;
  std::uint64_t delivered_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t transfers_failed_ = 0;
};

}  // namespace sccpipe
