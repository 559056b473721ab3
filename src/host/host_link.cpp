#include "sccpipe/host/host_link.hpp"

#include <cmath>
#include <sstream>
#include <utility>

#include "sccpipe/support/check.hpp"

namespace sccpipe {

double HostLinkConfig::datagrams(double bytes) const {
  if (bytes <= 0.0) return 1.0;
  return std::ceil(bytes / datagram_bytes);
}

double HostLinkConfig::host_side_cycles(double bytes) const {
  return host_cycles_per_byte * bytes;
}

double HostLinkConfig::scc_send_cycles(double bytes) const {
  return scc_send_cycles_per_byte * bytes +
         per_datagram_cycles * datagrams(bytes);
}

double HostLinkConfig::scc_recv_cycles(double bytes) const {
  return scc_recv_cycles_per_byte * bytes +
         per_datagram_cycles * datagrams(bytes);
}

void HostWire::set_error_handler(ErrorHandler on_error) {
  SCCPIPE_CHECK(on_error != nullptr);
  on_error_ = std::move(on_error);
}

void HostWire::report(const Status& failure, std::uint64_t seq) const {
  SCCPIPE_CHECK_MSG(on_error_ != nullptr,
                    "host-link fault without an error handler: "
                        << failure.to_string());
  on_error_(failure, seq);
}

HostChannel::HostChannel(Simulator& sim, HostLinkConfig cfg)
    : sim_(sim), cfg_(cfg), wire_("host-wire"), credits_(cfg.credit_frames) {
  SCCPIPE_CHECK(cfg_.wire_bandwidth_bytes_per_sec > 0.0);
  SCCPIPE_CHECK(cfg_.datagram_bytes > 0.0);
  SCCPIPE_CHECK(cfg_.credit_frames > 0);
}

void HostChannel::set_fault(FaultInjector* fault, RetryPolicy retry) {
  fault_ = fault;
  retry_ = retry;
}

void HostChannel::push(double bytes, PushCallback on_accepted) {
  SCCPIPE_CHECK(bytes >= 0.0);
  SCCPIPE_CHECK(on_accepted != nullptr);
  waiting_admission_.push_back(
      PendingPush{next_seq_++, bytes, std::move(on_accepted)});
  try_admit();
}

void HostChannel::try_admit() {
  while (credits_ > 0 && !waiting_admission_.empty()) {
    --credits_;
    PendingPush p = std::move(waiting_admission_.front());
    waiting_admission_.pop_front();
    transmit(p.seq, p.bytes, std::move(p.on_accepted), 1);
  }
}

/// One wire crossing of an admitted message. With a fault layer attached
/// the datagram may be lost: the sender's application-level ack timer
/// (retry_.timeout) detects it and retransmits after the backoff, up to
/// the attempt budget; exhaustion reports message \p seq to the error
/// handler (the consumed credit stays lost, as the consumer will never pop
/// this message).
void HostChannel::transmit(std::uint64_t seq, double bytes,
                           PushCallback on_accepted, int attempt) {
  const SimTime wire_time =
      SimTime::sec(bytes / cfg_.wire_bandwidth_bytes_per_sec);
  const SimTime done = wire_.acquire(sim_.now(), wire_time);
  // Stop-and-wait holds one copy per message: reorder displacement is
  // plain extra delay here and a duplicate copy is ignored.
  DatagramFate fate;
  if (fault_ != nullptr) fate = fault_->host_datagram_fate(sim_.now());
  if (fate.fate == MessageFate::Deliver) {
    sim_.schedule_at(done + fate.extra_delay,
                     [this, bytes, cb = std::move(on_accepted)]() mutable {
                       arrived_.push_back(bytes);
                       cb();  // producer may prepare the next frame
                       try_deliver();
                     });
    return;
  }
  // Drop: the application-level ack timer expires. Corrupt: the datagram
  // crossed the wire but fails the endpoint CRC check, so the NACK returns
  // at delivery time — detection is faster, but the wire occupancy was
  // paid. Both resolve into the same retransmit-or-surface tail.
  const SimTime detect = fate.fate == MessageFate::Corrupt
                             ? done + fate.extra_delay
                             : max(done, sim_.now() + retry_.timeout);
  if (attempt < retry_.max_attempts) {
    sim_.schedule_at(detect + retry_.backoff_after(attempt),
                     [this, seq, bytes, attempt,
                      cb = std::move(on_accepted)]() mutable {
                       ++retransmissions_;
                       transmit(seq, bytes, std::move(cb), attempt + 1);
                     });
    return;
  }
  std::ostringstream oss;
  oss << "host-link message #" << seq << " (" << bytes << " B) "
      << (fate.fate == MessageFate::Corrupt ? "corrupted" : "lost")
      << " after " << attempt << " attempt(s)";
  Status failure{StatusCode::RetriesExhausted, oss.str()};
  sim_.schedule_at(detect, [this, seq, failure = std::move(failure)] {
    report(failure, seq);
  });
}

void HostChannel::pop(PopCallback on_message) {
  SCCPIPE_CHECK(on_message != nullptr);
  waiting_pop_.push_back(std::move(on_message));
  try_deliver();
}

void HostChannel::try_deliver() {
  while (!arrived_.empty() && !waiting_pop_.empty()) {
    const double bytes = arrived_.front();
    arrived_.pop_front();
    PopCallback cb = std::move(waiting_pop_.front());
    waiting_pop_.pop_front();
    ++credits_;
    try_admit();
    cb(bytes);
  }
}

}  // namespace sccpipe
