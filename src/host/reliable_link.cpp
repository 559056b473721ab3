#include "sccpipe/host/reliable_link.hpp"

#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

#include "sccpipe/support/check.hpp"

namespace sccpipe {

ReliableHostChannel::ReliableHostChannel(Simulator& sim,
                                         ReliableLinkConfig cfg)
    : sim_(sim), cfg_(cfg), wire_("host-arq-wire") {
  SCCPIPE_CHECK(cfg_.link.wire_bandwidth_bytes_per_sec > 0.0);
  SCCPIPE_CHECK(cfg_.link.datagram_bytes > 0.0);
  SCCPIPE_CHECK(cfg_.control_bytes > 0.0);
  SCCPIPE_CHECK(cfg_.window >= 1);
  SCCPIPE_CHECK(cfg_.queue_depth >= 1);
  SCCPIPE_CHECK(cfg_.retry.max_attempts >= 1);
}

SimTime ReliableHostChannel::smoothed_rtt() const {
  return has_rtt_ ? SimTime::sec(srtt_sec_) : SimTime::zero();
}

void ReliableHostChannel::push(double bytes, PushCallback on_accepted) {
  SCCPIPE_CHECK(bytes >= 0.0);
  SCCPIPE_CHECK(on_accepted != nullptr);
  queue_.push_back(PendingPush{bytes, std::move(on_accepted)});
  pump();
}

void ReliableHostChannel::pop(PopCallback on_message) {
  SCCPIPE_CHECK(on_message != nullptr);
  waiting_pop_.push_back(std::move(on_message));
  try_deliver();
}

int ReliableHostChannel::credit_available() const {
  return cfg_.queue_depth - static_cast<int>(admitted_ - granted_);
}

void ReliableHostChannel::pump() {
  bool admitted_any = false;
  while (!queue_.empty() && static_cast<int>(flight_.size()) < cfg_.window &&
         credit_available() > 0) {
    PendingPush p = std::move(queue_.front());
    queue_.pop_front();
    const std::uint64_t seq = next_seq_++;
    ++admitted_;
    InFlight& f = flight_[seq];
    f.bytes = p.bytes;
    admitted_any = true;
    // The producer is decoupled the moment the window slot and receiver
    // credit are reserved; the transfer proceeds in the background.
    p.on_accepted();
    transmit(seq, 1);
  }
  if (admitted_any && stalled_) {
    stalled_ = false;
    credit_stall_time_ = credit_stall_time_ + (sim_.now() - stall_since_);
  }
  if (!stalled_ && !queue_.empty() &&
      static_cast<int>(flight_.size()) < cfg_.window &&
      credit_available() <= 0) {
    // Window open, data waiting, but the receiver owes us a slot: the
    // producer is now throttled by the consumer, which is the whole point
    // of credit flow control — count it so RunResult can show it.
    stalled_ = true;
    stall_since_ = sim_.now();
    ++credit_stalls_;
  }
}

void ReliableHostChannel::transmit(std::uint64_t seq, int attempt) {
  auto it = flight_.find(seq);
  SCCPIPE_CHECK(it != flight_.end());
  InFlight& f = it->second;
  f.attempt = attempt;
  f.last_tx = sim_.now();
  if (attempt == 1) {
    ++first_sends_;
  } else {
    ++retransmissions_;
    f.retransmitted = true;  // Karn: this message yields no RTT sample
  }
  const SimTime wire_time =
      SimTime::sec(f.bytes / cfg_.link.wire_bandwidth_bytes_per_sec);
  const SimTime done = wire_.acquire(sim_.now(), wire_time);
  DatagramFate fate;
  if (fault_ != nullptr) fate = fault_->host_datagram_fate(sim_.now());
  const double bytes = f.bytes;
  if (fate.fate == MessageFate::Deliver) {
    sim_.schedule_at(done + fate.extra_delay,
                     [this, seq, bytes] { deliver_data(seq, bytes); });
    if (fate.duplicate) {
      sim_.schedule_at(done + fate.extra_delay + fate.duplicate_lag,
                       [this, seq, bytes] { deliver_data(seq, bytes); });
    }
  }
  // Drop/BurstDrop: lost in flight. Corrupt: crossed the wire (occupancy
  // paid) but fails the datagram CRC and is discarded at the receiver. No
  // ACK comes back either way; the retransmit timer recovers.
  double rto_sec = base_rto().to_sec();
  const double cap = RetryPolicy::kMaxBackoff.to_sec();
  for (int i = 1; i < attempt && rto_sec < cap; ++i) {
    rto_sec *= RetryPolicy::kBackoffFactor;
  }
  if (rto_sec > cap) rto_sec = cap;
  f.timer = sim_.schedule_at(sim_.now() + SimTime::sec(rto_sec),
                             [this, seq] { on_timeout(seq); });
}

SimTime ReliableHostChannel::base_rto() const {
  if (!has_rtt_) return cfg_.retry.timeout;
  const double rto = srtt_sec_ + 4.0 * rttvar_sec_;
  const double floor = cfg_.retry.backoff.to_sec();
  return SimTime::sec(rto < floor ? floor : rto);
}

void ReliableHostChannel::on_timeout(std::uint64_t seq) {
  auto it = flight_.find(seq);
  if (it == flight_.end()) return;  // settled after the timer was queued
  InFlight& f = it->second;
  if (reassembly_.count(seq) != 0 ||
      (seq < next_expected_ && skipped_.count(seq) == 0)) {
    // Spurious timeout: the data reached the receiver and its ACK — which
    // is lossless by the control-plane model — is still on the wire.
    // Retransmitting (or worse, abandoning) here would contradict the
    // delivery the consumer is about to observe; wait for the ACK.
    return;
  }
  if (f.attempt >= cfg_.retry.max_attempts) {
    abandon(seq);
    return;
  }
  transmit(seq, f.attempt + 1);
}

void ReliableHostChannel::abandon(std::uint64_t seq) {
  auto it = flight_.find(seq);
  SCCPIPE_CHECK(it != flight_.end());
  const int attempts = it->second.attempt;
  const double bytes = it->second.bytes;
  sim_.cancel(it->second.timer);
  flight_.erase(it);
  ++abandoned_;
  // Tombstone the hole at once so a stale in-flight copy can never deliver
  // a message the application was told is dead; the drain advances past it
  // and the reserved receiver slot frees. The grant rides a real control
  // datagram (wire latency inside send_control).
  skipped_.insert(seq);
  drain();
  send_control(/*is_grant=*/true);
  std::ostringstream oss;
  oss << "host-link message #" << seq << " (" << bytes
      << " B) abandoned (retries) after " << attempts << " attempt(s)";
  report(Status{StatusCode::RetriesExhausted, oss.str()}, seq);
  pump();  // the freed window slot may admit queued work
}

void ReliableHostChannel::note_occupancy() {
  const int occupancy =
      static_cast<int>(arrived_.size() + reassembly_.size());
  SCCPIPE_CHECK_MSG(occupancy <= cfg_.queue_depth,
                    "receiver buffer exceeded its credit bound: "
                        << occupancy << " > " << cfg_.queue_depth);
  if (occupancy > max_occupancy_) max_occupancy_ = occupancy;
}

void ReliableHostChannel::deliver_data(std::uint64_t seq, double bytes) {
  if (seq < next_expected_ || reassembly_.count(seq) != 0 ||
      skipped_.count(seq) != 0) {
    // Already delivered, already buffered, or abandoned: suppress, but
    // re-ACK — the duplicate usually means our previous ACK raced a
    // retransmit timer, and the repeat settles the sender.
    ++dup_suppressed_;
    send_control(/*is_grant=*/false);
    return;
  }
  reassembly_[seq] = bytes;
  note_occupancy();
  drain();
  send_control(/*is_grant=*/false);
}

void ReliableHostChannel::drain() {
  while (true) {
    auto skip = skipped_.find(next_expected_);
    if (skip != skipped_.end()) {
      skipped_.erase(skip);
      ++consumed_total_;  // the reserved slot frees without a pop
      ++next_expected_;
      continue;
    }
    auto it = reassembly_.find(next_expected_);
    if (it == reassembly_.end()) break;
    arrived_.push_back(it->second);
    reassembly_.erase(it);
    ++next_expected_;
  }
  try_deliver();
}

void ReliableHostChannel::try_deliver() {
  while (!arrived_.empty() && !waiting_pop_.empty()) {
    const double bytes = arrived_.front();
    arrived_.pop_front();
    PopCallback cb = std::move(waiting_pop_.front());
    waiting_pop_.pop_front();
    ++consumed_total_;
    send_control(/*is_grant=*/true);
    cb(bytes);
  }
}

void ReliableHostChannel::send_control(bool is_grant) {
  if (is_grant) {
    ++credit_grants_;
  } else {
    ++acks_sent_;
  }
  const SimTime wire_time =
      SimTime::sec(cfg_.control_bytes / cfg_.link.wire_bandwidth_bytes_per_sec);
  const SimTime done = wire_.acquire(sim_.now(), wire_time);
  const std::uint64_t cum = next_expected_;
  const std::uint64_t consumed = consumed_total_;
  std::set<std::uint64_t> sacks;
  for (const auto& entry : reassembly_) sacks.insert(entry.first);
  sim_.schedule_at(done, [this, cum, consumed, sacks = std::move(sacks)] {
    on_control(cum, consumed, sacks);
  });
}

void ReliableHostChannel::on_control(std::uint64_t cum_next,
                                     std::uint64_t consumed,
                                     const std::set<std::uint64_t>& sacks) {
  const SimTime now = sim_.now();
  if (consumed > granted_) granted_ = consumed;  // credits are cumulative
  while (!flight_.empty() && flight_.begin()->first < cum_next) {
    settle(flight_.begin()->first, now);
  }
  for (std::uint64_t seq : sacks) {
    if (flight_.count(seq) != 0) settle(seq, now);
  }
  if (!sacks.empty()) {
    // Every unacked message below the highest SACK was passed over by a
    // successor; three such indications trigger one fast retransmit.
    const std::uint64_t high = *sacks.rbegin();
    std::vector<std::uint64_t> fast;
    for (auto& entry : flight_) {
      if (entry.first >= high) break;
      InFlight& f = entry.second;
      if (++f.dup_indications >= 3 && !f.fast_retx_done) {
        f.fast_retx_done = true;
        fast.push_back(entry.first);
      }
    }
    for (std::uint64_t seq : fast) {
      auto it = flight_.find(seq);
      SCCPIPE_CHECK(it != flight_.end());
      sim_.cancel(it->second.timer);
      transmit(seq, it->second.attempt + 1);
    }
  }
  pump();
}

void ReliableHostChannel::settle(std::uint64_t seq, SimTime now) {
  auto it = flight_.find(seq);
  SCCPIPE_CHECK(it != flight_.end());
  InFlight& f = it->second;
  sim_.cancel(f.timer);
  if (!f.retransmitted) {
    // RFC 6298 smoothing over the one unambiguous sample.
    const double sample = (now - f.last_tx).to_sec();
    if (!has_rtt_) {
      srtt_sec_ = sample;
      rttvar_sec_ = sample / 2.0;
      has_rtt_ = true;
    } else {
      rttvar_sec_ = 0.75 * rttvar_sec_ + 0.25 * std::abs(srtt_sec_ - sample);
      srtt_sec_ = 0.875 * srtt_sec_ + 0.125 * sample;
    }
  }
  flight_.erase(it);
}

}  // namespace sccpipe
