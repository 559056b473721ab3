#include "sccpipe/core/channel.hpp"

#include <cstring>
#include <utility>

#include "sccpipe/support/check.hpp"
#include "sccpipe/support/crc.hpp"

namespace sccpipe {

std::uint32_t frame_token_crc(const FrameToken& token) {
  // The header fields, packed in order: one update over 20 bytes gives
  // the same CRC as one update per field.
  unsigned char header[sizeof(token.frame) + sizeof(token.strip.y0) +
                       sizeof(token.strip.rows) + sizeof(token.bytes)];
  unsigned char* p = header;
  std::memcpy(p, &token.frame, sizeof(token.frame));
  p += sizeof(token.frame);
  std::memcpy(p, &token.strip.y0, sizeof(token.strip.y0));
  p += sizeof(token.strip.y0);
  std::memcpy(p, &token.strip.rows, sizeof(token.strip.rows));
  p += sizeof(token.strip.rows);
  std::memcpy(p, &token.bytes, sizeof(token.bytes));
  Crc32 crc;
  crc.update(header, sizeof(header));
  return crc.value();
}

namespace {

/// Delivery-side integrity check: the "never delivered silently" guarantee.
void verify_token(const FrameToken& token, const char* where) {
  SCCPIPE_CHECK_MSG(frame_token_crc(token) == token.crc,
                    "frame " << token.frame << " failed its CRC-32 check at "
                             << where
                             << " — corruption leaked past the transport");
}

}  // namespace

void Channel::fail(const Status& status) {
  SCCPIPE_CHECK_MSG(on_error_ != nullptr,
                    "channel transport fault without an error handler: "
                        << status.to_string());
  on_error_(status);
}

// ---------------------------------------------------------------- SccChannel

SccChannel::SccChannel(RcceComm& comm, CoreId from, CoreId to)
    : comm_(comm), from_(from), to_(to) {
  SCCPIPE_CHECK(comm.chip().topology().valid_core(from));
  SCCPIPE_CHECK(comm.chip().topology().valid_core(to));
}

void SccChannel::send(FrameToken token, SendDone on_sent) {
  SCCPIPE_CHECK(on_sent != nullptr);
  const double bytes = token.bytes;
  token.crc = frame_token_crc(token);
  tokens_.push_back(std::move(token));
  send_posted_.push_back(comm_.chip().sim().now());
  comm_.send(from_, to_, bytes,
             [this, cb = std::move(on_sent)](const Status& s) mutable {
               // A failed transfer is reported by the receiver side of this
               // same channel (both rendezvous callbacks get the error);
               // the sender's SendDone just never fires.
               if (s.ok()) cb();
             });
}

void SccChannel::recv(RecvDone on_token) {
  SCCPIPE_CHECK(on_token != nullptr);
  recv_posted_.push_back(comm_.chip().sim().now());
  comm_.recv(to_, from_,
             [this, cb = std::move(on_token)](const Status& s) mutable {
    // RCCE delivers per-pair messages in FIFO order, so the head entries of
    // all three queues describe this delivery (or this failed transfer —
    // a transfer only fails after the rendezvous matched).
    SCCPIPE_CHECK(!tokens_.empty() && !send_posted_.empty() &&
                  !recv_posted_.empty());
    FrameToken token = std::move(tokens_.front());
    tokens_.pop_front();
    const SimTime matched = max(send_posted_.front(), recv_posted_.front());
    send_posted_.pop_front();
    recv_posted_.pop_front();
    if (!s.ok()) {
      fail(s);
      return;
    }
    verify_token(token, "SccChannel delivery");
    cb(std::move(token), matched);
  });
}

void SccChannel::retire() {
  Channel::retire();
  comm_.abandon_pair(from_, to_);
}

// --------------------------------------------------------- HostToChipChannel

HostToChipChannel::HostToChipChannel(HostCpu& host, SccChip& chip,
                                     CoreId consumer_core,
                                     std::unique_ptr<HostWire> wire)
    : host_(host), chip_(chip), consumer_(consumer_core), wire_(std::move(wire)) {
  SCCPIPE_CHECK(chip.topology().valid_core(consumer_core));
  SCCPIPE_CHECK(wire_ != nullptr);
  wire_->set_error_handler([this](const Status& s, std::uint64_t seq) {
    if (on_abandon_ == nullptr) {
      // No token lookup: on the stop-and-wait wire this seq's token may
      // already have left with a message that overtook it.
      fail(s);
      return;
    }
    auto it = tokens_.find(seq);
    SCCPIPE_CHECK_MSG(it != tokens_.end(),
                      "transport abandoned unknown message #" << seq);
    FrameToken token = std::move(it->second);
    tokens_.erase(it);
    on_abandon_(token, s);
  });
}

void HostToChipChannel::send(FrameToken token, SendDone on_sent) {
  SCCPIPE_CHECK(on_sent != nullptr);
  const double bytes = token.bytes;
  token.crc = frame_token_crc(token);
  // Host-side pushes reach the wire FIFO, so the Nth send is wire seq N.
  tokens_.emplace(push_seq_++, std::move(token));
  // Host-side stack cost, then the wire.
  host_.compute(wire_->link().host_side_cycles(bytes),
                [this, bytes, cb = std::move(on_sent)]() mutable {
                  wire_->push(bytes, std::move(cb));
                });
}

void HostToChipChannel::recv(RecvDone on_token) {
  SCCPIPE_CHECK(on_token != nullptr);
  wire_->pop([this, cb = std::move(on_token)](double bytes) mutable {
    const SimTime matched = chip_.sim().now();
    // The consumer core works the UDP stack before the data is usable.
    chip_.compute(consumer_, wire_->link().scc_recv_cycles(bytes),
                  [this, matched, cb = std::move(cb)]() mutable {
                    SCCPIPE_CHECK(!tokens_.empty());
                    auto it = tokens_.begin();
                    FrameToken token = std::move(it->second);
                    tokens_.erase(it);
                    verify_token(token, "host-to-chip delivery");
                    cb(std::move(token), matched);
                  });
  });
}

// --------------------------------------------------------- CreditedSccChannel

CreditedSccChannel::CreditedSccChannel(RcceComm& comm, CoreId from,
                                       CoreId to, int depth,
                                       double credit_bytes)
    : comm_(comm),
      from_(from),
      to_(to),
      depth_(depth),
      credit_bytes_(credit_bytes),
      data_(comm, from, to),
      credits_(depth) {
  SCCPIPE_CHECK(depth >= 1);
  SCCPIPE_CHECK(credit_bytes > 0.0);
  data_.set_error_handler([this](const Status& s) { fail(s); });
}

void CreditedSccChannel::send(FrameToken token, SendDone on_sent) {
  SCCPIPE_CHECK(on_sent != nullptr);
  if (credits_ > 0) {
    if (stalled_) {
      stalled_ = false;
      credit_stall_time_ =
          credit_stall_time_ + (comm_.chip().sim().now() - stall_since_);
    }
    admit(std::move(token), std::move(on_sent));
    return;
  }
  if (!stalled_) {
    stalled_ = true;
    stall_since_ = comm_.chip().sim().now();
    ++credit_stalls_;
  }
  waiting_.emplace_back(std::move(token), std::move(on_sent));
}

void CreditedSccChannel::admit(FrameToken token, SendDone on_sent) {
  --credits_;
  ++outstanding_;
  SCCPIPE_CHECK_MSG(outstanding_ <= depth_,
                    "credited channel exceeded its depth bound: "
                        << outstanding_ << " > " << depth_);
  if (outstanding_ > max_occupancy_) max_occupancy_ = outstanding_;
  // One credit-return rendezvous per admitted token, posted up front so
  // the consumer's grant always finds its matching receive.
  comm_.recv(from_, to_, [this](const Status& s) {
    if (!s.ok()) {
      fail(s);
      return;
    }
    on_credit();
  });
  // The producer is decoupled now; the data transfer rides behind.
  on_sent();
  data_.send(std::move(token), [] {});
}

void CreditedSccChannel::on_credit() {
  ++credits_;
  if (!waiting_.empty()) {
    if (stalled_) {
      stalled_ = false;
      credit_stall_time_ =
          credit_stall_time_ + (comm_.chip().sim().now() - stall_since_);
    }
    auto next = std::move(waiting_.front());
    waiting_.pop_front();
    admit(std::move(next.first), std::move(next.second));
  }
}

void CreditedSccChannel::recv(RecvDone on_token) {
  SCCPIPE_CHECK(on_token != nullptr);
  std::uint32_t slot;
  if (!free_recv_done_.empty()) {
    slot = free_recv_done_.back();
    free_recv_done_.pop_back();
    recv_done_[slot] = std::move(on_token);
  } else {
    slot = static_cast<std::uint32_t>(recv_done_.size());
    recv_done_.push_back(std::move(on_token));
  }
  data_.recv([this, slot](FrameToken token, SimTime matched) {
    RecvDone cb = std::move(recv_done_[slot]);
    free_recv_done_.push_back(slot);
    --outstanding_;
    if (!retired_) {
      ++credit_messages_;
      // Return the freed slot as real mesh traffic: consumer -> producer.
      comm_.send(to_, from_, credit_bytes_, [this](const Status& s) {
        if (!s.ok()) fail(s);
      });
    }
    cb(std::move(token), matched);
  });
}

void CreditedSccChannel::retire() {
  Channel::retire();
  data_.retire();
  comm_.abandon_pair(to_, from_);
  waiting_.clear();
  retired_ = true;
}

// ------------------------------------------------------- ChipToViewerChannel

ChipToViewerChannel::ChipToViewerChannel(SccChip& chip, CoreId producer_core,
                                         HostLinkConfig link_cfg,
                                         FrameSink sink)
    : chip_(chip),
      producer_(producer_core),
      wire_(chip.sim(), link_cfg),
      sink_(std::move(sink)) {
  SCCPIPE_CHECK(chip.topology().valid_core(producer_core));
  SCCPIPE_CHECK(sink_ != nullptr);
  wire_.set_error_handler(
      [this](const Status& s, std::uint64_t) { fail(s); });
}

void ChipToViewerChannel::send(FrameToken token, SendDone on_sent) {
  SCCPIPE_CHECK(on_sent != nullptr);
  const double bytes = token.bytes;
  token.crc = frame_token_crc(token);
  // UDP send cost on the producer core, then the wire; the viewer drains
  // the channel immediately on arrival.
  chip_.compute(producer_, wire_.link().scc_send_cycles(bytes),
                [this, bytes, t = std::move(token),
                 cb = std::move(on_sent)]() mutable {
                  wire_.push(bytes, std::move(cb));
                  wire_.pop([this, t = std::move(t)](double) mutable {
                    verify_token(t, "viewer delivery");
                    sink_(t, chip_.sim().now());
                  });
                });
}

void ChipToViewerChannel::recv(RecvDone) {
  SCCPIPE_CHECK_MSG(false, "the viewer channel is a sink; recv() is internal");
}

}  // namespace sccpipe
