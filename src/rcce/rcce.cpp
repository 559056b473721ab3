#include "sccpipe/rcce/rcce.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace sccpipe {

RcceComm::RcceComm(SccChip& chip, RcceConfig cfg) : chip_(chip), cfg_(cfg) {
  SCCPIPE_CHECK(cfg_.mpb_chunk_bytes > 0.0);
}

int RcceComm::chunk_count(double bytes) const {
  if (bytes <= 0.0) return 1;
  return static_cast<int>(std::ceil(bytes / cfg_.mpb_chunk_bytes));
}

RcceComm::StatusCallback RcceComm::require_ok(Callback cb, const char* what) {
  return [cb = std::move(cb), what](const Status& s) mutable {
    SCCPIPE_CHECK_MSG(s.ok(), "unhandled RCCE fault in " << what << ": "
                                  << s.to_string());
    cb();
  };
}

void RcceComm::send(CoreId from, CoreId to, double bytes,
                    Callback on_complete) {
  SCCPIPE_CHECK(on_complete != nullptr);
  send(from, to, bytes, require_ok(std::move(on_complete), "send"));
}

void RcceComm::recv(CoreId to, CoreId from, Callback on_complete) {
  SCCPIPE_CHECK(on_complete != nullptr);
  recv(to, from, require_ok(std::move(on_complete), "recv"));
}

void RcceComm::send(CoreId from, CoreId to, double bytes,
                    StatusCallback on_complete) {
  SCCPIPE_CHECK(chip_.topology().valid_core(from));
  SCCPIPE_CHECK(chip_.topology().valid_core(to));
  SCCPIPE_CHECK_MSG(from != to, "RCCE send to self (core " << from << ")");
  SCCPIPE_CHECK(bytes >= 0.0);
  SCCPIPE_CHECK(on_complete != nullptr);

  const Key key{from, to};
  auto& rq = recvs_[key];
  if (!rq.empty()) {
    StatusCallback receiver_done = std::move(rq.front());
    rq.pop_front();
    start_transfer(from, to, bytes, std::move(on_complete),
                   std::move(receiver_done));
    return;
  }
  sends_[key].push_back(PendingSend{bytes, std::move(on_complete)});
}

void RcceComm::recv(CoreId to, CoreId from, StatusCallback on_complete) {
  SCCPIPE_CHECK(chip_.topology().valid_core(from));
  SCCPIPE_CHECK(chip_.topology().valid_core(to));
  SCCPIPE_CHECK(on_complete != nullptr);

  const Key key{from, to};
  auto& sq = sends_[key];
  if (!sq.empty()) {
    PendingSend ps = std::move(sq.front());
    sq.pop_front();
    start_transfer(from, to, ps.bytes, std::move(ps.on_complete),
                   std::move(on_complete));
    return;
  }
  recvs_[key].push_back(std::move(on_complete));
}

void RcceComm::start_transfer(CoreId from, CoreId to, double bytes,
                              StatusCallback sender_done,
                              StatusCallback receiver_done) {
  Transfer t{from, to, bytes, 1, chip_.sim().now(), std::move(sender_done),
             std::move(receiver_done)};
  std::uint32_t id;
  if (!free_transfers_.empty()) {
    id = free_transfers_.back();
    free_transfers_.pop_back();
    transfers_[id] = std::move(t);
  } else {
    id = static_cast<std::uint32_t>(transfers_.size());
    transfers_.push_back(std::move(t));
  }
  attempt_transfer(id);
}

void RcceComm::complete(std::uint32_t id, const Status& status) {
  Transfer t = std::move(transfers_[id]);
  free_transfers_.push_back(id);
  // Sender unblocks first (its ack returns), then the receiver proceeds.
  t.sender_done(status);
  t.receiver_done(status);
}

/// Stages 4-5 of a delivered payload: receiver software overhead, then the
/// bounce into the receiver's DRAM partition (§VI-A).
void RcceComm::finish_delivery(std::uint32_t id) {
  const Transfer& t = transfers_[id];
  const CoreId to = t.to;
  const double bytes = t.bytes;
  const double recv_cycles =
      cfg_.recv_overhead_cycles + cfg_.per_chunk_cycles * chunk_count(bytes);
  chip_.compute(to, recv_cycles, [this, id, to, bytes] {
    auto finish = [this, id] {
      ++delivered_;
      complete(id, Status{});
    };
    if (cfg_.local_memory_banks) {
      // Data lands directly in the receiver's local bank.
      finish();
    } else {
      chip_.dram_stream(to, bytes, finish);
    }
  });
}

void RcceComm::attempt_transfer(std::uint32_t id) {
  const Transfer& t = transfers_[id];
  const CoreId from = t.from;
  const CoreId to = t.to;
  const double bytes = t.bytes;
  // Stage 1: sender software overhead + per-chunk handshakes (paid again on
  // every retransmission — the whole protocol round restarts).
  const double sender_cycles =
      cfg_.send_overhead_cycles + cfg_.per_chunk_cycles * chunk_count(bytes);
  chip_.compute(from, sender_cycles, [this, id, from, to, bytes] {
    // Stage 2: sender streams the source buffer out of its own partition.
    // With hypothetical local memory banks (ablation) the source already
    // sits in the sender's local store — skip the partition read.
    auto after_source = [this, id, from, to, bytes] {
      // Stage 3: payload crosses the mesh. The fault layer may lose or
      // delay it here; the mesh contention state advances either way (the
      // flits occupied the links up to the faulty point).
      const MeshTopology& topo = chip_.topology();
      const SimTime now = chip_.sim().now();
      const SimTime mesh_done = chip_.mesh().transfer(
          now, topo.core_coord(from), topo.core_coord(to), bytes);
      SimTime extra = SimTime::zero();
      const MessageFate fate =
          fault_ != nullptr ? fault_->rcce_message_fate(now, from, to, &extra)
                            : MessageFate::Deliver;
      if (fate == MessageFate::Deliver) {
        chip_.sim().schedule_at(mesh_done + extra,
                                [this, id] { finish_delivery(id); });
        return;
      }
      if (fate == MessageFate::Corrupt) {
        // The payload arrives but fails the receiver's CRC-32 check. The
        // receiver pays its full consumption cost for the bad copy
        // (software overhead + partition bounce) before the NACK returns;
        // only then does the sender restart the protocol round.
        chip_.sim().schedule_at(mesh_done + extra, [this, id, to, bytes] {
          const double recv_cycles =
              cfg_.recv_overhead_cycles +
              cfg_.per_chunk_cycles * chunk_count(bytes);
          chip_.compute(to, recv_cycles, [this, id, to, bytes] {
            auto nack = [this, id] {
              resolve_loss(id, chip_.sim().now(), "corrupted");
            };
            if (cfg_.local_memory_banks) {
              nack();
            } else {
              chip_.dram_stream(to, bytes, nack);
            }
          });
        });
        return;
      }
      // The payload is gone. The sender spins on the ack flag until its
      // per-attempt timeout expires, then either retransmits after the
      // backoff or gives up with a typed error to both endpoints.
      resolve_loss(id, max(mesh_done, now + cfg_.retry.timeout), "lost");
    };
    if (cfg_.local_memory_banks) {
      after_source();
    } else {
      chip_.dram_stream(from, bytes, after_source);
    }
  });
}

void RcceComm::resolve_loss(std::uint32_t id, SimTime detect,
                            const char* how) {
  const Transfer& t = transfers_[id];
  const RetryPolicy& rp = cfg_.retry;
  if (t.attempt < rp.max_attempts) {
    chip_.sim().schedule_at(detect + rp.backoff_after(t.attempt), [this, id] {
      ++retransmissions_;
      ++transfers_[id].attempt;
      attempt_transfer(id);
    });
    return;
  }
  std::ostringstream oss;
  oss << "rcce " << t.from << "->" << t.to << " " << how << " after "
      << t.attempt << " attempt(s), "
      << (detect - t.first_attempt_at).to_ms() << " ms since rendezvous";
  Status failure{StatusCode::RetriesExhausted, oss.str()};
  chip_.sim().schedule_at(detect,
                          [this, id, failure = std::move(failure)] {
                            ++transfers_failed_;
                            complete(id, failure);
                          });
}

std::size_t RcceComm::abandon_pair(CoreId from, CoreId to) {
  const Key key{from, to};
  std::size_t dropped = 0;
  if (auto it = sends_.find(key); it != sends_.end()) {
    dropped += it->second.size();
    sends_.erase(it);
  }
  if (auto it = recvs_.find(key); it != recvs_.end()) {
    dropped += it->second.size();
    recvs_.erase(it);
  }
  return dropped;
}

SimTime RcceComm::ideal_transfer_time(CoreId from, CoreId to,
                                      double bytes) const {
  const MeshTopology& topo = chip_.topology();
  const double cycles = cfg_.send_overhead_cycles + cfg_.recv_overhead_cycles +
                        2.0 * cfg_.per_chunk_cycles * chunk_count(bytes);
  const SimTime sw =
      SimTime::sec(cycles / std::min(chip_.effective_hz(from),
                                     chip_.effective_hz(to)));
  const SimTime copies = SimTime::sec(bytes / chip_.copy_rate(from) +
                                      bytes / chip_.copy_rate(to));
  const SimTime mesh = chip_.mesh().ideal_latency(
      topo.core_coord(from), topo.core_coord(to), bytes);
  return sw + copies + mesh;
}

}  // namespace sccpipe
