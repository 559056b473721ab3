#include "digest.hpp"

#include <cstdio>

namespace perfbench {

using namespace sccpipe;

void Digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 0x100000001b3ull;
  }
}

void Digest::str(const std::string& s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void Digest::run(const RunResult& r) {
  i64(r.walkthrough.to_ns());
  u64(r.stages.size());
  for (const StageReport& s : r.stages) {
    i64(static_cast<int>(s.kind));
    i64(s.pipeline);
    i64(s.core);
    for (const double v : {s.wait_ms.min, s.wait_ms.q1, s.wait_ms.median,
                           s.wait_ms.q3, s.wait_ms.max}) {
      f64(v);
    }
    u64(s.wait_ms.count);
    f64(s.busy_ms);
    i64(s.frames);
  }
  for (const auto& pipeline : r.placement.pipeline_cores) {
    for (const CoreId c : pipeline) i64(c);
  }
  i64(r.placement.producer);
  i64(r.placement.transfer);
  for (const CoreId c : r.placement.spare_cores) i64(c);

  f64(r.fabric.mesh_total_bytes);
  f64(r.fabric.mesh_max_link_bytes);
  for (const double v : r.fabric.mc_bulk_bytes) f64(v);
  for (const std::uint64_t v : r.fabric.mc_latency_streams_peak) u64(v);

  f64(r.chip_energy_joules);
  f64(r.mean_chip_watts);
  for (const StepTrace::Point& p : r.power_trace.points()) {
    i64(p.at.to_ns());
    f64(p.value);
  }
  f64(r.host_busy_sec);
  f64(r.host_extra_energy_joules);
  for (const double t : r.frame_done_ms) f64(t);
  u64(r.events_dispatched);
  for (const Image& img : r.frames) {
    i64(img.width());
    i64(img.height());
    bytes(img.data(), img.byte_size());
  }

  const FaultReport& f = r.fault;
  u64(f.enabled);
  u64(f.failed);
  i64(static_cast<int>(f.failure_code));
  str(f.failure);
  f64(f.failed_at_ms);
  i64(f.frames_completed);
  for (const std::string& e : f.stage_errors) str(e);
  for (const std::uint64_t v :
       {f.rcce_drops, f.rcce_delays, f.host_drops, f.host_delays,
        f.rcce_corrupts, f.host_corrupts, f.rcce_retransmissions,
        f.host_retransmissions, f.rcce_transfers_failed, f.fingerprint}) {
    u64(v);
  }

  const RecoveryReport& rec = r.recovery;
  u64(rec.enabled);
  for (const int v : {rec.failures_detected, rec.failures_recovered,
                      rec.frames_replayed, rec.frames_lost, rec.spares_used,
                      rec.pipelines_lost}) {
    i64(v);
  }
  for (const FailureRecord& fr : rec.failures) {
    i64(fr.core);
    i64(fr.pipeline);
    f64(fr.failed_at_ms);
    f64(fr.detected_at_ms);
    f64(fr.detection_latency_ms);
    i64(fr.remapped_to);
    u64(fr.degraded);
    u64(fr.recovered);
    u64(fr.gray_escalated);
  }
  u64(rec.heartbeats_sent);
  f64(rec.heartbeat_bytes);
  u64(rec.checkpoint_writes);
  u64(rec.checkpoint_replays);
  f64(rec.checkpoint_bytes);
  f64(rec.max_detection_latency_ms);
  f64(rec.post_failure_fps);

  const TransportReport& t = r.transport;
  u64(t.enabled);
  for (const std::uint64_t v :
       {t.first_sends, t.retransmissions, t.dup_suppressed, t.acks,
        t.credit_grants, t.frames_offered, t.frames_admitted,
        t.frames_delivered, t.shed_admission, t.shed_deadline,
        t.shed_transport, t.shed_breaker, t.credit_stalls}) {
    u64(v);
  }
  for (const double v : {t.smoothed_rtt_ms, t.credit_stall_ms, t.goodput_fps,
                         t.p50_latency_ms, t.p99_latency_ms}) {
    f64(v);
  }
  for (const int v : {t.max_feeder_queue, t.max_link_queue, t.max_stage_queue,
                      t.breaker_trips}) {
    i64(v);
  }
  i64(static_cast<int>(t.breaker_final));
  for (const BreakerTransition& bt : t.breaker_transitions) {
    i64(bt.at.to_ns());
    i64(static_cast<int>(bt.from));
    i64(static_cast<int>(bt.to));
  }

  const GrayReport& g = r.gray;
  u64(g.enabled);
  for (const int v : {g.flags_raised, g.dvfs_boosts, g.migrations,
                      g.rebalances, g.escalations, g.frames_drained}) {
    i64(v);
  }
  for (const GrayActionRecord& a : g.actions) {
    i64(a.core);
    i64(a.pipeline);
    i64(static_cast<int>(a.stage));
    str(a.action);
    f64(a.flagged_at_ms);
    f64(a.before_stage_ms);
    f64(a.after_stage_ms);
    i64(a.migrated_to);
  }
  u64(g.frames_offered);
  u64(g.frames_delivered);
  u64(g.frames_shed);
  f64(g.post_mitigation_fps);
}

}  // namespace perfbench
