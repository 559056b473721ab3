#include "sccpipe/sim/fair_share.hpp"

#include <algorithm>

#include "sccpipe/support/check.hpp"

namespace sccpipe {

FairShareResource::FairShareResource(Simulator& sim, std::string name,
                                     double capacity_bytes_per_sec)
    : sim_(sim), name_(std::move(name)), capacity_(capacity_bytes_per_sec) {
  SCCPIPE_CHECK_MSG(capacity_ > 0.0, name_ << ": capacity must be positive");
}

double FairShareResource::flow_rate(const Flow& f) const {
  const double share = capacity_ / static_cast<double>(flows_.size());
  return f.rate_cap > 0.0 ? std::min(f.rate_cap, share) : share;
}

void FairShareResource::start_flow(double bytes, Callback on_done,
                                   double rate_cap) {
  SCCPIPE_CHECK_MSG(bytes >= 0.0, name_ << ": negative flow size");
  SCCPIPE_CHECK_MSG(rate_cap >= 0.0, name_ << ": negative rate cap");
  SCCPIPE_CHECK(on_done != nullptr);
  if (completes_at_once(bytes)) {
    ++flows_completed_;
    on_done();
    return;
  }
  settle();
  bytes_completed_ += bytes;  // accounted at admission; all flows finish
  flows_.push_back(Flow{bytes, rate_cap, std::move(on_done)});
  reschedule();
}

void FairShareResource::settle() {
  const SimTime now = sim_.now();
  if (now == last_settle_) return;
  SCCPIPE_CHECK(now > last_settle_);
  const double dt = (now - last_settle_).to_sec();
  for (Flow& f : flows_) {
    f.remaining_bytes =
        std::max(0.0, f.remaining_bytes - flow_rate(f) * dt);
  }
  last_settle_ = now;
}

void FairShareResource::reschedule() {
  if (pending_event_.valid()) {
    sim_.cancel(pending_event_);
    pending_event_ = EventHandle{};
  }
  if (flows_.empty()) return;
  double min_eta_sec = -1.0;
  for (const Flow& f : flows_) {
    const double eta = std::max(0.0, f.remaining_bytes) / flow_rate(f);
    if (min_eta_sec < 0.0 || eta < min_eta_sec) min_eta_sec = eta;
  }
  // Round the ETA *up* to the next nanosecond: rounding down would leave a
  // sub-ns residue that can never drain (settle() is a no-op at an
  // unchanged timestamp), livelocking the completion event.
  const SimTime eta_t = SimTime::sec(min_eta_sec) + SimTime::ns(1);
  pending_event_ =
      sim_.schedule_after(eta_t, [this] { on_completion_event(); });
}

void FairShareResource::on_completion_event() {
  pending_event_ = EventHandle{};
  settle();
  // Collect finished flows first: their callbacks may start new flows on
  // this same resource (e.g. a pipeline stage chaining transfers), and the
  // flow list must be consistent before user code runs. The list is a
  // member, reused by every completion, so a completion allocates nothing
  // once it has reached its largest size; no completion event can run
  // while its callbacks do.
  SCCPIPE_CHECK(done_.empty());
  auto it = flows_.begin();
  while (it != flows_.end()) {
    if (it->remaining_bytes <= kEpsilonBytes) {
      done_.push_back(std::move(it->on_done));
      it = flows_.erase(it);
      ++flows_completed_;
    } else {
      ++it;
    }
  }
  reschedule();
  struct Clear {
    std::vector<Callback>& done;
    ~Clear() { done.clear(); }
  } clear{done_};
  for (Callback& cb : done_) cb();
}

}  // namespace sccpipe
