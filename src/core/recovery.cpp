#include "sccpipe/core/recovery.hpp"

#include <algorithm>
#include <utility>

#include "sccpipe/support/check.hpp"

namespace sccpipe {

Status validate_recovery(const RecoveryConfig& cfg) {
  if (cfg.heartbeat_period <= SimTime::zero()) {
    return Status(StatusCode::InvalidArgument,
                  "--heartbeat-ms must be positive, got " +
                      std::to_string(cfg.heartbeat_period.to_ms()) + " ms");
  }
  if (cfg.detection_deadline < cfg.heartbeat_period + cfg.heartbeat_period) {
    return Status(
        StatusCode::InvalidArgument,
        "--detect-ms (" + std::to_string(cfg.detection_deadline.to_ms()) +
            " ms) must be at least twice --heartbeat-ms (" +
            std::to_string(cfg.heartbeat_period.to_ms()) +
            " ms), or one late heartbeat is declared a core death");
  }
  if (cfg.max_spares < -1) {
    return Status(StatusCode::InvalidArgument,
                  "--max-spares must be at least -1 (-1 = all spares), got " +
                      std::to_string(cfg.max_spares));
  }
  return Status();
}

const char* gray_policy_name(GrayPolicy policy) {
  switch (policy) {
    case GrayPolicy::Off: return "off";
    case GrayPolicy::Dvfs: return "dvfs";
    case GrayPolicy::Migrate: return "migrate";
    case GrayPolicy::Rebalance: return "rebalance";
  }
  return "?";
}

Status parse_gray_policy(const std::string& text, GrayPolicy* out) {
  if (text == "off") {
    *out = GrayPolicy::Off;
  } else if (text == "dvfs") {
    *out = GrayPolicy::Dvfs;
  } else if (text == "migrate") {
    *out = GrayPolicy::Migrate;
  } else if (text == "rebalance") {
    *out = GrayPolicy::Rebalance;
  } else {
    return Status(StatusCode::InvalidArgument,
                  "--gray-policy must be off|dvfs|migrate|rebalance, got '" +
                      text + "'");
  }
  return Status();
}

Status validate_gray(const GrayConfig& cfg) {
  if (cfg.detect_factor < 0.0) {
    return Status(StatusCode::InvalidArgument,
                  "--gray-detect-factor must be 0 (off) or exceed 1, got " +
                      std::to_string(cfg.detect_factor));
  }
  if (!cfg.enabled()) return Status();
  if (cfg.detect_factor <= 1.0) {
    return Status(StatusCode::InvalidArgument,
                  "--gray-detect-factor must exceed 1 (the median core sits "
                  "exactly on a factor-1 threshold), got " +
                      std::to_string(cfg.detect_factor));
  }
  if (cfg.detect_windows < 1) {
    return Status(StatusCode::InvalidArgument,
                  "--gray-detect-windows must be positive, got " +
                      std::to_string(cfg.detect_windows));
  }
  return Status();
}

Supervisor::Supervisor(SccChip& chip, const FaultInjector& fault,
                       RecoveryConfig cfg, CoreId monitor_core)
    : chip_(chip), fault_(fault), cfg_(cfg), monitor_(monitor_core) {
  SCCPIPE_CHECK(chip.topology().valid_core(monitor_core));
  SCCPIPE_CHECK(cfg_.heartbeat_period > SimTime::zero());
  SCCPIPE_CHECK_MSG(cfg_.detection_deadline > cfg_.heartbeat_period,
                    "detection deadline must exceed the heartbeat period or "
                    "every core is declared dead at the first tick");
}

Supervisor::Watched* Supervisor::find(CoreId core) {
  const auto it = std::lower_bound(
      watched_.begin(), watched_.end(), core,
      [](const Watched& w, CoreId c) { return w.core < c; });
  if (it == watched_.end() || it->core != core) return nullptr;
  return &*it;
}

void Supervisor::enable_gray(GrayConfig cfg, GrayHandler on_gray) {
  SCCPIPE_CHECK(!started_);
  SCCPIPE_CHECK(validate_gray(cfg).ok());
  SCCPIPE_CHECK(cfg.enabled());
  SCCPIPE_CHECK(on_gray != nullptr);
  gray_cfg_ = cfg;
  on_gray_ = std::move(on_gray);
}

void Supervisor::record_service(CoreId core, double service_ms) {
  if (!gray_cfg_.enabled()) return;
  Watched* w = find(core);
  if (w == nullptr) return;  // producer/transfer/already-unwatched cores
  w->window_ms.push_back(service_ms);
}

void Supervisor::reset_gray(CoreId core) {
  const auto it =
      std::lower_bound(gray_flagged_.begin(), gray_flagged_.end(), core);
  if (it != gray_flagged_.end() && *it == core) gray_flagged_.erase(it);
  Watched* w = find(core);
  if (w == nullptr) return;
  w->window_ms.clear();
  w->baseline_ms = 0.0;
  w->streak = 0;
  w->flagged = false;
}

bool Supervisor::gray_flagged(CoreId core) const {
  return std::binary_search(gray_flagged_.begin(), gray_flagged_.end(), core);
}

void Supervisor::watch(CoreId core) {
  SCCPIPE_CHECK(chip_.topology().valid_core(core));
  if (find(core) != nullptr) return;
  const auto it = std::lower_bound(
      watched_.begin(), watched_.end(), core,
      [](const Watched& w, CoreId c) { return w.core < c; });
  Watched w;
  w.core = core;
  w.last_heartbeat = chip_.sim().now();
  watched_.insert(it, std::move(w));
}

void Supervisor::unwatch(CoreId core) {
  const auto it = std::lower_bound(
      watched_.begin(), watched_.end(), core,
      [](const Watched& w, CoreId c) { return w.core < c; });
  if (it != watched_.end() && it->core == core) watched_.erase(it);
}

void Supervisor::start(FailureHandler on_failure) {
  SCCPIPE_CHECK(!started_);
  SCCPIPE_CHECK(on_failure != nullptr);
  started_ = true;
  on_failure_ = std::move(on_failure);
  tick_event_ =
      chip_.sim().schedule_after(cfg_.heartbeat_period, [this] { tick(); });
}

void Supervisor::stop() {
  if (stopped_) return;
  stopped_ = true;
  // Cancel rather than orphan the pending tick: the simulator runs until
  // its queue drains, and a self-rescheduling watchdog would keep an
  // otherwise-finished run alive forever.
  chip_.sim().cancel(tick_event_);
}

void Supervisor::tick() {
  if (stopped_) return;
  const SimTime now = chip_.sim().now();
  const MeshTopology& topo = chip_.topology();

  // Nobody watches the watcher from on-chip: if the monitor core itself
  // fail-stops, the host run driver is what notices the collector going
  // silent. Model that as an immediate verdict against the monitor and
  // stop ticking — with the assembly point gone there is no recovery.
  if (fault_.core_failed(monitor_, now)) {
    stopped_ = true;
    on_failure_(monitor_, now);
    return;
  }

  // Emit first, in core order: every live watched core pushes one liveness
  // datagram through the mesh towards the monitor. The transfer advances
  // real mesh contention state, so monitoring is not free. last_heartbeat
  // records the *arrival* instant; it may lie in the future, which the
  // deadline comparison below handles naturally (now - future < deadline).
  for (Watched& w : watched_) {
    if (fault_.core_failed(w.core, now)) continue;  // the silence itself
    if (w.core == monitor_) {
      w.last_heartbeat = now;  // the monitor trusts its own pulse
      continue;
    }
    const SimTime arrival =
        chip_.mesh().transfer(now, topo.core_coord(w.core),
                              topo.core_coord(monitor_), cfg_.heartbeat_bytes);
    w.last_heartbeat = max(w.last_heartbeat, arrival);
    ++heartbeats_;
    heartbeat_bytes_ += cfg_.heartbeat_bytes;
  }

  // Gray-failure scan: close this tick's observation window on every
  // watched core and flag stragglers. Runs before the silence scan so a
  // core that is both slow and newly dead resolves as a fail-stop this
  // same tick (the walkthrough merges the two into one incident).
  if (gray_cfg_.enabled()) {
    evaluate_gray(now);
    if (stopped_) return;  // a gray handler may abort the run
  }

  // Watchdog scan: declare anything silent past the deadline. Collect
  // first, then fire — the handler mutates the watched set (unwatch,
  // watch of the spare).
  std::vector<CoreId> dead;
  for (const Watched& w : watched_) {
    if (now - w.last_heartbeat > cfg_.detection_deadline) {
      dead.push_back(w.core);
    }
  }
  for (const CoreId core : dead) {
    unwatch(core);
    on_failure_(core, now);
    if (stopped_) return;  // the handler may abort the run
  }

  tick_event_ =
      chip_.sim().schedule_after(cfg_.heartbeat_period, [this] { tick(); });
}

void Supervisor::evaluate_gray(SimTime now) {
  // EWMA smoothing of the per-core baseline. Deliberately sluggish: the
  // baseline must remember the core's healthy service time long enough for
  // detect_windows consecutive comparisons to see the contrast.
  constexpr double kAlpha = 0.2;

  // Pass 1 (core-id order — watched_ is sorted): close each window, seed
  // or fetch the baseline, and compute the normalized service time.
  struct Eval {
    std::size_t idx;  ///< into watched_
    double p50;
    double norm;
  };
  std::vector<Eval> evals;
  const auto median = [this] {  // of scratch_, sorted in place
    std::sort(scratch_.begin(), scratch_.end());
    return quantile_sorted(scratch_, 0.5);
  };
  for (std::size_t i = 0; i < watched_.size(); ++i) {
    Watched& w = watched_[i];
    if (w.window_ms.empty()) continue;  // stage saw no strip this window
    if (fault_.core_failed(w.core, now)) continue;  // silence scan's case
    scratch_.assign(w.window_ms.begin(), w.window_ms.end());
    const double p50 = median();
    if (w.baseline_ms <= 0.0) w.baseline_ms = p50;  // first window seeds
    evals.push_back(Eval{i, p50, p50 / w.baseline_ms});
    ++gray_windows_;
  }
  if (evals.empty()) return;

  // Median of the normalized service times across reporting cores. A
  // uniform slowdown moves every norm — and so the median — by the same
  // multiple, which is exactly why it never flags anyone.
  scratch_.clear();
  for (const Eval& e : evals) scratch_.push_back(e.norm);
  const double median_norm = median();
  const double threshold = gray_cfg_.detect_factor * median_norm;

  // Pass 2: streak accounting and baseline maintenance. Evidence for any
  // flag is captured by value first; handlers run only after the scan (they
  // mutate watched_, invalidating indices).
  struct Flag {
    CoreId core;
    GrayEvidence ev;
  };
  std::vector<Flag> flags;
  for (const Eval& e : evals) {
    Watched& w = watched_[e.idx];
    const bool over = e.norm > threshold;
    if (!over) {
      w.streak = 0;
      if (w.flagged) {
        w.flagged = false;
        const auto it = std::lower_bound(gray_flagged_.begin(),
                                         gray_flagged_.end(), w.core);
        if (it != gray_flagged_.end() && *it == w.core) {
          gray_flagged_.erase(it);
        }
      }
      // Only unsuspicious windows feed the EWMA: a straggler must not
      // launder its slowdown into its own baseline and fade from view.
      w.baseline_ms = kAlpha * e.p50 + (1.0 - kAlpha) * w.baseline_ms;
    } else if (++w.streak >= gray_cfg_.detect_windows) {
      w.streak = 0;  // re-arm: an uncured straggler flags again K windows on
      if (!w.flagged) {
        w.flagged = true;
        const auto it = std::lower_bound(gray_flagged_.begin(),
                                         gray_flagged_.end(), w.core);
        if (it == gray_flagged_.end() || *it != w.core) {
          gray_flagged_.insert(it, w.core);
        }
      }
      GrayEvidence ev;
      ev.window_p50_ms = e.p50;
      ev.baseline_ms = w.baseline_ms;
      ev.norm = e.norm;
      ev.median_norm = median_norm;
      ev.streak = gray_cfg_.detect_windows;
      flags.push_back(Flag{w.core, ev});
    }
    w.window_ms.clear();
  }
  // Windows of cores that reported nothing stay open (window_ms already
  // empty); evaluated windows were cleared above.

  for (const Flag& f : flags) {
    on_gray_(f.core, now, f.ev);
    if (stopped_) return;
  }
}

}  // namespace sccpipe
