#include "sccpipe/sim/fault.hpp"

#include <algorithm>
#include <cstdlib>

#include "sccpipe/support/check.hpp"

namespace sccpipe {

SimTime RetryPolicy::backoff_after(int failed_attempts) const {
  SCCPIPE_CHECK(failed_attempts >= 1);
  // Compute in floating point with a per-step cap: the naive fixed-point
  // multiply overflows int64 nanoseconds after ~60 doublings, long before
  // a generous retry budget is spent.
  const double cap_ns = static_cast<double>(max_backoff.to_ns());
  double ns = static_cast<double>(backoff.to_ns());
  for (int i = 1; i < failed_attempts; ++i) {
    ns *= backoff_factor;
    if (ns >= cap_ns) return max_backoff;
  }
  if (ns >= cap_ns) return max_backoff;
  return SimTime::ns(static_cast<std::int64_t>(ns));
}

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::LinkDegrade: return "link-degrade";
    case FaultKind::LinkDown: return "link-down";
    case FaultKind::RouterDegrade: return "router-degrade";
    case FaultKind::McDegrade: return "mc-degrade";
    case FaultKind::McStall: return "mc-stall";
    case FaultKind::CoreFail: return "core-fail";
    case FaultKind::RcceDrop: return "rcce-drop";
    case FaultKind::RcceDelay: return "rcce-delay";
    case FaultKind::RcceCorrupt: return "rcce-corrupt";
    case FaultKind::HostDrop: return "host-drop";
    case FaultKind::HostDelay: return "host-delay";
    case FaultKind::HostCorrupt: return "host-corrupt";
    case FaultKind::HostReorder: return "reorder";
    case FaultKind::HostDuplicate: return "duplicate";
    case FaultKind::HostBurstDrop: return "burst-drop";
    case FaultKind::SlowCore: return "slow-core";
    case FaultKind::LinkLatency: return "degraded-link";
    case FaultKind::CoreStall: return "intermittent-stall";
  }
  return "?";
}

namespace {

/// "20ms" / "1.5s" / "800us" / "250ns" -> SimTime; false on junk, and on
/// a time past 1e15 ns (about 11.6 simulated days), which the int64
/// nanosecond clock could not hold once the model adds a few of them.
bool parse_time(const std::string& v, SimTime* out) {
  char* end = nullptr;
  const double num = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || num < 0.0) return false;
  const std::string unit(end);
  const double ns = unit == "ns"   ? num
                    : unit == "us" ? num * 1e3
                    : unit == "s"  ? num * 1e9
                                   : num * 1e6;
  if (!(ns <= 1e15)) return false;
  if (unit == "ns") {
    *out = SimTime::ns(static_cast<std::int64_t>(num));
  } else if (unit == "us") {
    *out = SimTime::us(num);
  } else if (unit == "ms" || unit.empty()) {
    *out = SimTime::ms(num);  // bare numbers read as milliseconds
  } else if (unit == "s") {
    *out = SimTime::sec(num);
  } else {
    return false;
  }
  return true;
}

bool parse_rate(const std::string& v, double* out) {
  char* end = nullptr;
  const double num = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0' || num < 0.0 || num > 1.0) return false;
  *out = num;
  return true;
}

bool parse_count(const std::string& v, int* out) {
  char* end = nullptr;
  const long num = std::strtol(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || num < 0) return false;
  *out = static_cast<int>(num);
  return true;
}

/// "<count>:<factor>" for the degrade items; factor must be in (0, 1].
bool parse_count_factor(const std::string& v, int* count, double* factor) {
  const auto colon = v.find(':');
  if (colon == std::string::npos) return parse_count(v, count);
  if (!parse_count(v.substr(0, colon), count)) return false;
  char* end = nullptr;
  const std::string f = v.substr(colon + 1);
  const double num = std::strtod(f.c_str(), &end);
  if (end == f.c_str() || *end != '\0' || num <= 0.0 || num > 1.0) return false;
  *factor = num;
  return true;
}

/// "<rate>:<time>" for the delay items.
bool parse_rate_time(const std::string& v, double* rate, SimTime* t) {
  const auto colon = v.find(':');
  if (colon == std::string::npos) return parse_rate(v, rate);
  if (!parse_rate(v.substr(0, colon), rate)) return false;
  return parse_time(v.substr(colon + 1), t);
}

/// "<enter>:<exit>[:<loss>]" for the Gilbert–Elliott burst-loss channel.
bool parse_burst(const std::string& v, double* enter, double* exit_rate,
                 double* loss) {
  const auto c1 = v.find(':');
  if (c1 == std::string::npos) return false;
  if (!parse_rate(v.substr(0, c1), enter)) return false;
  const auto c2 = v.find(':', c1 + 1);
  if (c2 == std::string::npos) {
    return parse_rate(v.substr(c1 + 1), exit_rate);
  }
  if (!parse_rate(v.substr(c1 + 1, c2 - c1 - 1), exit_rate)) return false;
  return parse_rate(v.substr(c2 + 1), loss);
}

/// "<core>@<time>" for one planned fail-stop death; appends to the list.
bool parse_core_fail(const std::string& v, std::vector<CoreFailure>* out) {
  const auto at = v.find('@');
  if (at == std::string::npos) return false;
  CoreFailure cf;
  if (!parse_count(v.substr(0, at), &cf.core)) return false;
  if (!parse_time(v.substr(at + 1), &cf.at)) return false;
  out->push_back(cf);
  return true;
}

/// A latency *multiplier* for the fail-slow fates: anything below 1 (which
/// subsumes the nonsense values <= 0) would be a speed-up, not a fault.
bool parse_multiplier(const std::string& v, double* out) {
  char* end = nullptr;
  const double num = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0' || num < 1.0) return false;
  *out = num;
  return true;
}

/// "<core>:<factor>@<time>" for one planned fail-slow onset.
bool parse_slow_core(const std::string& v, std::vector<SlowCore>* out) {
  const auto colon = v.find(':');
  const auto at = v.find('@');
  if (colon == std::string::npos || at == std::string::npos || at < colon) {
    return false;
  }
  SlowCore sc;
  if (!parse_count(v.substr(0, colon), &sc.core)) return false;
  if (!parse_multiplier(v.substr(colon + 1, at - colon - 1), &sc.factor)) {
    return false;
  }
  if (!parse_time(v.substr(at + 1), &sc.at)) return false;
  out->push_back(sc);
  return true;
}

/// "<a>-<b>:<factor>@<time>" for one planned link degradation; self-links
/// (a == b) are rejected here, adjacency is checked against the topology
/// when the injector expands the plan.
bool parse_degraded_link(const std::string& v, std::vector<DegradedLink>* out) {
  const auto dash = v.find('-');
  const auto colon = v.find(':');
  const auto at = v.find('@');
  if (dash == std::string::npos || colon == std::string::npos ||
      at == std::string::npos || colon < dash || at < colon) {
    return false;
  }
  DegradedLink dl;
  if (!parse_count(v.substr(0, dash), &dl.tile_a)) return false;
  if (!parse_count(v.substr(dash + 1, colon - dash - 1), &dl.tile_b)) {
    return false;
  }
  if (dl.tile_a == dl.tile_b) return false;  // a link needs two endpoints
  if (!parse_multiplier(v.substr(colon + 1, at - colon - 1), &dl.factor)) {
    return false;
  }
  if (!parse_time(v.substr(at + 1), &dl.at)) return false;
  out->push_back(dl);
  return true;
}

/// "<core>:<period>:<duration>" for one intermittent-stall train. Duration
/// must be positive and strictly shorter than the period (a stall reaching
/// into the next period would overlap its successor), and each core may
/// carry at most one train — two trains on one core always overlap
/// eventually, so the second spec is rejected outright.
bool parse_stall(const std::string& v, std::vector<StallSpec>* out) {
  const auto c1 = v.find(':');
  if (c1 == std::string::npos) return false;
  const auto c2 = v.find(':', c1 + 1);
  if (c2 == std::string::npos) return false;
  StallSpec ss;
  if (!parse_count(v.substr(0, c1), &ss.core)) return false;
  if (!parse_time(v.substr(c1 + 1, c2 - c1 - 1), &ss.period)) return false;
  if (!parse_time(v.substr(c2 + 1), &ss.duration)) return false;
  if (ss.period <= SimTime::zero() || ss.duration <= SimTime::zero()) {
    return false;
  }
  if (ss.duration >= ss.period) return false;  // overlapping stalls
  for (const StallSpec& prev : *out) {
    if (prev.core == ss.core) return false;  // second train on one core
  }
  out->push_back(ss);
  return true;
}

/// One row per plan key: how to parse the value into the plan, and whether
/// the field (once set) activates the fault layer. enabled() and parse()
/// both walk this table, so a fault kind that can be parsed is by
/// construction reachable — adding a key without an `active` predicate is
/// a deliberate, visible choice (config-only keys: seed/horizon/window).
struct PlanField {
  const char* key;
  bool (*parse)(FaultPlan& p, const std::string& v);
  bool (*active)(const FaultPlan& p);  ///< nullptr: never enables the plan
};

constexpr PlanField kPlanFields[] = {
    {"seed",
     [](FaultPlan& p, const std::string& v) {
       char* end = nullptr;
       p.seed = std::strtoull(v.c_str(), &end, 10);
       return end != v.c_str() && *end == '\0';
     },
     nullptr},
    {"horizon",
     [](FaultPlan& p, const std::string& v) {
       return parse_time(v, &p.horizon) && p.horizon > SimTime::zero();
     },
     nullptr},
    {"window",
     [](FaultPlan& p, const std::string& v) {
       return parse_time(v, &p.window) && p.window > SimTime::zero();
     },
     nullptr},
    {"rcce-drop",
     [](FaultPlan& p, const std::string& v) {
       return parse_rate(v, &p.rcce_drop_rate);
     },
     [](const FaultPlan& p) { return p.rcce_drop_rate > 0.0; }},
    {"rcce-delay",
     [](FaultPlan& p, const std::string& v) {
       return parse_rate_time(v, &p.rcce_delay_rate, &p.rcce_delay);
     },
     [](const FaultPlan& p) { return p.rcce_delay_rate > 0.0; }},
    {"rcce-corrupt",
     [](FaultPlan& p, const std::string& v) {
       return parse_rate(v, &p.rcce_corrupt_rate);
     },
     [](const FaultPlan& p) { return p.rcce_corrupt_rate > 0.0; }},
    {"host-drop",
     [](FaultPlan& p, const std::string& v) {
       return parse_rate(v, &p.host_drop_rate);
     },
     [](const FaultPlan& p) { return p.host_drop_rate > 0.0; }},
    {"host-delay",
     [](FaultPlan& p, const std::string& v) {
       return parse_rate_time(v, &p.host_delay_rate, &p.host_delay);
     },
     [](const FaultPlan& p) { return p.host_delay_rate > 0.0; }},
    {"host-corrupt",
     [](FaultPlan& p, const std::string& v) {
       return parse_rate(v, &p.host_corrupt_rate);
     },
     [](const FaultPlan& p) { return p.host_corrupt_rate > 0.0; }},
    {"reorder",
     [](FaultPlan& p, const std::string& v) {
       return parse_rate_time(v, &p.host_reorder_rate,
                              &p.host_reorder_delay);
     },
     [](const FaultPlan& p) { return p.host_reorder_rate > 0.0; }},
    {"duplicate",
     [](FaultPlan& p, const std::string& v) {
       return parse_rate_time(v, &p.host_duplicate_rate,
                              &p.host_duplicate_lag);
     },
     [](const FaultPlan& p) { return p.host_duplicate_rate > 0.0; }},
    {"burst-loss",
     [](FaultPlan& p, const std::string& v) {
       return parse_burst(v, &p.burst_enter_rate, &p.burst_exit_rate,
                          &p.burst_loss_rate);
     },
     [](const FaultPlan& p) { return p.burst_enter_rate > 0.0; }},
    {"link-degrade",
     [](FaultPlan& p, const std::string& v) {
       return parse_count_factor(v, &p.link_degrade_count,
                                 &p.link_degrade_factor);
     },
     [](const FaultPlan& p) { return p.link_degrade_count > 0; }},
    {"link-down",
     [](FaultPlan& p, const std::string& v) {
       return parse_count(v, &p.link_down_count);
     },
     [](const FaultPlan& p) { return p.link_down_count > 0; }},
    {"router-degrade",
     [](FaultPlan& p, const std::string& v) {
       return parse_count_factor(v, &p.router_degrade_count,
                                 &p.router_degrade_factor);
     },
     [](const FaultPlan& p) { return p.router_degrade_count > 0; }},
    {"mc-degrade",
     [](FaultPlan& p, const std::string& v) {
       return parse_count_factor(v, &p.mc_degrade_count,
                                 &p.mc_degrade_factor);
     },
     [](const FaultPlan& p) { return p.mc_degrade_count > 0; }},
    {"mc-stall",
     [](FaultPlan& p, const std::string& v) {
       return parse_count(v, &p.mc_stall_count);
     },
     [](const FaultPlan& p) { return p.mc_stall_count > 0; }},
    {"core-fail",
     [](FaultPlan& p, const std::string& v) {
       return parse_core_fail(v, &p.core_failures);
     },
     [](const FaultPlan& p) { return !p.core_failures.empty(); }},
    // Fail-slow fates. A factor of exactly 1.0 is a legal spelling of "no
    // fault": it never activates the layer and never enters the schedule,
    // so slow-core=<c>:1.0@<t> is byte-identical to omitting the key (the
    // metamorphic property tests/gray_failure_test asserts).
    {"slow-core",
     [](FaultPlan& p, const std::string& v) {
       return parse_slow_core(v, &p.slow_cores);
     },
     [](const FaultPlan& p) {
       for (const SlowCore& sc : p.slow_cores) {
         if (sc.factor != 1.0) return true;
       }
       return false;
     }},
    {"degraded-link",
     [](FaultPlan& p, const std::string& v) {
       return parse_degraded_link(v, &p.degraded_links);
     },
     [](const FaultPlan& p) {
       for (const DegradedLink& dl : p.degraded_links) {
         if (dl.factor != 1.0) return true;
       }
       return false;
     }},
    {"intermittent-stall",
     [](FaultPlan& p, const std::string& v) {
       return parse_stall(v, &p.stalls);
     },
     [](const FaultPlan& p) { return !p.stalls.empty(); }},
};

}  // namespace

bool FaultPlan::enabled() const {
  for (const PlanField& f : kPlanFields) {
    if (f.active != nullptr && f.active(*this)) return true;
  }
  return false;
}

Status FaultPlan::parse(const std::string& text) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t semi = text.find(';', pos);
    if (semi == std::string::npos) semi = text.size();
    const std::string item = text.substr(pos, semi - pos);
    pos = semi + 1;
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      return Status(StatusCode::InvalidArgument,
                    "fault-plan item '" + item + "' lacks '='");
    }
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    const PlanField* field = nullptr;
    for (const PlanField& f : kPlanFields) {
      if (key == f.key) {
        field = &f;
        break;
      }
    }
    if (field == nullptr) {
      return Status(StatusCode::InvalidArgument,
                    "unknown fault-plan key '" + key + "'");
    }
    if (!field->parse(*this, val)) {
      return Status(StatusCode::InvalidArgument,
                    "bad value for fault-plan key '" + key + "'");
    }
  }
  return Status();
}

FaultInjector::FaultInjector(const FaultPlan& plan, int link_count,
                             int tile_count, int mc_count, int mesh_width)
    : plan_(plan),
      enabled_(plan.enabled()),
      rcce_rng_(SplitMix64{plan.seed ^ 0x72636365ULL}.next()),
      host_rng_(SplitMix64{plan.seed ^ 0x686f7374ULL}.next()) {
  if (!enabled_) return;
  SCCPIPE_CHECK(link_count > 0 && tile_count > 0 && mc_count > 0);
  SCCPIPE_CHECK(plan_.horizon > SimTime::zero());
  SCCPIPE_CHECK(plan_.window > SimTime::zero());

  // Window faults draw from their own stream so that changing a message
  // rate never reshuffles the schedule (and vice versa).
  Rng sched(SplitMix64{plan.seed ^ 0x77696e646f77ULL}.next());
  const auto window_start = [&] {
    const double span =
        std::max(0.0, (plan_.horizon - plan_.window).to_sec());
    return SimTime::sec(sched.uniform(0.0, span));
  };
  const auto add = [&](FaultKind kind, int count, int targets,
                       double factor) {
    for (int i = 0; i < count; ++i) {
      FaultEvent ev;
      ev.kind = kind;
      ev.target = static_cast<int>(sched.below(
          static_cast<std::uint64_t>(targets)));
      ev.start = window_start();
      ev.end = ev.start + plan_.window;
      ev.factor = factor;
      schedule_.push_back(ev);
    }
  };
  add(FaultKind::LinkDegrade, plan_.link_degrade_count, link_count,
      plan_.link_degrade_factor);
  add(FaultKind::LinkDown, plan_.link_down_count, link_count, 1.0);
  add(FaultKind::RouterDegrade, plan_.router_degrade_count, tile_count,
      plan_.router_degrade_factor);
  add(FaultKind::McDegrade, plan_.mc_degrade_count, mc_count,
      plan_.mc_degrade_factor);
  add(FaultKind::McStall, plan_.mc_stall_count, mc_count, 1.0);
  // Core failures come straight from the plan (no RNG): a fail-stop death
  // is a point event that never ends.
  for (const CoreFailure& cf : plan_.core_failures) {
    SCCPIPE_CHECK(cf.core >= 0);
    FaultEvent ev;
    ev.kind = FaultKind::CoreFail;
    ev.target = cf.core;
    ev.start = ev.end = cf.at;
    schedule_.push_back(ev);
  }
  // Fail-slow fates are likewise pure plan expansions — no RNG draw, so
  // composing them with any message-fate plan perturbs no stream. Events
  // store the *inverse* multiplier so the shared slowdown() helper (which
  // returns 1/min-factor) recovers the plan's multiplier exactly.
  for (const SlowCore& sc : plan_.slow_cores) {
    if (sc.factor == 1.0) continue;  // legal no-op spelling, see kPlanFields
    FaultEvent ev;
    ev.kind = FaultKind::SlowCore;
    ev.target = sc.core;
    ev.start = sc.at;
    ev.end = SimTime::max();  // fail-slow never heals on its own
    ev.factor = 1.0 / sc.factor;
    schedule_.push_back(ev);
  }
  for (const DegradedLink& dl : plan_.degraded_links) {
    if (dl.factor == 1.0) continue;
    SCCPIPE_CHECK_MSG(mesh_width > 0,
                      "degraded-link plans need the mesh width");
    SCCPIPE_CHECK_MSG(dl.tile_a >= 0 && dl.tile_a < tile_count &&
                          dl.tile_b >= 0 && dl.tile_b < tile_count,
                      "degraded-link " << dl.tile_a << "-" << dl.tile_b
                                       << " names a tile off the mesh");
    const int ax = dl.tile_a % mesh_width, ay = dl.tile_a / mesh_width;
    const int bx = dl.tile_b % mesh_width, by = dl.tile_b / mesh_width;
    SCCPIPE_CHECK_MSG(std::abs(ax - bx) + std::abs(ay - by) == 1,
                      "degraded-link " << dl.tile_a << "-" << dl.tile_b
                                       << " is not a mesh link (tiles not "
                                          "adjacent)");
    // Degrade both directed halves of the physical link. Direction codes
    // match noc/topology.hpp (East=0, West=1, North=2, South=3) and the
    // mesh's dense link index convention tile*4 + direction.
    const auto dir_from = [&](int fx, int fy, int tx, int ty) {
      if (tx == fx + 1) return 0;  // East
      if (tx == fx - 1) return 1;  // West
      if (ty == fy - 1) return 2;  // North
      return 3;                    // South
    };
    const int pair[2][2] = {{dl.tile_a, dir_from(ax, ay, bx, by)},
                            {dl.tile_b, dir_from(bx, by, ax, ay)}};
    for (const auto& half : pair) {
      FaultEvent ev;
      ev.kind = FaultKind::LinkLatency;
      ev.target = half[0] * 4 + half[1];
      SCCPIPE_CHECK(ev.target >= 0 && ev.target < link_count);
      ev.start = dl.at;
      ev.end = SimTime::max();
      ev.factor = 1.0 / dl.factor;
      schedule_.push_back(ev);
    }
  }
  for (const StallSpec& ss : plan_.stalls) {
    SCCPIPE_CHECK(ss.core >= 0);
    // One window at the top of every period across the horizon; eager
    // expansion keeps every query a pure scan of an immutable schedule.
    for (SimTime t = SimTime::zero(); t < plan_.horizon; t = t + ss.period) {
      FaultEvent ev;
      ev.kind = FaultKind::CoreStall;
      ev.target = ss.core;
      ev.start = t;
      ev.end = t + ss.duration;
      schedule_.push_back(ev);
    }
  }
  // stable_sort: two events agreeing on (start, target, kind) — e.g. a
  // duplicated CoreFail entry in the plan — keep their generation order, so
  // the schedule (and everything replayed from it) is fully deterministic
  // rather than depending on std::sort's tie behaviour.
  std::stable_sort(schedule_.begin(), schedule_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.start != b.start) return a.start < b.start;
                     if (a.target != b.target) return a.target < b.target;
                     return static_cast<int>(a.kind) < static_cast<int>(b.kind);
                   });
  for (const FaultEvent& ev : schedule_) planned_ |= bit(ev.kind);
}

SimTime FaultInjector::available_after(FaultKind kind, int target,
                                       SimTime at) const {
  if (!planned(kind)) return at;
  SimTime t = at;
  // Chained outages are rare and the schedule is tiny; a rescan after each
  // adjustment handles overlapping windows exactly.
  bool moved = true;
  while (moved) {
    moved = false;
    for (const FaultEvent& ev : schedule_) {
      if (ev.kind == kind && ev.target == target && ev.start <= t &&
          t < ev.end) {
        t = ev.end;
        moved = true;
      }
    }
  }
  return t;
}

double FaultInjector::slowdown(FaultKind kind, int target, SimTime at) const {
  if (!planned(kind)) return 1.0;
  double factor = 1.0;
  for (const FaultEvent& ev : schedule_) {
    if (ev.kind == kind && ev.target == target && ev.start <= at &&
        at < ev.end) {
      factor = std::min(factor, ev.factor);
    }
  }
  return 1.0 / factor;
}

SimTime FaultInjector::link_available(int link_index, SimTime at) const {
  return available_after(FaultKind::LinkDown, link_index, at);
}

double FaultInjector::link_slowdown(int link_index, SimTime at) const {
  return slowdown(FaultKind::LinkDegrade, link_index, at);
}

double FaultInjector::router_slowdown(int tile, SimTime at) const {
  return slowdown(FaultKind::RouterDegrade, tile, at);
}

double FaultInjector::link_latency_factor(int link_index, SimTime at) const {
  return slowdown(FaultKind::LinkLatency, link_index, at);
}

SimTime FaultInjector::mc_available(int mc, SimTime at) const {
  return available_after(FaultKind::McStall, mc, at);
}

double FaultInjector::mc_slowdown(int mc, SimTime at) const {
  return slowdown(FaultKind::McDegrade, mc, at);
}

bool FaultInjector::core_failed(int core, SimTime at) const {
  if (!enabled_) return false;
  for (const CoreFailure& cf : plan_.core_failures) {
    if (cf.core == core && cf.at <= at) return true;
  }
  return false;
}

SimTime FaultInjector::core_fail_time(int core) const {
  SimTime t = SimTime::max();
  for (const CoreFailure& cf : plan_.core_failures) {
    if (cf.core == core) t = std::min(t, cf.at);
  }
  return t;
}

double FaultInjector::core_slowdown(int core, SimTime at) const {
  return slowdown(FaultKind::SlowCore, core, at);
}

SimTime FaultInjector::core_available(int core, SimTime at) const {
  return available_after(FaultKind::CoreStall, core, at);
}

MessageFate FaultInjector::rcce_message_fate(SimTime at, int from, int to,
                                             SimTime* extra_delay) {
  *extra_delay = SimTime::zero();
  if (!enabled_) return MessageFate::Deliver;
  // One draw per decision point keeps the stream aligned across runs; each
  // draw is rate-gated, so a plan that never uses a fate class consumes no
  // randomness for it and older plans keep their exact streams.
  if (plan_.rcce_drop_rate > 0.0 &&
      rcce_rng_.uniform() < plan_.rcce_drop_rate) {
    ++rcce_drops_;
    FaultEvent ev;
    ev.kind = FaultKind::RcceDrop;
    ev.start = ev.end = at;
    ev.target = from * 1000 + to;  // compact pair id for the trace
    trace_.push_back(ev);
    return MessageFate::Drop;
  }
  MessageFate fate = MessageFate::Deliver;
  if (plan_.rcce_corrupt_rate > 0.0 &&
      rcce_rng_.uniform() < plan_.rcce_corrupt_rate) {
    ++rcce_corrupts_;
    FaultEvent ev;
    ev.kind = FaultKind::RcceCorrupt;
    ev.start = ev.end = at;
    ev.target = from * 1000 + to;
    trace_.push_back(ev);
    fate = MessageFate::Corrupt;
  }
  if (plan_.rcce_delay_rate > 0.0 &&
      rcce_rng_.uniform() < plan_.rcce_delay_rate) {
    ++rcce_delays_;
    FaultEvent ev;
    ev.kind = FaultKind::RcceDelay;
    ev.start = ev.end = at;
    ev.target = from * 1000 + to;
    ev.extra = SimTime::sec(rcce_rng_.uniform() * plan_.rcce_delay.to_sec());
    trace_.push_back(ev);
    *extra_delay = ev.extra;
  }
  return fate;
}

MessageFate FaultInjector::host_message_fate(SimTime at,
                                             SimTime* extra_delay) {
  // The stop-and-wait transport sees reorder displacement as plain extra
  // delay (one message in flight at a time, so nothing overtakes) and
  // cannot represent duplicates; the full decision is still drawn and
  // traced so the same plan yields the same fault stream either way.
  const DatagramFate df = host_datagram_fate(at);
  *extra_delay = df.extra_delay;
  return df.fate;
}

DatagramFate FaultInjector::host_datagram_fate(SimTime at) {
  DatagramFate df;
  if (!enabled_) return df;
  // Draw order (burst step, drop, corrupt, delay, reorder, duplicate) is
  // part of the determinism contract: every draw is rate-gated, so a plan
  // that leaves a fate class at zero consumes no randomness for it and
  // pre-existing plans keep their exact streams.
  if (plan_.burst_enter_rate > 0.0) {
    // Gilbert–Elliott channel: one state-transition draw per datagram,
    // plus a loss draw while in the bad state.
    const double flip =
        burst_bad_ ? plan_.burst_exit_rate : plan_.burst_enter_rate;
    if (host_rng_.uniform() < flip) burst_bad_ = !burst_bad_;
    if (burst_bad_ && host_rng_.uniform() < plan_.burst_loss_rate) {
      ++host_burst_drops_;
      FaultEvent ev;
      ev.kind = FaultKind::HostBurstDrop;
      ev.start = ev.end = at;
      trace_.push_back(ev);
      df.fate = MessageFate::Drop;
      return df;
    }
  }
  if (plan_.host_drop_rate > 0.0 &&
      host_rng_.uniform() < plan_.host_drop_rate) {
    ++host_drops_;
    FaultEvent ev;
    ev.kind = FaultKind::HostDrop;
    ev.start = ev.end = at;
    trace_.push_back(ev);
    df.fate = MessageFate::Drop;
    return df;
  }
  if (plan_.host_corrupt_rate > 0.0 &&
      host_rng_.uniform() < plan_.host_corrupt_rate) {
    ++host_corrupts_;
    FaultEvent ev;
    ev.kind = FaultKind::HostCorrupt;
    ev.start = ev.end = at;
    trace_.push_back(ev);
    df.fate = MessageFate::Corrupt;
  }
  if (plan_.host_delay_rate > 0.0 &&
      host_rng_.uniform() < plan_.host_delay_rate) {
    ++host_delays_;
    FaultEvent ev;
    ev.kind = FaultKind::HostDelay;
    ev.start = ev.end = at;
    ev.extra = SimTime::sec(host_rng_.uniform() * plan_.host_delay.to_sec());
    trace_.push_back(ev);
    df.extra_delay = df.extra_delay + ev.extra;
  }
  if (plan_.host_reorder_rate > 0.0 &&
      host_rng_.uniform() < plan_.host_reorder_rate) {
    ++host_reorders_;
    FaultEvent ev;
    ev.kind = FaultKind::HostReorder;
    ev.start = ev.end = at;
    ev.extra = SimTime::sec(host_rng_.uniform() *
                            plan_.host_reorder_delay.to_sec());
    trace_.push_back(ev);
    df.extra_delay = df.extra_delay + ev.extra;
  }
  if (plan_.host_duplicate_rate > 0.0 &&
      host_rng_.uniform() < plan_.host_duplicate_rate) {
    ++host_duplicates_;
    FaultEvent ev;
    ev.kind = FaultKind::HostDuplicate;
    ev.start = ev.end = at;
    ev.extra = SimTime::sec(host_rng_.uniform() *
                            plan_.host_duplicate_lag.to_sec());
    trace_.push_back(ev);
    df.duplicate = true;
    df.duplicate_lag = ev.extra;
  }
  return df;
}

std::uint64_t FaultInjector::fingerprint() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  };
  const auto mix_event = [&](const FaultEvent& ev) {
    mix(static_cast<std::uint64_t>(ev.kind));
    mix(static_cast<std::uint64_t>(ev.start.to_ns()));
    mix(static_cast<std::uint64_t>(ev.end.to_ns()));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(ev.target)));
    mix(static_cast<std::uint64_t>(ev.factor * 1e9));
    mix(static_cast<std::uint64_t>(ev.extra.to_ns()));
  };
  for (const FaultEvent& ev : schedule_) mix_event(ev);
  for (const FaultEvent& ev : trace_) mix_event(ev);
  return h;
}

}  // namespace sccpipe
