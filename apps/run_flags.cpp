#include "run_flags.hpp"

#include <cmath>
#include <string>

#include "sccpipe/core/recovery.hpp"
#include "sccpipe/sim/fault.hpp"

namespace sccpipe {

namespace {

/// The comma-separated fault flags and the plan grammar key of each item.
constexpr struct {
  const char* flag;
  const char* kind;
} kFaultLists[] = {{"core-fail", "core-fail"},
                   {"slow-core", "slow-core"},
                   {"degraded-link", "degraded-link"},
                   {"stall", "intermittent-stall"}};

/// Largest magnitude a millisecond flag may take: about 11.6 simulated
/// days. The int64 nanosecond clock holds over 9000 such spans, so a run
/// that adds one per lost message or breaker trip cannot overflow it.
constexpr double kMaxFlagMs = 1e9;

Status invalid(std::string why) {
  return Status(StatusCode::InvalidArgument, std::move(why));
}

/// Parses "5@100,9@250" as one `kind=item` plan entry per item.
Status parse_fault_list(const std::string& text, const char* flag,
                        const char* kind, FaultPlan* plan) {
  if (text.empty()) return Status();
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = text.find(',', pos);
    const Status st = plan->parse(std::string(kind) + "=" +
                                  text.substr(pos, comma - pos));
    if (!st.ok()) {
      return invalid("bad --" + std::string(flag) + ": " + st.message());
    }
    if (comma == std::string::npos) return Status();
    pos = comma + 1;
  }
}

}  // namespace

void add_run_flags(ArgParser& args) {
  args.add_flag("fault-plan",
                "fault plan, e.g. 'rcce-drop=0.01;link-down=2' "
                "(grammar: docs/MODEL.md)", "");
  args.add_flag("core-fail",
                "fail-stop core fault(s), '<core>@<ms>' comma-separated, "
                "e.g. '5@100,9@250'", "");
  args.add_flag("slow-core",
                "fail-slow core fate(s), '<core>:<factor>@<ms>' "
                "comma-separated, e.g. '5:4@100'", "");
  args.add_flag("degraded-link",
                "degraded mesh link(s), '<tileA>-<tileB>:<factor>@<ms>' "
                "comma-separated (adjacent tiles only)", "");
  args.add_flag("stall",
                "intermittent core stall train(s), "
                "'<core>:<period_ms>:<duration_ms>' comma-separated", "");
  args.add_flag("heartbeat-ms", "supervisor heartbeat period [ms]", "10");
  args.add_flag("detect-ms", "heartbeat silence declared a failure [ms]", "25");
  args.add_flag("max-spares",
                "spare cores recovery may consume (-1 = all)", "-1");
  args.add_flag("gray-detect-factor",
                "flag a core gray when its normalized service time exceeds "
                "this multiple of the pipeline median for "
                "--gray-detect-windows consecutive windows (0 = off)", "0");
  args.add_flag("gray-detect-windows",
                "consecutive over-threshold windows before a gray flag", "3");
  args.add_flag("gray-policy",
                "mitigation ladder ceiling: off | dvfs | migrate | rebalance",
                "rebalance");
  args.add_flag("rcce-retries",
                "transport attempts per message under fault injection", "1");
  args.add_flag("rcce-timeout-ms",
                "per-attempt loss-detection timeout [ms]", "50");
  args.add_flag("offered-fps",
                "open-loop offered load at the host feeder [frames/s] "
                "(0 = paper's closed loop; mcpc runs only)", "0");
  args.add_flag("window",
                "ARQ send window on the host link (0 = stop-and-wait)", "0");
  args.add_flag("queue-depth",
                "bounded queue depth: feeder, ARQ receiver, credited "
                "inter-stage channels (0 = rendezvous lockstep)", "0");
  args.add_flag("frame-deadline-ms",
                "shed frames older than this at feeder dequeue (0 = off)",
                "0");
  args.add_flag("breaker-threshold",
                "consecutive host-transport failures that trip the circuit "
                "breaker (0 = off)", "0");
  args.add_flag("breaker-cooldown-ms",
                "open-breaker cooldown before the half-open probe [ms]",
                "250");
}

Status read_run_flags(const ArgParser& args, RunConfig* cfg) {
  if (const std::string plan = args.get("fault-plan"); !plan.empty()) {
    if (const Status st = cfg->fault.parse(plan); !st.ok()) {
      return invalid("bad --fault-plan: " + st.message());
    }
  }
  for (const auto& list : kFaultLists) {
    if (Status st = parse_fault_list(args.get(list.flag), list.flag,
                                     list.kind, &cfg->fault);
        !st.ok()) {
      return st;
    }
  }
  if (Status st =
          parse_gray_policy(args.get("gray-policy"), &cfg->gray.policy);
      !st.ok()) {
    return st;
  }
  cfg->recovery.max_spares = args.get_int("max-spares");
  cfg->gray.detect_factor = args.get_double("gray-detect-factor");
  cfg->gray.detect_windows = args.get_int("gray-detect-windows");
  cfg->rcce.retry.max_attempts = args.get_int("rcce-retries");
  cfg->overload.offered_fps = args.get_double("offered-fps");
  cfg->overload.window = args.get_int("window");
  cfg->overload.queue_depth = args.get_int("queue-depth");
  cfg->overload.breaker_threshold = args.get_int("breaker-threshold");
  const struct {
    const char* flag;
    SimTime* out;
  } times[] = {{"heartbeat-ms", &cfg->recovery.heartbeat_period},
               {"detect-ms", &cfg->recovery.detection_deadline},
               {"rcce-timeout-ms", &cfg->rcce.retry.timeout},
               {"frame-deadline-ms", &cfg->overload.frame_deadline},
               {"breaker-cooldown-ms", &cfg->overload.breaker_cooldown}};
  for (const auto& t : times) {
    const double ms = args.get_double(t.flag);
    if (std::fabs(ms) > kMaxFlagMs) {
      return invalid("--" + std::string(t.flag) + " " + args.get(t.flag) +
                     " is beyond the simulated clock's range (|ms| <= 1e9)");
    }
    *t.out = SimTime::ms(ms);
  }
  if (!args.error().empty()) return invalid(args.error());
  return Status();
}

}  // namespace sccpipe
