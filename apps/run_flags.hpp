#pragma once

// run_flags — the run flags sccpipe and sccpipe_sweep share: one table
// registers them, one reader turns them into RunConfig fields. The reader
// only parses; validate_run_config() is the one place that checks values.

#include "sccpipe/core/walkthrough.hpp"
#include "sccpipe/support/args.hpp"
#include "sccpipe/support/status.hpp"

namespace sccpipe {

/// Registers the 19 shared flags with their defaults and help:
///   fault     fault-plan, core-fail, slow-core, degraded-link, stall
///   recovery  heartbeat-ms, detect-ms, max-spares
///   gray      gray-detect-factor, gray-detect-windows, gray-policy
///   retry     rcce-retries, rcce-timeout-ms
///   overload  offered-fps, window, queue-depth, frame-deadline-ms,
///             breaker-threshold, breaker-cooldown-ms
void add_run_flags(ArgParser& args);

/// Reads the shared flags of a parsed \p args into cfg->fault, recovery,
/// gray, rcce.retry and overload; no other field of *cfg changes.
/// InvalidArgument, naming the flag, for a malformed fault entry or gray
/// policy, a millisecond value too large for the simulated clock, or a
/// malformed number — that last is args.error(), the parser's first
/// malformed value, so it also covers the caller's own flags read before.
Status read_run_flags(const ArgParser& args, RunConfig* cfg);

}  // namespace sccpipe
