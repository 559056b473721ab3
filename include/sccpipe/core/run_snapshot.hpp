#pragma once

/// \file run_snapshot.hpp
/// The run-level checkpoint record for crash-durable walkthroughs.
///
/// A RunSnapshot is written at a frame boundary (the viewer-arrival
/// callback) and holds:
///
///   * a fingerprint of the run configuration, so a resume against the
///     wrong scenario/plan/seed is rejected with a typed error instead of
///     silently producing garbage;
///   * the frame count and simulated instant of the boundary;
///   * how many planned crash-at fates the attempt that wrote the snapshot
///     had already disarmed (resume arithmetic, see CheckpointConfig);
///   * an opaque component-state blob: the concatenated save_state()
///     payloads of every deterministic host-side component (fault injector
///     RNGs and trace, circuit breaker, ARQ transport, supervisor, frame
///     ledger...).
///
/// Resume does NOT deserialize the blob into live objects. The walkthrough
/// replays deterministically from t = 0; when the replay reaches the
/// snapshot's frame count it re-captures the same blob from the live run
/// and compares byte-for-byte. A mismatch means the binary, the config or
/// the environment changed since the snapshot — a typed DataLoss failure —
/// while a match proves the resumed run is on the recorded trajectory, so
/// everything after the crash point is exactly what the uninterrupted run
/// would have produced. This trades replay time for zero serialization of
/// in-flight simulation structure (event heap, callbacks, chip state),
/// which is what keeps the checkpoint format small and stable.

#include <cstdint>
#include <string>
#include <vector>

#include "sccpipe/core/walkthrough.hpp"
#include "sccpipe/support/snapshot.hpp"
#include "sccpipe/support/status.hpp"

namespace sccpipe {

struct RunSnapshot {
  std::uint64_t config_fingerprint = 0;
  std::uint64_t frames_delivered = 0;  ///< viewer frames at the boundary
  std::int64_t sim_now_ns = 0;         ///< simulated instant of the boundary
  /// Planned crash-at fates the writing attempt had disarmed at start; a
  /// resume disarms one more (the crash that ended that attempt), so a
  /// k-crash plan converges in k + 1 attempts no matter where the
  /// checkpoints land.
  std::uint32_t crashes_consumed = 0;
  /// Concatenated component save_state() payloads (opaque; compared
  /// byte-for-byte by the resume verification anchor).
  std::vector<std::uint8_t> state;
};

/// FNV-1a fingerprint of everything that shapes the deterministic
/// trajectory: scenario, arrangement, platform, overrides, pipelines, DVFS
/// knobs, seed, and the fault/recovery/overload configs. Deliberately
/// excludes the crash-at list (a process fate, not simulation config — the
/// real-SIGKILL resume path has no crash keys at all) and the checkpoint
/// config itself.
std::uint64_t run_config_fingerprint(const RunConfig& cfg);

/// Frame the snapshot for disk (support/snapshot framing: magic, version,
/// length, CRC-32).
std::vector<std::uint8_t> serialize_run_snapshot(const RunSnapshot& snap);

/// Parse framed bytes. Typed DataLoss (truncation/corruption) or
/// VersionSkew from the frame check, DataLoss on field mismatches.
Status parse_run_snapshot(const std::vector<std::uint8_t>& framed,
                          RunSnapshot* out);

/// read_file + parse_run_snapshot. NotFound when the file is absent.
Status load_run_snapshot(const std::string& path, RunSnapshot* out);

}  // namespace sccpipe
