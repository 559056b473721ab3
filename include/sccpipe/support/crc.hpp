#pragma once

/// \file crc.hpp
/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for end-to-end
/// payload integrity. The transports stamp every FrameToken / host-link
/// datagram with a checksum at the sender and verify it at the consumer,
/// so a PayloadCorrupt fault injected anywhere along the path is *detected*
/// rather than silently propagated — detection turns corruption into the
/// same retransmit path a dropped message takes (docs/MODEL.md §6).
///
/// This is the functional-correctness net only; the simulated *cost* of
/// computing the checksum is folded into the transports' per-message
/// overhead cycles and is not modelled separately.
///
/// Kernel: on x86 CPUs with PCLMULQDQ and SSE4.1, buffers of 64 bytes or
/// more fold 64 bytes per step with carry-less multiplies (Intel's
/// fold-by-4 scheme plus a Barrett reduction); the CPU check runs once, at
/// first use. Short buffers, the last 0..15 bytes and non-x86 builds take
/// the byte-at-a-time table loop (support/reference.hpp). Both paths give
/// bit-identical checksums, so the choice never shows in any output.

#include <cstddef>
#include <cstdint>

namespace sccpipe {

/// One-shot CRC-32 of a buffer. \p seed chains multi-buffer checksums:
/// crc32(b, n2, crc32(a, n1)) == crc32(concat(a, b), n1 + n2).
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

/// Incremental helper for checksumming a header plus a pixel buffer
/// without concatenating them.
class Crc32 {
 public:
  void update(const void* data, std::size_t size);
  /// Finalised checksum; update() may continue afterwards (value() is pure).
  std::uint32_t value() const { return state_ ^ 0xffffffffu; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

}  // namespace sccpipe
