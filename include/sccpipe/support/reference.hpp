#pragma once

/// \file reference.hpp
/// Reference CRC-32 — the byte-at-a-time table loop that the carry-less
/// multiply kernel in crc.cpp replaced for long buffers. crc.cpp still runs
/// the same loop for short buffers and tails, so the two can never drift
/// apart. Kept public for the perf baseline's optimised-vs-reference ratio;
/// see filters/reference.hpp for the rationale. The same "do not optimise
/// this" rule applies.

#include <cstddef>
#include <cstdint>

namespace sccpipe::reference {

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

}  // namespace sccpipe::reference
