#pragma once

/// \file rng.hpp
/// Deterministic random number generation. The paper's scratch and flicker
/// stages draw random values per frame; for reproducible tests and benches
/// every consumer receives its own seeded engine (no global state).
///
/// Engine: xoshiro256** (public domain, Blackman & Vigna), seeded through
/// SplitMix64 as its authors recommend.

#include <cstdint>
#include <array>

namespace sccpipe {

/// SplitMix64 — used to expand a single 64-bit seed into engine state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_{seed} {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 — fast, high quality, 256-bit state.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Rng(std::uint64_t seed) {
    SplitMix64 sm{seed};
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return UINT64_MAX; }

  constexpr result_type operator()() { return next(); }

  constexpr std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  constexpr double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  constexpr double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Unbiased via rejection would be overkill for
  /// simulation workloads; modulo bias at n << 2^64 is negligible here.
  constexpr std::uint64_t below(std::uint64_t n) { return next() % n; }

  /// Uniform integer in [lo, hi] inclusive.
  constexpr std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Derive an independent child stream (for per-stage / per-core RNGs).
  constexpr Rng fork() { return Rng{next() ^ 0xa5a5a5a55a5a5a5aULL}; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace sccpipe
