#pragma once

/// \file digest.hpp
/// FNV-1a digest of every simulated field of a RunResult (simulated times,
/// stage reports, placement, fabric and power accounting, event count,
/// functional frames and the fault/recovery/transport/gray reports). Host
/// wall time never enters it, so a change that only speeds up the host
/// must leave every digest identical.

#include <cstdint>
#include <string>
#include <vector>

#include "sccpipe/core/walkthrough.hpp"

namespace perfbench {

class Digest {
 public:
  void bytes(const void* p, std::size_t n);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(const std::string& s);
  void run(const sccpipe::RunResult& r);
  void runs(const std::vector<sccpipe::RunResult>& rs) {
    for (const sccpipe::RunResult& r : rs) run(r);
  }

  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench
