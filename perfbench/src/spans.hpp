#pragma once

/// \file spans.hpp
/// In-memory wall-clock spans for the traced run. Each span covers one call
/// from the benchmark into a public sccpipe function and is named
/// "<layer>.<call>". Spans nest on the calling thread; the recorder keeps
/// each span's parent, so a layer's self time is its duration minus the
/// part covered by its children. Written out once, at exit, as Chrome
/// trace JSON (loadable in Perfetto). A disabled recorder records nothing.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Ends its span when destroyed (no-op while the recorder is disabled).
  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_ = nullptr;
    std::size_t index_ = 0;
  };

  [[nodiscard]] Scope span(const char* name) { return Scope(this, name); }

  /// Wall milliseconds of every recorded span called \p name, in order.
  std::vector<double> durations_ms(const std::string& name) const;
  double total_ms(const std::string& name) const;

  /// Chrome trace-event JSON ("X" events, microseconds).
  void write_chrome_json(const std::string& path) const;

  /// One line per layer: calls, total and self milliseconds.
  std::vector<std::string> self_time_summary() const;

  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  std::int64_t now_ns() const;

  bool enabled_ = false;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< indices of the spans still running
};

}  // namespace perfbench
