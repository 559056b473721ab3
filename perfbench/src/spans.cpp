#include "spans.hpp"

#include <cstdio>
#include <map>
#include <stdexcept>

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder* rec, const char* name) {
  if (!rec->enabled_) return;
  rec_ = rec;
  index_ = rec->spans_.size();
  Span s;
  s.name = name;
  s.start_ns = rec->now_ns();
  s.parent = rec->open_.empty() ? -1 : rec->open_.back();
  rec->spans_.push_back(std::move(s));
  rec->open_.push_back(static_cast<int>(index_));
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) return;
  rec_->spans_[index_].end_ns = rec_->now_ns();
  rec_->open_.pop_back();
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::vector<double> SpanRecorder::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back((s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

double SpanRecorder::total_ms(const std::string& name) const {
  double sum = 0.0;
  for (const double d : durations_ms(name)) sum += d;
  return sum;
}

void SpanRecorder::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::size_t dot = s.name.find('.');
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                 s.name.c_str(), s.name.substr(0, dot).c_str(),
                 s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

std::vector<std::string> SpanRecorder::self_time_summary() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  struct Layer {
    int calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Layer> layers;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Layer& l = layers[s.name.substr(0, s.name.find('.'))];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    ++l.calls;
    l.total_ms += dur / 1e6;
    l.self_ms += (dur - child_ns[i]) / 1e6;
  }
  std::vector<std::string> lines;
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-12s %8s %12s %12s", "layer", "calls",
                "total_ms", "self_ms");
  lines.emplace_back(buf);
  for (const auto& [name, l] : layers) {
    std::snprintf(buf, sizeof buf, "%-12s %8d %12.3f %12.3f", name.c_str(),
                  l.calls, l.total_ms, l.self_ms);
    lines.emplace_back(buf);
  }
  return lines;
}

}  // namespace perfbench
