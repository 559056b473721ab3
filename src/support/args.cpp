#include "sccpipe/support/args.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "sccpipe/support/check.hpp"

namespace sccpipe {

Status parse_env_count(const char* name, std::string_view text, int max,
                       int* out) {
  int v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < 1 || v > max) {
    return Status(StatusCode::InvalidArgument,
                  std::string(name) + " must be an integer in 1.." +
                      std::to_string(max) + ", got '" + std::string(text) +
                      "'");
  }
  *out = v;
  return Status();
}

Status env_count(const char* name, int max, int* out) {
  const char* text = std::getenv(name);
  return text == nullptr ? Status() : parse_env_count(name, text, max, out);
}

void ArgParser::add_flag(const std::string& name, const std::string& help,
                         const std::string& default_value) {
  SCCPIPE_CHECK_MSG(!flags_.count(name), "duplicate flag --" << name);
  flags_[name] = Flag{help, default_value, false};
  order_.push_back(name);
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool have_value = false;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      have_value = true;
    }
    const auto it = flags_.find(name);
    if (it == flags_.end()) {
      error_ = "unknown flag --" + name;
      return false;
    }
    if (!have_value) {
      // Next token is the value unless it is another flag (bool style).
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    it->second.value = std::move(value);
    it->second.seen = true;
  }
  return true;
}

bool ArgParser::has(const std::string& name) const {
  const auto it = flags_.find(name);
  return it != flags_.end() && it->second.seen;
}

std::string ArgParser::get(const std::string& name) const {
  const auto it = flags_.find(name);
  SCCPIPE_CHECK_MSG(it != flags_.end(), "unregistered flag --" << name);
  return it->second.value;
}

int ArgParser::get_int(const std::string& name) const {
  const std::string v = get(name);
  char* end = nullptr;
  errno = 0;
  const long n = std::strtol(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || errno == ERANGE ||
      n < std::numeric_limits<int>::min() ||
      n > std::numeric_limits<int>::max()) {
    reject(name, "an integer");
    return 0;
  }
  return static_cast<int>(n);
}

double ArgParser::get_double(const std::string& name) const {
  const std::string v = get(name);
  char* end = nullptr;
  errno = 0;
  const double d = std::strtod(v.c_str(), &end);
  if (v.empty() || *end != '\0' || errno == ERANGE || !std::isfinite(d)) {
    reject(name, "a number");
    return 0.0;
  }
  return d;
}

void ArgParser::reject(const std::string& name, const char* expected) const {
  if (error_.empty()) {
    error_ = "--" + name + " expects " + expected + ", got '" + get(name) + "'";
  }
}

bool ArgParser::get_bool(const std::string& name) const {
  const std::string v = get(name);
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::string ArgParser::usage(const std::string& program) const {
  std::ostringstream oss;
  oss << "usage: " << program << " [flags]\n";
  for (const std::string& name : order_) {
    const Flag& f = flags_.at(name);
    oss << "  --" << name;
    if (!f.value.empty()) oss << " (default: " << f.value << ")";
    oss << "\n      " << f.help << "\n";
  }
  return oss.str();
}

}  // namespace sccpipe
