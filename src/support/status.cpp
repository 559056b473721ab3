#include "sccpipe/support/status.hpp"

namespace sccpipe {

const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::Ok: return "Ok";
    case StatusCode::Timeout: return "Timeout";
    case StatusCode::RetriesExhausted: return "RetriesExhausted";
    case StatusCode::DeadlineExceeded: return "DeadlineExceeded";
    case StatusCode::Unavailable: return "Unavailable";
    case StatusCode::Cancelled: return "Cancelled";
    case StatusCode::InvalidArgument: return "InvalidArgument";
  }
  return "?";
}

std::string Status::to_string() const {
  if (ok()) return "Ok";
  std::string s = status_code_name(code_);
  if (!message_.empty()) {
    s += ": ";
    s += message_;
  }
  return s;
}

}  // namespace sccpipe
