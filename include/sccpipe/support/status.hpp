#pragma once

/// \file status.hpp
/// Typed, non-throwing error reporting for the fault-tolerant transports.
/// SCCPIPE_CHECK (check.hpp) covers programming errors — misuse that should
/// never happen; Status covers *expected* runtime outcomes of an unreliable
/// system: a transfer that timed out, a retry budget that ran dry, a
/// deadline that passed. Callers that opt into fault injection receive a
/// Status through their completion callbacks instead of an exception, so a
/// degraded run can finish its bookkeeping and report what failed where.

#include <string>
#include <utility>

namespace sccpipe {

enum class StatusCode {
  Ok = 0,
  Timeout,            ///< a single attempt's loss-detection deadline expired
  RetriesExhausted,   ///< every attempt of the retry budget was lost
  DeadlineExceeded,   ///< the per-transfer deadline passed before delivery
  Unavailable,        ///< the target resource is faulted out of service
  Cancelled,          ///< the operation was abandoned (run aborting)
  InvalidArgument,    ///< malformed user input (e.g. a fault-plan string)
};

const char* status_code_name(StatusCode code);

class Status {
 public:
  /// Default-constructed Status is success.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  bool ok() const { return code_ == StatusCode::Ok; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "RetriesExhausted: rcce 3->5 gave up after 4 attempts" (or "Ok").
  std::string to_string() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::Ok;
  std::string message_;
};

}  // namespace sccpipe
