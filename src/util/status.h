// Lightweight Status / StatusOr for recoverable errors.
//
// The Harmony libraries do not throw exceptions. APIs that can fail due to user input (bad
// configuration, infeasible schedules, out-of-range parameters) return Status or
// StatusOr<T>; internal invariants use HCHECK (check.h).
#ifndef HARMONY_SRC_UTIL_STATUS_H_
#define HARMONY_SRC_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "src/util/check.h"

namespace harmony {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kFailedPrecondition,
  kNotFound,
  kResourceExhausted,
  kInternal,
  kUnimplemented,
};

// Returns a stable human-readable name for `code`, e.g. "INVALID_ARGUMENT".
const char* StatusCodeName(StatusCode code);

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Full rendering, e.g. "INVALID_ARGUMENT: microbatch size must be positive".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}
inline Status FailedPreconditionError(std::string message) {
  return Status(StatusCode::kFailedPrecondition, std::move(message));
}
inline Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}
inline Status ResourceExhaustedError(std::string message) {
  return Status(StatusCode::kResourceExhausted, std::move(message));
}
inline Status InternalError(std::string message) {
  return Status(StatusCode::kInternal, std::move(message));
}

// Minimal StatusOr: either an error Status or a value of type T.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    HCHECK(!status_.ok()) << "StatusOr constructed from OK status without a value";
  }
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    HCHECK(ok()) << "value() on error StatusOr: " << status_.ToString();
    return *value_;
  }
  T& value() & {
    HCHECK(ok()) << "value() on error StatusOr: " << status_.ToString();
    return *value_;
  }
  T&& value() && {
    HCHECK(ok()) << "value() on error StatusOr: " << status_.ToString();
    return std::move(*value_);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace harmony

// Propagates an error Status from an expression that yields a Status.
#define HARMONY_RETURN_IF_ERROR(expr)       \
  do {                                      \
    ::harmony::Status _status = (expr);     \
    if (!_status.ok()) {                    \
      return _status;                       \
    }                                       \
  } while (false)

#endif  // HARMONY_SRC_UTIL_STATUS_H_
