#ifndef TPA_UTIL_STATUS_H_
#define TPA_UTIL_STATUS_H_

#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace tpa {

/// Canonical error codes, modeled after the subset of absl::StatusCode that a
/// self-contained library needs.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kFailedPrecondition = 4,
  kResourceExhausted = 5,
  kInternal = 6,
  kUnimplemented = 7,
  kCancelled = 8,
  kDeadlineExceeded = 9,
  /// Stored bytes differ from what was written (a checksum mismatch), as
  /// opposed to kInvalidArgument's well-formed-but-invalid structure.
  kDataLoss = 10,
};

/// Returns a human-readable name for `code` (e.g. "INVALID_ARGUMENT").
std::string_view StatusCodeToString(StatusCode code);

/// Value-semantic error carrier used by every fallible API in this library.
///
/// The library does not throw exceptions; operations that can fail return a
/// `Status` (or `StatusOr<T>` when they also produce a value).  An OK status
/// carries no message and is cheap to copy.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Returns "OK" or "CODE: message".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

// Convenience constructors mirroring absl's free functions.
Status OkStatus();
Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status OutOfRangeError(std::string message);
Status FailedPreconditionError(std::string message);
Status ResourceExhaustedError(std::string message);
Status InternalError(std::string message);
Status UnimplementedError(std::string message);
Status CancelledError(std::string message);
Status DeadlineExceededError(std::string message);
Status DataLossError(std::string message);

/// Union of a `Status` and a value of type `T`.
///
/// Accessing the value of a non-OK StatusOr aborts the program (this library
/// treats it as a programming error, consistent with its no-exceptions
/// policy).  Check `ok()` or use `value_or` style flows first.
template <typename T>
class StatusOr {
 public:
  /// Implicit conversion from a value: a successful result.
  StatusOr(T value) : status_(OkStatus()), value_(std::move(value)) {}
  /// Implicit conversion from a non-OK status: a failed result.
  StatusOr(Status status) : status_(std::move(status)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    AbortIfNotOk();
    return *value_;
  }
  T& value() & {
    AbortIfNotOk();
    return *value_;
  }
  T&& value() && {
    AbortIfNotOk();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void AbortIfNotOk() const;

  Status status_;
  std::optional<T> value_;
};

namespace internal_status {
[[noreturn]] void DieBecauseStatusNotOk(const Status& status);
}  // namespace internal_status

template <typename T>
void StatusOr<T>::AbortIfNotOk() const {
  if (!status_.ok()) internal_status::DieBecauseStatusNotOk(status_);
}

/// Propagates a non-OK status out of the current function.
#define TPA_RETURN_IF_ERROR(expr)                   \
  do {                                              \
    ::tpa::Status tpa_status_macro_value = (expr);  \
    if (!tpa_status_macro_value.ok()) {             \
      return tpa_status_macro_value;                \
    }                                               \
  } while (0)

/// Evaluates `rexpr` (a StatusOr<T>), propagating failure, else assigns the
/// value to `lhs`.  `lhs` may include a declaration, e.g.
/// `TPA_ASSIGN_OR_RETURN(auto g, LoadGraph(path));`
#define TPA_ASSIGN_OR_RETURN(lhs, rexpr)                  \
  TPA_ASSIGN_OR_RETURN_IMPL_(                             \
      TPA_STATUS_MACRO_CONCAT_(statusor_, __LINE__), lhs, rexpr)

#define TPA_ASSIGN_OR_RETURN_IMPL_(statusor, lhs, rexpr) \
  auto statusor = (rexpr);                               \
  if (!statusor.ok()) {                                  \
    return statusor.status();                            \
  }                                                      \
  lhs = std::move(statusor).value()

#define TPA_STATUS_MACRO_CONCAT_INNER_(x, y) x##y
#define TPA_STATUS_MACRO_CONCAT_(x, y) TPA_STATUS_MACRO_CONCAT_INNER_(x, y)

}  // namespace tpa

#endif  // TPA_UTIL_STATUS_H_
