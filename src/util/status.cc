#include "util/status.h"

#include <cstdio>
#include <cstdlib>

namespace tpa {

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kUnimplemented:
      return "UNIMPLEMENTED";
    case StatusCode::kCancelled:
      return "CANCELLED";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kDataLoss:
      return "DATA_LOSS";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeToString(code_));
  out += ": ";
  out += message_;
  return out;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

Status OkStatus() { return Status(); }
Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}
Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}
Status OutOfRangeError(std::string message) {
  return Status(StatusCode::kOutOfRange, std::move(message));
}
Status FailedPreconditionError(std::string message) {
  return Status(StatusCode::kFailedPrecondition, std::move(message));
}
Status ResourceExhaustedError(std::string message) {
  return Status(StatusCode::kResourceExhausted, std::move(message));
}
Status InternalError(std::string message) {
  return Status(StatusCode::kInternal, std::move(message));
}
Status UnimplementedError(std::string message) {
  return Status(StatusCode::kUnimplemented, std::move(message));
}
Status CancelledError(std::string message) {
  return Status(StatusCode::kCancelled, std::move(message));
}
Status DeadlineExceededError(std::string message) {
  return Status(StatusCode::kDeadlineExceeded, std::move(message));
}
Status DataLossError(std::string message) {
  return Status(StatusCode::kDataLoss, std::move(message));
}

namespace internal_status {

void DieBecauseStatusNotOk(const Status& status) {
  std::fprintf(stderr, "StatusOr value() called on error status: %s\n",
               status.ToString().c_str());
  std::abort();
}

}  // namespace internal_status

}  // namespace tpa
