#include "util/status.h"

#include <gtest/gtest.h>

namespace tpa {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad seed");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad seed");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad seed");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(OkStatus(), Status());
  EXPECT_EQ(NotFoundError("x"), NotFoundError("x"));
  EXPECT_FALSE(NotFoundError("x") == NotFoundError("y"));
  EXPECT_FALSE(NotFoundError("x") == InternalError("x"));
}

TEST(StatusTest, AllConstructorsMapToCodes) {
  EXPECT_EQ(InvalidArgumentError("m").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(NotFoundError("m").code(), StatusCode::kNotFound);
  EXPECT_EQ(OutOfRangeError("m").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(FailedPreconditionError("m").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ResourceExhaustedError("m").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(InternalError("m").code(), StatusCode::kInternal);
  EXPECT_EQ(UnimplementedError("m").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(CancelledError("m").code(), StatusCode::kCancelled);
  EXPECT_EQ(DeadlineExceededError("m").code(), StatusCode::kDeadlineExceeded);
}

TEST(StatusTest, DataLossHasItsOwnCode) {
  const Status status = DataLossError("checksum mismatch");
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(StatusCodeToString(StatusCode::kDataLoss), "DATA_LOSS");
  EXPECT_EQ(status.ToString(), "DATA_LOSS: checksum mismatch");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = NotFoundError("missing");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> result = std::string("hello");
  std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "hello");
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return InvalidArgumentError("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  TPA_ASSIGN_OR_RETURN(int h, Half(x));
  TPA_RETURN_IF_ERROR(OkStatus());
  *out = h;
  return OkStatus();
}

TEST(StatusMacrosTest, AssignOrReturnPropagatesValue) {
  int out = 0;
  ASSERT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
}

TEST(StatusMacrosTest, AssignOrReturnPropagatesError) {
  int out = 0;
  Status s = UseHalf(3, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(out, 0);
}

TEST(StatusOrDeathTest, ValueOnErrorAborts) {
  StatusOr<int> result = InternalError("boom");
  EXPECT_DEATH({ (void)result.value(); }, "boom");
}

}  // namespace
}  // namespace tpa
