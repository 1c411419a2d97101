/// Fault injection for the out-of-core build pipeline: a simulated
/// disk-full / short-read at each of its three failpoint sites
/// ("builder.spill" on chunk writes, "builder.merge" on merge refills,
/// "serial.msync" on the final durability sync) must surface as a clean
/// Status from the build — no crash, no partial Graph — and the same build
/// must succeed once the fault is disarmed.  Needs the failpoint sites
/// compiled in (cmake -DTPA_FAILPOINTS=ON); production builds get a skip.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <utility>

#include "graph/generators.h"
#include "graph/out_of_core.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace tpa {
namespace {

#if !defined(TPA_FAILPOINTS_ENABLED)

TEST(OutOfCoreFaultTest, RequiresFailpointBuild) {
  GTEST_SKIP() << "fault-injection sites are compiled out; rebuild with "
                  "-DTPA_FAILPOINTS=ON to run this suite";
}

#else

class OutOfCoreFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    csr_path_ = ::testing::TempDir() + "/ooc_fault_" +
                std::to_string(::getpid()) + ".csr";
  }
  void TearDown() override {
    DisarmAllFailpoints();
    for (const char* suffix : {"", ".spill-out", ".spill-in"}) {
      std::remove((csr_path_ + suffix).c_str());
    }
  }

  /// One small R-MAT build against the file-backed pipeline.
  StatusOr<OutOfCoreGraph> BuildOnce() {
    RmatOptions rmat;
    rmat.scale = 8;
    rmat.edges = 1u << 12;
    OutOfCoreOptions options;
    options.csr_path = csr_path_;
    return GenerateRmatOutOfCore(rmat, std::move(options));
  }

  std::string csr_path_;
};

TEST_F(OutOfCoreFaultTest, SpillFaultFailsTheBuildCleanly) {
  ArmFailpoint("builder.spill",
               FailpointAction::Error(ResourceExhaustedError(
                   "injected: spill device full")));
  auto built = BuildOnce();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(FailpointHits("builder.spill"), 0);

  DisarmAllFailpoints();
  EXPECT_TRUE(BuildOnce().ok());
}

TEST_F(OutOfCoreFaultTest, MergeFaultFailsTheBuildCleanly) {
  ArmFailpoint("builder.merge",
               FailpointAction::Error(InternalError("injected: short read")));
  auto built = BuildOnce();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInternal);
  EXPECT_GT(FailpointHits("builder.merge"), 0);

  DisarmAllFailpoints();
  EXPECT_TRUE(BuildOnce().ok());
}

TEST_F(OutOfCoreFaultTest, LateMergeFaultStillFailsTheBuild) {
  // Let the counting pass and the out-CSR pass succeed and fail the
  // transpose pass's refill instead — the mapped file exists and is
  // half-written by then, and the build must still come back as a Status.
  // (A single-chunk build refills once per merge: hit 1 counts, hit 2
  // writes the out direction, hit 3 writes the in direction.)
  ArmFailpoint("builder.merge",
               FailpointAction::Error(InternalError("injected: late fault")),
               /*skip=*/2);
  auto built = BuildOnce();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInternal);
}

TEST_F(OutOfCoreFaultTest, MsyncFaultFailsTheFinishCleanly) {
  ArmFailpoint("serial.msync",
               FailpointAction::Error(ResourceExhaustedError(
                   "injected: msync disk full")));
  auto built = BuildOnce();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(FailpointHits("serial.msync"), 0);

  DisarmAllFailpoints();
  EXPECT_TRUE(BuildOnce().ok());
}

TEST_F(OutOfCoreFaultTest, SkippingTheSyncAvoidsTheMsyncSite) {
  ArmFailpoint("serial.msync",
               FailpointAction::Error(InternalError("injected")));
  RmatOptions rmat;
  rmat.scale = 8;
  rmat.edges = 1u << 12;
  OutOfCoreOptions options;
  options.csr_path = csr_path_;
  options.sync_on_finish = false;
  EXPECT_TRUE(GenerateRmatOutOfCore(rmat, std::move(options)).ok());
}

#endif  // TPA_FAILPOINTS_ENABLED

}  // namespace
}  // namespace tpa
