/// Resident-memory accounting: /proc counters, the VmHWM peak used by the
/// bench JSON rows, and the ResidentSteward's region drop mechanics.  The
/// watermark-polling path is timing-dependent, so the steward tests drive
/// DropAll directly and only smoke the thread lifecycle.

#include "util/mem_stats.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "util/serial.h"

namespace tpa {
namespace {

TEST(MemStatsTest, CountersAreLiveOnLinux) {
  const MemStats stats = ReadMemStats();
  // A running test binary is resident; the high-water mark can never be
  // below the current set.
  EXPECT_GT(stats.vm_rss_bytes, 0u);
  EXPECT_GE(stats.vm_hwm_bytes, stats.vm_rss_bytes);
  // VmHWM is monotone; the allocator may grow RSS between the two reads
  // (sanitizer builds do), so only the ordering is stable.
  EXPECT_GE(PeakRssBytes(), stats.vm_hwm_bytes);
}

TEST(MemStatsTest, PeakIsMonotone) {
  const size_t before = PeakRssBytes();
  // Touch ~8 MB of fresh heap; the peak may only move up.
  std::string ballast(size_t{8} << 20, 'x');
  ASSERT_EQ(ballast.back(), 'x');
  EXPECT_GE(PeakRssBytes(), before);
}

class ResidentStewardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/steward_" +
            std::to_string(::getpid()) + ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(ResidentStewardTest, DropAllPreservesMappedContents) {
  constexpr size_t kBytes = size_t{4} << 20;
  auto created = MappedFile::Create(path_, kBytes);
  ASSERT_TRUE(created.ok());
  auto file = std::make_shared<MappedFile>(std::move(*created));
  for (size_t i = 0; i < kBytes; ++i) {
    file->mutable_data()[i] = static_cast<uint8_t>(i * 31);
  }

  ResidentSteward::Options options;
  options.budget_bytes = size_t{64} << 20;
  ResidentSteward steward(options);
  steward.RegisterRegion(file, file->data(), file->size());

  // MAP_SHARED dirty pages live in the page cache: dropping the resident
  // copies must not lose a byte.
  steward.DropAll();
  for (size_t i = 0; i < kBytes; i += 4096) {
    ASSERT_EQ(file->data()[i], static_cast<uint8_t>(i * 31)) << "page " << i;
  }
  ASSERT_EQ(file->data()[kBytes - 1],
            static_cast<uint8_t>((kBytes - 1) * 31));
}

TEST_F(ResidentStewardTest, RegisteredOwnerOutlivesCallerHandle) {
  auto created = MappedFile::Create(path_, 1 << 20);
  ASSERT_TRUE(created.ok());
  auto file = std::make_shared<MappedFile>(std::move(*created));
  const uint8_t* data = file->data();

  ResidentSteward steward({});
  steward.RegisterRegion(file, data, file->size());
  file.reset();  // steward's shared_ptr keeps the mapping alive
  steward.DropAll();
}

TEST_F(ResidentStewardTest, StartStopLifecycleIsIdempotent) {
  ResidentSteward::Options options;
  options.budget_bytes = size_t{1} << 30;
  options.poll_interval_ms = 1;
  ResidentSteward steward(options);
  steward.Start();
  steward.Start();  // no-op
  steward.Stop();
  steward.Stop();  // no-op
  steward.Start();
  // Destructor stops the thread.
}

TEST_F(ResidentStewardTest, ZeroBudgetDisablesThePollingThread) {
  ResidentSteward steward({});
  steward.Start();  // no-op under budget 0
  steward.Stop();
  EXPECT_EQ(steward.drop_count(), 0u);
}

}  // namespace
}  // namespace tpa
