/// Serialization utilities: CRC-32 against published vectors and the
/// byte-at-a-time reference loop, the aligned binary writer's layout and
/// replace-on-Close contracts, and MappedFile's mmap RAII.

#include "util/serial.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace tpa {
namespace {

class SerialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/serial_test_" +
            std::to_string(::getpid()) + ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

/// The byte-at-a-time table loop over the same polynomial: the reference
/// the slice-by-16 Crc32 must match value for value.
uint32_t ReferenceCrc32(const void* data, size_t size, uint32_t seed = 0) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ bytes[i]) & 0xFFu];
  }
  return ~crc;
}

std::vector<uint8_t> RandomBytes(size_t size, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint8_t> bytes(size);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng());
  return bytes;
}

TEST(Crc32Test, MatchesPublishedVectors) {
  // The standard CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("abc", 3), 0x352441C2u);
}

TEST(Crc32Test, ChainsAcrossCalls) {
  const uint32_t whole = Crc32("123456789", 9);
  uint32_t chained = Crc32("1234", 4);
  chained = Crc32("56789", 5, chained);
  EXPECT_EQ(chained, whole);
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  std::vector<uint8_t> data(257, 0xA5);
  const uint32_t clean = Crc32(data.data(), data.size());
  for (size_t i = 0; i < data.size(); i += 64) {
    data[i] ^= 0x01;
    EXPECT_NE(Crc32(data.data(), data.size()), clean) << "flip at " << i;
    data[i] ^= 0x01;
  }
}

/// Every length through several 16-byte blocks plus every tail, at every
/// start offset within a block, so unaligned words and all 16 tail sizes
/// are covered.
TEST(Crc32Test, MatchesByteLoopAtEveryLengthAndAlignment) {
  const std::vector<uint8_t> data = RandomBytes(4096 + 16, 1);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t length = 0; length <= 4096; ++length) {
      ASSERT_EQ(Crc32(data.data() + offset, length),
                ReferenceCrc32(data.data() + offset, length))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, MatchesByteLoopWithRandomSeeds) {
  const std::vector<uint8_t> data = RandomBytes(1000, 2);
  std::mt19937_64 rng(3);
  for (int i = 0; i < 2000; ++i) {
    const uint32_t seed = static_cast<uint32_t>(rng()) | 1u;  // nonzero
    const size_t offset = rng() % 16;
    const size_t length = rng() % (data.size() - offset + 1);
    ASSERT_EQ(Crc32(data.data() + offset, length, seed),
              ReferenceCrc32(data.data() + offset, length, seed))
        << "seed " << seed << " offset " << offset << " length " << length;
  }
}

TEST(Crc32Test, ChainsAtEverySplitPoint) {
  const std::vector<uint8_t> data = RandomBytes(257, 4);
  const uint32_t whole = ReferenceCrc32(data.data(), data.size());
  ASSERT_EQ(Crc32(data.data(), data.size()), whole);
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t head = Crc32(data.data(), split);
    EXPECT_EQ(Crc32(data.data() + split, data.size() - split, head), whole)
        << "split at " << split;
  }
}

TEST(Crc32Test, MatchesByteLoopOnALargeBuffer) {
  const std::vector<uint8_t> data = RandomBytes((size_t{1} << 20) + 13, 5);
  EXPECT_EQ(Crc32(data.data(), data.size()),
            ReferenceCrc32(data.data(), data.size()));
  EXPECT_EQ(Crc32(data.data() + 3, data.size() - 3, 0xDEADBEEFu),
            ReferenceCrc32(data.data() + 3, data.size() - 3, 0xDEADBEEFu));
}

TEST_F(SerialTest, WriterTracksOffsetAndAligns) {
  auto writer = BinaryFileWriter::Create(path_);
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ(writer->offset(), 0u);
  ASSERT_TRUE(writer->WriteBytes("abc", 3).ok());
  EXPECT_EQ(writer->offset(), 3u);
  ASSERT_TRUE(writer->AlignTo(64).ok());
  EXPECT_EQ(writer->offset(), 64u);
  // Already aligned: a second AlignTo is a no-op.
  ASSERT_TRUE(writer->AlignTo(64).ok());
  EXPECT_EQ(writer->offset(), 64u);
  ASSERT_TRUE(writer->WriteBytes("z", 1).ok());
  ASSERT_TRUE(writer->AlignTo(8).ok());
  EXPECT_EQ(writer->offset(), 72u);
  ASSERT_TRUE(writer->Close().ok());

  // The padding is zero bytes and the payload lands where offset() said.
  std::ifstream in(path_, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_EQ(bytes.size(), 72u);
  EXPECT_EQ(bytes[0], 'a');
  EXPECT_EQ(bytes[2], 'c');
  for (size_t i = 3; i < 64; ++i) EXPECT_EQ(bytes[i], 0) << "pad at " << i;
  EXPECT_EQ(bytes[64], 'z');
}

TEST_F(SerialTest, WriterRejectsUseAfterClose) {
  auto writer = BinaryFileWriter::Create(path_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_EQ(writer->WriteBytes("x", 1).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(writer->Close().code(), StatusCode::kFailedPrecondition);
}

/// The writer fills a sibling temp file; `path` keeps its old bytes until
/// Close() renames the new file over it, and an abandoned writer leaves
/// neither a changed `path` nor a temp file behind.
TEST_F(SerialTest, WriterReplacesThePathOnlyOnClose) {
  const auto read_path = [this] {
    std::ifstream in(path_, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const auto temp_files = [this] {
    const std::filesystem::path path(path_);
    const std::string prefix = path.filename().string() + ".tmp.";
    size_t count = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(path.parent_path())) {
      if (entry.path().filename().string().rfind(prefix, 0) == 0) ++count;
    }
    return count;
  };
  {
    auto writer = BinaryFileWriter::Create(path_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->WriteBytes("old", 3).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  EXPECT_EQ(read_path(), "old");
  EXPECT_EQ(temp_files(), 0u);
  {
    auto abandoned = BinaryFileWriter::Create(path_);
    ASSERT_TRUE(abandoned.ok());
    ASSERT_TRUE(abandoned->WriteBytes("abandoned", 9).ok());
    EXPECT_EQ(temp_files(), 1u);
    EXPECT_EQ(read_path(), "old");
  }
  EXPECT_EQ(read_path(), "old");
  EXPECT_EQ(temp_files(), 0u);
  {
    auto writer = BinaryFileWriter::Create(path_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->WriteBytes("newer", 5).ok());
    EXPECT_EQ(read_path(), "old");
    ASSERT_TRUE(writer->Close().ok());
  }
  EXPECT_EQ(read_path(), "newer");
  EXPECT_EQ(temp_files(), 0u);
}

TEST_F(SerialTest, MappedFileRoundTrips) {
  {
    auto writer = BinaryFileWriter::Create(path_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->WriteBytes("hello mmap", 10).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  ASSERT_EQ(file->size(), 10u);
  EXPECT_EQ(std::memcmp(file->data(), "hello mmap", 10), 0);
}

TEST_F(SerialTest, MappedFileMoveTransfersOwnership) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "abc";
  }
  auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  MappedFile moved = std::move(*file);
  ASSERT_EQ(moved.size(), 3u);
  EXPECT_EQ(std::memcmp(moved.data(), "abc", 3), 0);
}

TEST_F(SerialTest, MappedFileHandlesEmptyFile) {
  { std::ofstream out(path_, std::ios::binary); }
  auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->size(), 0u);
}

TEST_F(SerialTest, MappedFileMissingFileIsAnError) {
  auto file = MappedFile::Open(path_ + ".does-not-exist");
  EXPECT_FALSE(file.ok());
}

TEST_F(SerialTest, WritableMappingPersistsThroughSync) {
  {
    auto file = MappedFile::Create(path_, 4096);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->writable());
    ASSERT_NE(file->mutable_data(), nullptr);
    std::memcpy(file->mutable_data(), "written in place", 16);
    file->mutable_data()[4095] = 0x7F;
    ASSERT_TRUE(file->Sync().ok());
  }
  auto readback = MappedFile::Open(path_);
  ASSERT_TRUE(readback.ok());
  ASSERT_EQ(readback->size(), 4096u);
  EXPECT_EQ(std::memcmp(readback->data(), "written in place", 16), 0);
  EXPECT_EQ(readback->data()[4095], 0x7F);
  // A read-only mapping exposes no writable view and refuses Sync.
  EXPECT_FALSE(readback->writable());
  EXPECT_EQ(readback->mutable_data(), nullptr);
  EXPECT_EQ(readback->Sync().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SerialTest, CreateRequiresPositiveSize) {
  EXPECT_FALSE(MappedFile::Create(path_, 0).ok());
}

TEST_F(SerialTest, AdviseIsAcceptedOnEveryHint) {
  auto file = MappedFile::Create(path_, 1 << 16);
  ASSERT_TRUE(file.ok());
  for (MappedAdvice advice :
       {MappedAdvice::kNormal, MappedAdvice::kSequential, MappedAdvice::kRandom,
        MappedAdvice::kWillNeed, MappedAdvice::kDontNeed}) {
    EXPECT_TRUE(file->Advise(advice).ok());
  }
  // Sub-range advice with an unaligned offset is aligned down internally.
  EXPECT_TRUE(file->Advise(MappedAdvice::kDontNeed, 100, 8000).ok());
}

class ExternalSortTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/extsort_" +
            std::to_string(::getpid()) + ".spill";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Pushes `records` through a sorter with the given chunk capacity and
  /// checks the merged stream equals std::sort of the same records
  /// (duplicates preserved).
  void RoundTrip(std::vector<uint64_t> records, size_t chunk_records,
                 size_t expected_chunks, size_t merge_buffer_records = 4) {
    ExternalU64Sorter::Options options;
    options.spill_path = path_;
    options.chunk_records = chunk_records;
    options.merge_buffer_records = merge_buffer_records;
    auto sorter = ExternalU64Sorter::Create(options);
    ASSERT_TRUE(sorter.ok());
    for (uint64_t r : records) ASSERT_TRUE(sorter->Add(r).ok());
    ASSERT_TRUE(sorter->Seal().ok());
    EXPECT_EQ(sorter->record_count(), records.size());
    EXPECT_EQ(sorter->chunk_count(), expected_chunks);

    std::vector<uint64_t> expected = records;
    std::sort(expected.begin(), expected.end());

    // Twice: Merge() must be re-runnable over the same spill.
    for (int pass = 0; pass < 2; ++pass) {
      auto stream = sorter->Merge();
      ASSERT_TRUE(stream.ok());
      std::vector<uint64_t> merged;
      uint64_t record = 0;
      while (stream->Next(&record)) merged.push_back(record);
      ASSERT_TRUE(stream->status().ok());
      EXPECT_EQ(merged, expected) << "pass " << pass;
    }
  }

  std::string path_;
};

/// Deterministic scrambled sequence with duplicates sprinkled in.
std::vector<uint64_t> ScrambledRecords(size_t count) {
  std::vector<uint64_t> records(count);
  for (size_t i = 0; i < count; ++i) {
    records[i] = (i * 0x9E3779B97F4A7C15ULL) >> 13;
    if (i % 7 == 0) records[i] = records[i / 2];  // cross-chunk duplicates
  }
  return records;
}

TEST_F(ExternalSortTest, CountExactlyOnChunkBoundary) {
  RoundTrip(ScrambledRecords(64), /*chunk_records=*/8, /*expected_chunks=*/8);
}

TEST_F(ExternalSortTest, CountOneBelowChunkBoundary) {
  RoundTrip(ScrambledRecords(63), /*chunk_records=*/8, /*expected_chunks=*/8);
}

TEST_F(ExternalSortTest, CountOneAboveChunkBoundary) {
  RoundTrip(ScrambledRecords(65), /*chunk_records=*/8, /*expected_chunks=*/9);
}

TEST_F(ExternalSortTest, SingleChunkStaysInOneSpill) {
  RoundTrip(ScrambledRecords(5), /*chunk_records=*/1024,
            /*expected_chunks=*/1);
}

TEST_F(ExternalSortTest, SingleRecordPerChunkDegenerate) {
  RoundTrip(ScrambledRecords(9), /*chunk_records=*/1, /*expected_chunks=*/9);
}

TEST_F(ExternalSortTest, AllDuplicatesSurviveTheMerge) {
  RoundTrip(std::vector<uint64_t>(40, 0xDEADBEEFULL), /*chunk_records=*/8,
            /*expected_chunks=*/5);
}

TEST_F(ExternalSortTest, EmptySorterMergesToEmptyStream) {
  ExternalU64Sorter::Options options;
  options.spill_path = path_;
  options.chunk_records = 8;
  auto sorter = ExternalU64Sorter::Create(options);
  ASSERT_TRUE(sorter.ok());
  ASSERT_TRUE(sorter->Seal().ok());
  EXPECT_EQ(sorter->record_count(), 0u);
  EXPECT_EQ(sorter->chunk_count(), 0u);
  auto stream = sorter->Merge();
  ASSERT_TRUE(stream.ok());
  uint64_t record = 0;
  EXPECT_FALSE(stream->Next(&record));
  EXPECT_TRUE(stream->status().ok());
}

TEST_F(ExternalSortTest, AddAfterSealIsAnError) {
  ExternalU64Sorter::Options options;
  options.spill_path = path_;
  auto sorter = ExternalU64Sorter::Create(options);
  ASSERT_TRUE(sorter.ok());
  ASSERT_TRUE(sorter->Add(1).ok());
  ASSERT_TRUE(sorter->Seal().ok());
  EXPECT_FALSE(sorter->Add(2).ok());
  // Seal is idempotent.
  EXPECT_TRUE(sorter->Seal().ok());
}

TEST_F(ExternalSortTest, MergeBeforeSealIsAnError) {
  ExternalU64Sorter::Options options;
  options.spill_path = path_;
  auto sorter = ExternalU64Sorter::Create(options);
  ASSERT_TRUE(sorter.ok());
  EXPECT_FALSE(sorter->Merge().ok());
}

TEST_F(ExternalSortTest, SpillFileIsUnlinkedOnDestruction) {
  {
    ExternalU64Sorter::Options options;
    options.spill_path = path_;
    options.chunk_records = 4;
    auto sorter = ExternalU64Sorter::Create(options);
    ASSERT_TRUE(sorter.ok());
    for (uint64_t r = 0; r < 32; ++r) ASSERT_TRUE(sorter->Add(r).ok());
    ASSERT_TRUE(sorter->Seal().ok());
    EXPECT_GT(sorter->spilled_bytes(), 0u);
  }
  std::ifstream gone(path_);
  EXPECT_FALSE(gone.good());
}

}  // namespace
}  // namespace tpa
