/// Snapshot verification on a WorkerTeam: Crc32Combine and Crc32OnTeam
/// against the byte-at-a-time reference CRC at every split point and on
/// ranges that end on, one byte before and one byte after a 1 MiB piece
/// boundary; and VerifySnapshot's Status — code and message — identical at
/// 1, 2, 3 and 4 threads for flipped bytes in every section, CSR and
/// stranger-order faults behind resealed checksums, and two corruptions at
/// once (the first in section-table order wins).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "snapshot/format.h"
#include "snapshot/snapshot.h"
#include "util/serial.h"
#include "util/worker_team.h"

namespace tpa {
namespace {

/// The byte-at-a-time table loop over the CRC-32 polynomial.
uint32_t ReferenceCrc32(const uint8_t* data, size_t size) {
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
  uint32_t crc = ~0u;
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ data[i]) & 0xFFu];
  }
  return ~crc;
}

std::vector<uint8_t> RandomBytes(size_t size, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<uint8_t> bytes(size);
  for (uint8_t& byte : bytes) byte = static_cast<uint8_t>(rng());
  return bytes;
}

TEST(Crc32CombineTest, EqualsTheReferenceAtEverySplitPoint) {
  const std::vector<uint8_t> bytes = RandomBytes(300, 1);
  const uint32_t whole = ReferenceCrc32(bytes.data(), bytes.size());
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t a = ReferenceCrc32(bytes.data(), split);
    const uint32_t b =
        ReferenceCrc32(bytes.data() + split, bytes.size() - split);
    EXPECT_EQ(Crc32Combine(a, b, bytes.size() - split), whole)
        << "split " << split;
  }
}

TEST(Crc32CombineTest, CombinesAcrossAPieceBoundary) {
  const std::vector<uint8_t> bytes =
      RandomBytes(3 * kCrc32PieceBytes + 5, 2);
  const uint32_t whole = ReferenceCrc32(bytes.data(), bytes.size());
  for (size_t split : {size_t{1}, kCrc32PieceBytes - 1, kCrc32PieceBytes,
                       kCrc32PieceBytes + 1, 2 * kCrc32PieceBytes,
                       bytes.size() - 1}) {
    const uint32_t a = ReferenceCrc32(bytes.data(), split);
    const uint32_t b =
        ReferenceCrc32(bytes.data() + split, bytes.size() - split);
    EXPECT_EQ(Crc32Combine(a, b, bytes.size() - split), whole)
        << "split " << split;
  }
}

TEST(Crc32OnTeamTest, EqualsTheReferenceAtEveryTeamSize) {
  const std::vector<uint8_t> bytes =
      RandomBytes(4 * kCrc32PieceBytes + 128, 3);
  // Empty, tiny, and ending one byte before, on and one byte after the
  // first and second piece boundaries.
  const size_t sizes[] = {0, 1, kCrc32PieceBytes - 1, kCrc32PieceBytes,
                          kCrc32PieceBytes + 1, 2 * kCrc32PieceBytes - 1,
                          2 * kCrc32PieceBytes, 2 * kCrc32PieceBytes + 1, 0,
                          4 * kCrc32PieceBytes + 64};
  std::vector<ByteRange> ranges;
  std::vector<uint32_t> want;
  size_t start = 0;
  for (size_t size : sizes) {
    // Stagger the starts so pieces do not all begin on aligned addresses.
    start = (start + 13) % 64;
    ranges.push_back({bytes.data() + start, size});
    want.push_back(ReferenceCrc32(bytes.data() + start, size));
  }
  EXPECT_EQ(Crc32PieceCount({ranges.data(), 3}), 2u);
  EXPECT_EQ(Crc32PieceCount({ranges.data() + 4, 1}), 2u);
  for (int threads = 1; threads <= 4; ++threads) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    WorkerTeam team(threads);
    EXPECT_EQ(Crc32OnTeam(ranges, team), want);
    EXPECT_TRUE(Crc32OnTeam({}, team).empty());
    EXPECT_EQ(Crc32OnTeam({ranges.data(), 1}, team),
              std::vector<uint32_t>{0u});
  }
}

/// A snapshot whose index and value sections span several 1 MiB pieces,
/// verified on teams of 1 to 4 threads.
class VerifyThreadsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RmatOptions rmat;
    rmat.scale = 15;
    rmat.edges = uint64_t{1} << 19;
    rmat.seed = 42;
    auto graph = GenerateRmat(rmat, BuildOptions{});
    ASSERT_TRUE(graph.ok()) << graph.status().message();
    auto tpa = Tpa::Preprocess(*graph, TpaOptions{});
    ASSERT_TRUE(tpa.ok()) << tpa.status().message();
    const std::string path = ::testing::TempDir() + "/verify_threads_" +
                             std::to_string(::getpid()) + ".tpasnap";
    ASSERT_TRUE(tpa->SaveSnapshot(path).ok());
    std::ifstream in(path, std::ios::binary);
    clean_ = new std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                                      std::istreambuf_iterator<char>());
    std::remove(path.c_str());
  }
  static void TearDownTestSuite() {
    delete clean_;
    clean_ = nullptr;
  }

  void SetUp() override {
    path_ = ::testing::TempDir() + "/verify_threads_case_" +
            std::to_string(::getpid()) + ".tpasnap";
    for (int threads = 1; threads <= 4; ++threads) {
      teams_.push_back(std::make_unique<WorkerTeam>(threads));
    }
  }
  void TearDown() override { std::remove(path_.c_str()); }

  static std::vector<snapshot::SectionDesc> Table(
      const std::vector<uint8_t>& bytes) {
    snapshot::SnapshotHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    std::vector<snapshot::SectionDesc> table(header.section_count);
    std::memcpy(table.data(), bytes.data() + header.section_table_offset,
                table.size() * sizeof(snapshot::SectionDesc));
    return table;
  }

  static const snapshot::SectionDesc& Section(
      const std::vector<snapshot::SectionDesc>& table, snapshot::SectionId id) {
    for (const snapshot::SectionDesc& desc : table) {
      if (desc.id == static_cast<uint32_t>(id)) return desc;
    }
    ADD_FAILURE() << "no section " << static_cast<uint32_t>(id);
    return table.front();
  }

  /// Recomputes every payload checksum and the table's, so only the
  /// structural checks can see an edit.
  static void Reseal(std::vector<uint8_t>& bytes) {
    snapshot::SnapshotHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    std::vector<snapshot::SectionDesc> table = Table(bytes);
    for (snapshot::SectionDesc& desc : table) {
      desc.crc = ReferenceCrc32(bytes.data() + desc.offset, desc.size_bytes);
    }
    const size_t table_bytes = table.size() * sizeof(snapshot::SectionDesc);
    std::memcpy(bytes.data() + header.section_table_offset, table.data(),
                table_bytes);
    header.section_table_crc =
        ReferenceCrc32(bytes.data() + header.section_table_offset,
                       table_bytes);
    std::memcpy(bytes.data(), &header, sizeof(header));
  }

  template <typename T>
  static T* Array(std::vector<uint8_t>& bytes, snapshot::SectionId id) {
    return reinterpret_cast<T*>(bytes.data() +
                                Section(Table(bytes), id).offset);
  }

  /// Writes `bytes`, verifies on every team, and checks that each team size
  /// returns the 1-thread Status; returns that Status.
  Status VerifyOnEveryTeam(const std::vector<uint8_t>& bytes) {
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    const Status first = snapshot::VerifySnapshot(path_, teams_[0].get());
    for (size_t t = 1; t < teams_.size(); ++t) {
      const Status status = snapshot::VerifySnapshot(path_, teams_[t].get());
      EXPECT_EQ(status.code(), first.code()) << t + 1 << " threads";
      EXPECT_EQ(status.message(), first.message()) << t + 1 << " threads";
    }
    return first;
  }

  static std::vector<uint8_t>* clean_;
  std::string path_;
  std::vector<std::unique_ptr<WorkerTeam>> teams_;
};

std::vector<uint8_t>* VerifyThreadsTest::clean_ = nullptr;

TEST_F(VerifyThreadsTest, CleanFilePassesAtEveryTeamSize) {
  ASSERT_NE(clean_, nullptr);
  // The fixture is only a threads test if some section spans pieces.
  size_t multi_piece = 0;
  for (const snapshot::SectionDesc& desc : Table(*clean_)) {
    multi_piece += desc.size_bytes > kCrc32PieceBytes;
  }
  EXPECT_GE(multi_piece, 3u);
  EXPECT_TRUE(VerifyOnEveryTeam(*clean_).ok());
  EXPECT_TRUE(snapshot::VerifySnapshot(path_).ok());
}

TEST_F(VerifyThreadsTest, FlippedBytesReportTheSameDataLossAtEveryTeamSize) {
  ASSERT_NE(clean_, nullptr);
  for (const snapshot::SectionDesc& desc : Table(*clean_)) {
    std::vector<uint64_t> flips = {0, desc.size_bytes - 1};
    if (desc.size_bytes > kCrc32PieceBytes) {
      // Either side of the first piece boundary.
      flips.push_back(kCrc32PieceBytes - 1);
      flips.push_back(kCrc32PieceBytes);
    }
    for (uint64_t at : flips) {
      SCOPED_TRACE("section " + std::to_string(desc.id) + " byte " +
                   std::to_string(at));
      std::vector<uint8_t> bytes = *clean_;
      bytes[desc.offset + at] ^= 0x10;
      const Status status = VerifyOnEveryTeam(bytes);
      EXPECT_EQ(status.code(), StatusCode::kDataLoss);
      EXPECT_TRUE(status.message().ends_with(
          "payload checksum mismatch in section id " +
          std::to_string(desc.id)))
          << status.message();
    }
  }
}

TEST_F(VerifyThreadsTest, StructuralFaultsReportTheSameErrorAtEveryTeamSize) {
  ASSERT_NE(clean_, nullptr);
  snapshot::MetaSection meta;
  std::memcpy(&meta,
              clean_->data() +
                  Section(Table(*clean_), snapshot::SectionId::kMeta).offset,
              sizeof(meta));
  const uint64_t n = meta.num_nodes;
  const uint64_t m = meta.num_edges;
  ASSERT_GT(m, kCrc32PieceBytes / sizeof(uint32_t));

  {
    SCOPED_TRACE("out-of-range in-index in a later chunk");
    std::vector<uint8_t> bytes = *clean_;
    Array<uint32_t>(bytes, snapshot::SectionId::kInIndices)[m - 2] =
        static_cast<uint32_t>(n);
    Reseal(bytes);
    const Status status = VerifyOnEveryTeam(bytes);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("in-CSR: col_indices[" +
                                    std::to_string(m - 2) + "]"),
              std::string::npos)
        << status.message();
  }
  {
    SCOPED_TRACE("non-monotone out-offset");
    std::vector<uint8_t> bytes = *clean_;
    uint64_t* offsets =
        Array<uint64_t>(bytes, snapshot::SectionId::kOutOffsets);
    offsets[n / 2] = offsets[n / 2 + 1] + 1;
    Reseal(bytes);
    const Status status = VerifyOnEveryTeam(bytes);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("out-CSR: row_offsets not monotone"),
              std::string::npos)
        << status.message();
  }
  {
    SCOPED_TRACE("duplicate stranger-order entry");
    std::vector<uint8_t> bytes = *clean_;
    uint32_t* order =
        Array<uint32_t>(bytes, snapshot::SectionId::kStrangerOrder);
    order[n - 1] = order[0];
    Reseal(bytes);
    const Status status = VerifyOnEveryTeam(bytes);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("stranger order"), std::string::npos)
        << status.message();
  }
  {
    SCOPED_TRACE("faults in both directions and the order: out-CSR first");
    std::vector<uint8_t> bytes = *clean_;
    Array<uint32_t>(bytes, snapshot::SectionId::kStrangerOrder)[1] = 0;
    Array<uint32_t>(bytes, snapshot::SectionId::kInIndices)[0] = ~0u;
    Array<uint32_t>(bytes, snapshot::SectionId::kOutIndices)[m - 1] = ~0u;
    Reseal(bytes);
    const Status status = VerifyOnEveryTeam(bytes);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("out-CSR"), std::string::npos)
        << status.message();
  }
}

TEST_F(VerifyThreadsTest, TheFirstCorruptSectionInTableOrderIsReported) {
  ASSERT_NE(clean_, nullptr);
  const std::vector<snapshot::SectionDesc> table = Table(*clean_);
  // Every pair of sections, flipped together: the earlier one in the
  // table is named, whichever member finishes first.
  for (size_t first = 0; first < table.size(); ++first) {
    for (size_t second = first + 1; second < table.size(); ++second) {
      SCOPED_TRACE("sections " + std::to_string(table[first].id) + " and " +
                   std::to_string(table[second].id));
      std::vector<uint8_t> bytes = *clean_;
      bytes[table[second].offset] ^= 0x01;
      bytes[table[first].offset + table[first].size_bytes - 1] ^= 0x01;
      const Status status = VerifyOnEveryTeam(bytes);
      EXPECT_EQ(status.code(), StatusCode::kDataLoss);
      EXPECT_TRUE(status.message().ends_with(
          "section id " + std::to_string(table[first].id)))
          << status.message();
    }
  }
}

}  // namespace
}  // namespace tpa
