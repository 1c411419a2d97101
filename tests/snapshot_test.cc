/// Snapshot persistence: save → load → query bitwise-identity across both
/// precision tiers, both value-storage modes (covering both
/// CsrValueModes), and both load modes (mmap views and heap copies);
/// warm-started engines (sync and async) serving bitwise the
/// fresh-preprocess results; the corruption matrix (truncation, bad
/// magic/version/endianness, checksum flips, an overflowing edge count, the
/// retired permutation flag) surfacing as Status errors —
/// never crashes; mmap-view lifetime under ASan; and a rewrite of the
/// file a kMap load is serving, which must not reach the old mapping.

#include "snapshot/snapshot.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/async_query_engine.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "method/tpa_method.h"
#include "snapshot/format.h"
#include "util/failpoint.h"
#include "util/mem_stats.h"
#include "util/serial.h"

namespace tpa {
namespace {

Graph MakeGraph(la::Precision precision, ValueStorage storage) {
  RmatOptions rmat;
  rmat.scale = 8;
  rmat.edges = 4096;
  rmat.seed = 42;
  BuildOptions build;
  build.value_precision = precision;
  build.value_storage = storage;
  auto graph = GenerateRmat(rmat, build);
  EXPECT_TRUE(graph.ok()) << graph.status().message();
  return std::move(*graph);
}

Tpa MakeTpa(const Graph& graph) {
  auto tpa = Tpa::Preprocess(graph, TpaOptions{});
  EXPECT_TRUE(tpa.ok()) << tpa.status().message();
  return std::move(*tpa);
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/snapshot_test_" +
            std::to_string(::getpid()) + ".tpasnap";
  }
  void TearDown() override {
    DisarmAllFailpoints();
    std::remove(path_.c_str());
  }

  std::vector<uint8_t> ReadFileBytes() const {
    std::ifstream in(path_, std::ios::binary);
    return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  }
  void WriteFileBytes(const std::vector<uint8_t>& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
};

/// The tentpole contract, across every configuration axis: a query against
/// the loaded state is bitwise-identical to one against the original
/// preprocessed state.
TEST_F(SnapshotTest, RoundTripIsBitwiseAcrossTiersStoragesAndLoadModes) {
  const la::Precision precisions[] = {la::Precision::kFloat64,
                                      la::Precision::kFloat32};
  const ValueStorage storages[] = {ValueStorage::kExplicit,
                                   ValueStorage::kRowConstant};
  const snapshot::LoadMode modes[] = {snapshot::LoadMode::kMap,
                                      snapshot::LoadMode::kCopy};
  for (la::Precision precision : precisions) {
    for (ValueStorage storage : storages) {
      const Graph graph = MakeGraph(precision, storage);
      const Tpa fresh = MakeTpa(graph);
      ASSERT_TRUE(fresh.SaveSnapshot(path_).ok());
      for (snapshot::LoadMode mode : modes) {
        SCOPED_TRACE(std::string(la::PrecisionName(precision)) +
                     (storage == ValueStorage::kExplicit ? "/explicit"
                                                         : "/value-free") +
                     (mode == snapshot::LoadMode::kMap ? "/mmap" : "/copy"));
        snapshot::LoadOptions load;
        load.mode = mode;
        auto loaded = Tpa::LoadSnapshot(path_, load);
        ASSERT_TRUE(loaded.ok()) << loaded.status().message();
        ASSERT_EQ(loaded->graph->num_nodes(), graph.num_nodes());
        ASSERT_EQ(loaded->graph->num_edges(), graph.num_edges());
        EXPECT_EQ(loaded->graph->value_precision(), precision);
        EXPECT_EQ(loaded->graph->value_storage(), storage);
        // The stored preprocessed arrays round-trip bitwise.
        EXPECT_EQ(loaded->tpa->stranger_scores(), fresh.stranger_scores());
        EXPECT_EQ(loaded->tpa->stranger_scores_f32(),
                  fresh.stranger_scores_f32());
        EXPECT_EQ(loaded->tpa->stranger_order(), fresh.stranger_order());
        for (NodeId seed : {NodeId{0}, NodeId{7}, NodeId{200}}) {
          if (precision == la::Precision::kFloat64) {
            EXPECT_EQ(loaded->tpa->Query(seed), fresh.Query(seed));
          } else {
            EXPECT_EQ(loaded->tpa->QueryF(seed), fresh.QueryF(seed));
          }
          const auto fresh_topk = fresh.QueryTopK(seed, 10);
          const auto loaded_topk = loaded->tpa->QueryTopK(seed, 10);
          ASSERT_EQ(loaded_topk.top.size(), fresh_topk.top.size());
          for (size_t i = 0; i < fresh_topk.top.size(); ++i) {
            EXPECT_EQ(loaded_topk.top[i].node, fresh_topk.top[i].node);
            EXPECT_EQ(loaded_topk.top[i].score, fresh_topk.top[i].score);
          }
        }
      }
    }
  }
}

TEST_F(SnapshotTest, InfoReflectsConfiguration) {
  const Graph graph =
      MakeGraph(la::Precision::kFloat32, ValueStorage::kRowConstant);
  TpaOptions options;
  options.family_window = 4;
  options.stranger_start = 9;
  auto fresh = Tpa::Preprocess(graph, options);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(fresh->SaveSnapshot(path_).ok());

  auto info = snapshot::ReadSnapshotInfo(path_);
  ASSERT_TRUE(info.ok()) << info.status().message();
  EXPECT_EQ(info->num_nodes, graph.num_nodes());
  EXPECT_EQ(info->num_edges, graph.num_edges());
  EXPECT_EQ(info->precision, la::Precision::kFloat32);
  EXPECT_EQ(info->value_storage, ValueStorage::kRowConstant);
  EXPECT_FALSE(info->has_fp64);
  EXPECT_TRUE(info->has_fp32);
  EXPECT_EQ(info->options.family_window, 4);
  EXPECT_EQ(info->options.stranger_start, 9);
  EXPECT_EQ(info->section_count, 8u);
}

TEST_F(SnapshotTest, VerifyAcceptsCleanFile) {
  const Graph graph =
      MakeGraph(la::Precision::kFloat64, ValueStorage::kRowConstant);
  ASSERT_TRUE(MakeTpa(graph).SaveSnapshot(path_).ok());
  EXPECT_TRUE(snapshot::VerifySnapshot(path_).ok());
}

/// Every corruption is a Status, never a crash — the load path must treat
/// the file as hostile until verified.
TEST_F(SnapshotTest, CorruptFilesAreRejectedWithClearErrors) {
  const Graph graph =
      MakeGraph(la::Precision::kFloat64, ValueStorage::kExplicit);
  ASSERT_TRUE(MakeTpa(graph).SaveSnapshot(path_).ok());
  const std::vector<uint8_t> clean = ReadFileBytes();
  ASSERT_GT(clean.size(), 256u);

  auto expect_rejected = [&](const std::string& trace,
                             const std::string& needle) {
    SCOPED_TRACE(trace);
    const Status verify = snapshot::VerifySnapshot(path_);
    EXPECT_FALSE(verify.ok());
    if (!needle.empty()) {
      EXPECT_NE(verify.message().find(needle), std::string::npos)
          << verify.message();
    }
    const auto loaded = snapshot::LoadSnapshot(path_);
    EXPECT_FALSE(loaded.ok());
  };

  // Truncated to half: the header's file_bytes no longer matches.
  WriteFileBytes(std::vector<uint8_t>(clean.begin(),
                                      clean.begin() + clean.size() / 2));
  expect_rejected("truncated", "truncated");

  // Truncated below even the header.
  WriteFileBytes(std::vector<uint8_t>(clean.begin(), clean.begin() + 10));
  expect_rejected("tiny", "header");

  std::vector<uint8_t> bytes = clean;
  bytes[0] ^= 0xFF;  // magic
  WriteFileBytes(bytes);
  expect_rejected("bad magic", "magic");

  bytes = clean;
  bytes[8] = 0x01;  // endian tag as an opposite-endian writer would store it
  bytes[9] = 0x02;
  bytes[10] = 0x03;
  bytes[11] = 0x04;
  WriteFileBytes(bytes);
  expect_rejected("wrong endianness", "endianness");

  bytes = clean;
  bytes[12] = 99;  // format_version
  WriteFileBytes(bytes);
  expect_rejected("wrong version", "version");

  bytes = clean;
  bytes[12] = 1;  // format v1 carried the retired in-CSR value sections
  WriteFileBytes(bytes);
  expect_rejected("format v1", "unsupported format version 1");

  // Writes `clean` with its header, section descriptors and meta section
  // edited by the three callbacks, and the meta and section-table checksums
  // recomputed so only the field check sees it.
  const auto write_resealed = [&](const auto& edit_header,
                                  const auto& edit_desc,
                                  const auto& edit_meta) {
    std::vector<uint8_t> edited = clean;
    snapshot::SnapshotHeader header;
    std::memcpy(&header, edited.data(), sizeof(header));
    std::vector<snapshot::SectionDesc> table(header.section_count);
    std::memcpy(table.data(), edited.data() + header.section_table_offset,
                table.size() * sizeof(snapshot::SectionDesc));
    for (snapshot::SectionDesc& desc : table) {
      edit_desc(desc);
      if (desc.id != static_cast<uint32_t>(snapshot::SectionId::kMeta)) {
        continue;
      }
      snapshot::MetaSection meta;
      std::memcpy(&meta, edited.data() + desc.offset, sizeof(meta));
      edit_meta(meta);
      std::memcpy(edited.data() + desc.offset, &meta, sizeof(meta));
      desc.crc = Crc32(&meta, sizeof(meta));
    }
    std::memcpy(edited.data() + header.section_table_offset, table.data(),
                table.size() * sizeof(snapshot::SectionDesc));
    header.section_table_crc =
        Crc32(table.data(), table.size() * sizeof(snapshot::SectionDesc));
    edit_header(header);
    std::memcpy(edited.data(), &header, sizeof(header));
    WriteFileBytes(edited);
  };
  const auto unedited = [](auto&) {};
  const auto write_with_meta = [&](const auto& edit) {
    write_resealed(unedited, unedited, edit);
  };
  // ReadSnapshotInfo and LoadSnapshot name the field too (expect_rejected
  // checks VerifySnapshot's message).
  const auto expect_info_and_load_name = [&](const std::string& needle) {
    const auto info = snapshot::ReadSnapshotInfo(path_);
    ASSERT_FALSE(info.ok());
    EXPECT_NE(info.status().message().find(needle), std::string::npos)
        << info.status().message();
    const auto loaded = snapshot::LoadSnapshot(path_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find(needle), std::string::npos)
        << loaded.status().message();
  };

  // An edge count the file cannot hold, with every checksum recomputed: the
  // m·4 / m·8 section sizes wrap modulo 2^64 back onto the real ones, so
  // only an explicit bound on num_edges catches it.
  write_with_meta([](snapshot::MetaSection& meta) {
    meta.num_edges += uint64_t{1} << 62;
  });
  expect_info_and_load_name("edge count");
  expect_rejected("overflowing edge count", "edge count");

  // The word that once flagged a stored node permutation must stay zero.
  write_with_meta([](snapshot::MetaSection& meta) {
    meta.retired_permutation = 1;
  });
  expect_info_and_load_name("permutation");
  expect_rejected("retired permutation flag", "permutation");

  // Every reserved and padding field must stay zero, checksums or not.
  const auto header_reserved = [](snapshot::SnapshotHeader& header) {
    header.reserved[23] = 1;
  };
  const auto in_indices_reserved0 = [](snapshot::SectionDesc& desc) {
    if (desc.id == static_cast<uint32_t>(snapshot::SectionId::kInIndices)) {
      desc.reserved0 = 1;
    }
  };
  const auto meta_reserved1 = [](snapshot::SectionDesc& desc) {
    if (desc.id == static_cast<uint32_t>(snapshot::SectionId::kMeta)) {
      desc.reserved1 = 1;
    }
  };
  write_resealed(header_reserved, unedited, unedited);
  expect_info_and_load_name("header reserved");
  expect_rejected("header reserved byte", "header reserved");
  write_resealed(unedited, in_indices_reserved0, unedited);
  expect_info_and_load_name("section table reserved");
  expect_rejected("section reserved0", "section table reserved");
  write_resealed(unedited, meta_reserved1, unedited);
  expect_info_and_load_name("section table reserved");
  expect_rejected("section reserved1", "section table reserved");
  write_with_meta([](snapshot::MetaSection& meta) { meta.pad0 = 1; });
  expect_info_and_load_name("meta reserved");
  expect_rejected("meta pad0", "meta reserved");
  write_with_meta([](snapshot::MetaSection& meta) { meta.reserved0 = 1; });
  expect_info_and_load_name("meta reserved");
  expect_rejected("meta reserved0", "meta reserved");
  write_with_meta([](snapshot::MetaSection& meta) { meta.pad1 = 1; });
  expect_info_and_load_name("meta reserved");
  expect_rejected("meta pad1", "meta reserved");

  bytes = clean;
  bytes[sizeof(snapshot::SnapshotHeader) + 4] ^= 0x01;  // section table
  WriteFileBytes(bytes);
  expect_rejected("table corruption", "section table checksum");

  bytes = clean;
  bytes[bytes.size() - 1] ^= 0x01;  // last payload byte
  WriteFileBytes(bytes);
  expect_rejected("payload corruption", "checksum");

  WriteFileBytes({});
  expect_rejected("empty file", "header");

  WriteFileBytes(std::vector<uint8_t>(4096, 0xAB));
  expect_rejected("garbage", "magic");

  std::remove(path_.c_str());
  EXPECT_FALSE(snapshot::VerifySnapshot(path_).ok());
  EXPECT_FALSE(snapshot::LoadSnapshot(path_).ok());
  EXPECT_FALSE(snapshot::ReadSnapshotInfo(path_).ok());
}

/// A checksum mismatch — in the section table or in a payload — is
/// DATA_LOSS; a well-formed file whose structure is invalid stays
/// INVALID_ARGUMENT.
TEST_F(SnapshotTest, ChecksumMismatchesAreDataLoss) {
  const Graph graph =
      MakeGraph(la::Precision::kFloat64, ValueStorage::kRowConstant);
  ASSERT_TRUE(MakeTpa(graph).SaveSnapshot(path_).ok());
  const std::vector<uint8_t> clean = ReadFileBytes();

  std::vector<uint8_t> bytes = clean;
  bytes[sizeof(snapshot::SnapshotHeader) + 4] ^= 0x01;  // section table
  WriteFileBytes(bytes);
  Status status = snapshot::VerifySnapshot(path_);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
  EXPECT_NE(status.ToString().find("DATA_LOSS: "), std::string::npos);
  EXPECT_EQ(snapshot::LoadSnapshot(path_).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(snapshot::ReadSnapshotInfo(path_).status().code(),
            StatusCode::kDataLoss);

  bytes = clean;
  bytes[bytes.size() - 1] ^= 0x01;  // last payload byte
  WriteFileBytes(bytes);
  status = snapshot::VerifySnapshot(path_);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
  EXPECT_NE(status.message().find("payload checksum"), std::string::npos);
  EXPECT_EQ(snapshot::LoadSnapshot(path_).status().code(),
            StatusCode::kDataLoss);

  bytes = clean;
  bytes[12] = 99;  // format_version: structure, not data loss
  WriteFileBytes(bytes);
  EXPECT_EQ(snapshot::VerifySnapshot(path_).code(),
            StatusCode::kInvalidArgument);
}

/// The mmap views must keep the mapping alive through arbitrary moves: the
/// Graph and Tpa are moved out of the LoadedSnapshot bundle, the bundle
/// dies, and queries still read the (file-backed) CSR arrays.  ASan turns
/// any lifetime bug here into a hard failure.
TEST_F(SnapshotTest, MappedViewsOutliveTheLoadedSnapshotBundle) {
  const Graph graph =
      MakeGraph(la::Precision::kFloat64, ValueStorage::kExplicit);
  const Tpa fresh = MakeTpa(graph);
  ASSERT_TRUE(fresh.SaveSnapshot(path_).ok());

  std::unique_ptr<Graph> loaded_graph;
  std::unique_ptr<Tpa> loaded_tpa;
  {
    auto loaded = Tpa::LoadSnapshot(path_);
    ASSERT_TRUE(loaded.ok());
    loaded_graph = std::move(loaded->graph);
    loaded_tpa = std::move(loaded->tpa);
  }
  // The snapshot file is deleted from the filesystem; the mapping persists
  // until the last view dies (POSIX keeps unlinked mappings alive).
  std::remove(path_.c_str());
  for (NodeId seed : {NodeId{1}, NodeId{99}}) {
    EXPECT_EQ(loaded_tpa->Query(seed), fresh.Query(seed));
  }
}

/// Rewriting the path a kMap load is serving from must not reach the old
/// mapping: the new snapshot (a smaller graph, so an in-place truncation
/// would fault the old pages past the new end) replaces the file by
/// rename, the old Tpa keeps answering from the old bytes, and a fresh load
/// sees the new graph.  A write that cannot start leaves no file behind.
TEST_F(SnapshotTest, RewriteWhileMappedKeepsServing) {
  RmatOptions rmat;
  rmat.scale = 10;
  rmat.edges = 16384;
  rmat.seed = 7;
  auto big_graph = GenerateRmat(rmat, BuildOptions{});
  ASSERT_TRUE(big_graph.ok()) << big_graph.status().message();
  ASSERT_TRUE(MakeTpa(*big_graph).SaveSnapshot(path_).ok());

  auto served = Tpa::LoadSnapshot(path_);
  ASSERT_TRUE(served.ok()) << served.status().message();
  ASSERT_NE(served->mapped_file, nullptr);
  const NodeId seeds[] = {0, 5, 1000};
  std::vector<std::vector<double>> before;
  for (NodeId seed : seeds) before.push_back(served->tpa->Query(seed));

  const Graph small_graph =
      MakeGraph(la::Precision::kFloat64, ValueStorage::kExplicit);
  ASSERT_LT(small_graph.num_nodes(), big_graph->num_nodes());
  const Tpa small = MakeTpa(small_graph);
  ASSERT_TRUE(small.SaveSnapshot(path_).ok());

  for (size_t i = 0; i < std::size(seeds); ++i) {
    EXPECT_EQ(served->tpa->Query(seeds[i]), before[i]) << "seed " << seeds[i];
  }
  auto reloaded = Tpa::LoadSnapshot(path_);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().message();
  EXPECT_EQ(reloaded->graph->num_nodes(), small_graph.num_nodes());
  EXPECT_EQ(reloaded->graph->num_edges(), small_graph.num_edges());
  EXPECT_EQ(reloaded->tpa->Query(5), small.Query(5));

  const std::string missing_dir = path_ + ".no_such_dir";
  EXPECT_FALSE(small.SaveSnapshot(missing_dir + "/x.tpasnap").ok());
  EXPECT_FALSE(std::filesystem::exists(missing_dir));
}

/// A kMap load exposes its backing mapping (the handle a bounded-RSS
/// server registers with ResidentSteward); kCopy closes the file before
/// returning, so it exposes nothing.
TEST_F(SnapshotTest, MappedFileHandleTracksTheLoadMode) {
  const Graph graph =
      MakeGraph(la::Precision::kFloat64, ValueStorage::kExplicit);
  ASSERT_TRUE(MakeTpa(graph).SaveSnapshot(path_).ok());

  auto mapped = Tpa::LoadSnapshot(path_);
  ASSERT_TRUE(mapped.ok());
  ASSERT_NE(mapped->mapped_file, nullptr);
  EXPECT_EQ(mapped->mapped_file->size(), mapped->info.file_bytes);

  snapshot::LoadOptions copy;
  copy.mode = snapshot::LoadMode::kCopy;
  auto copied = Tpa::LoadSnapshot(path_, copy);
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(copied->mapped_file, nullptr);

  // Dropping the handle must not tear down the graph's views: they share
  // ownership of the mapping independently.
  mapped->mapped_file.reset();
  EXPECT_EQ(mapped->tpa->Query(1), copied->tpa->Query(1));
}

/// LoadOptions::steward registers the mapping before the verification
/// sweep; a drop of every resident snapshot page afterwards must refault
/// to identical contents (the serving contract the bounded-RSS path
/// relies on).
TEST_F(SnapshotTest, StewardedLoadSurvivesAFullPageDrop) {
  const Graph graph =
      MakeGraph(la::Precision::kFloat64, ValueStorage::kRowConstant);
  const Tpa fresh = MakeTpa(graph);
  ASSERT_TRUE(fresh.SaveSnapshot(path_).ok());

  ResidentSteward steward({});  // budget 0: registration only, no thread
  snapshot::LoadOptions load;
  load.steward = &steward;
  auto loaded = Tpa::LoadSnapshot(path_, load);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_NE(loaded->mapped_file, nullptr);

  steward.DropAll();
  EXPECT_EQ(loaded->tpa->Query(7), fresh.Query(7));
  steward.DropAll();
  const auto fresh_topk = fresh.QueryTopK(7, 10);
  const auto loaded_topk = loaded->tpa->QueryTopK(7, 10);
  ASSERT_EQ(loaded_topk.top.size(), fresh_topk.top.size());
  for (size_t i = 0; i < fresh_topk.top.size(); ++i) {
    EXPECT_EQ(loaded_topk.top[i].node, fresh_topk.top[i].node);
    EXPECT_EQ(loaded_topk.top[i].score, fresh_topk.top[i].score);
  }
}

/// Warm-started QueryEngine: construction from a loaded snapshot skips the
/// CPI recompute and serves bitwise the fresh engine's results.
TEST_F(SnapshotTest, WarmStartedEngineServesBitwiseIdenticalResults) {
  const Graph graph =
      MakeGraph(la::Precision::kFloat64, ValueStorage::kRowConstant);
  ASSERT_TRUE(MakeTpa(graph).SaveSnapshot(path_).ok());

  QueryEngineOptions options;
  options.num_threads = 2;
  auto fresh_engine = QueryEngine::Create(
      graph, std::make_unique<TpaMethod>(TpaOptions{}), options);
  ASSERT_TRUE(fresh_engine.ok());

  auto loaded = Tpa::LoadSnapshot(path_);
  ASSERT_TRUE(loaded.ok());
  auto warm_engine = QueryEngine::Create(
      *loaded->graph, std::make_unique<TpaMethod>(std::move(*loaded->tpa)),
      options);
  ASSERT_TRUE(warm_engine.ok()) << warm_engine.status().message();

  const std::vector<NodeId> seeds = {0, 3, 77, 191, 255};
  std::vector<QueryResult> fresh_results = fresh_engine->QueryBatch(seeds);
  std::vector<QueryResult> warm_results = warm_engine->QueryBatch(seeds);
  for (size_t i = 0; i < seeds.size(); ++i) {
    ASSERT_TRUE(fresh_results[i].status.ok());
    ASSERT_TRUE(warm_results[i].status.ok());
    EXPECT_EQ(warm_results[i].scores, fresh_results[i].scores);
  }
}

TEST_F(SnapshotTest, WarmStartedAsyncEngineServesBitwiseIdenticalResults) {
  const Graph graph =
      MakeGraph(la::Precision::kFloat32, ValueStorage::kExplicit);
  ASSERT_TRUE(MakeTpa(graph).SaveSnapshot(path_).ok());

  QueryEngineOptions options;
  options.num_threads = 2;
  auto fresh_engine = QueryEngine::Create(
      graph, std::make_unique<TpaMethod>(TpaOptions{}), options);
  ASSERT_TRUE(fresh_engine.ok());

  auto loaded = Tpa::LoadSnapshot(path_);
  ASSERT_TRUE(loaded.ok());
  auto async_engine = AsyncQueryEngine::Create(
      *loaded->graph, std::make_unique<TpaMethod>(std::move(*loaded->tpa)),
      options);
  ASSERT_TRUE(async_engine.ok()) << async_engine.status().message();

  const std::vector<NodeId> seeds = {2, 50, 130};
  std::vector<QueryTicket> tickets;
  for (NodeId seed : seeds) tickets.push_back((*async_engine)->Submit(seed));
  for (size_t i = 0; i < seeds.size(); ++i) {
    const QueryResult& warm = tickets[i].Wait();
    ASSERT_TRUE(warm.status.ok()) << warm.status.message();
    QueryResult fresh = fresh_engine->Query(seeds[i]);
    ASSERT_TRUE(fresh.status.ok());
    EXPECT_EQ(warm.scores_f32, fresh.scores_f32);
  }
}

/// A preloaded TpaMethod is graph-specific: binding it to a different graph
/// must fail loudly instead of serving stale scores.
TEST_F(SnapshotTest, PreloadedMethodRejectsADifferentGraph) {
  const Graph graph =
      MakeGraph(la::Precision::kFloat64, ValueStorage::kExplicit);
  ASSERT_TRUE(MakeTpa(graph).SaveSnapshot(path_).ok());
  auto loaded = Tpa::LoadSnapshot(path_);
  ASSERT_TRUE(loaded.ok());

  const Graph other =
      MakeGraph(la::Precision::kFloat64, ValueStorage::kExplicit);
  auto engine = QueryEngine::Create(
      other, std::make_unique<TpaMethod>(std::move(*loaded->tpa)));
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SnapshotTest, LoadFailpointInjectsError) {
#if !defined(TPA_FAILPOINTS_ENABLED)
  GTEST_SKIP() << "requires a TPA_FAILPOINTS=ON build";
#else
  const Graph graph =
      MakeGraph(la::Precision::kFloat64, ValueStorage::kExplicit);
  ASSERT_TRUE(MakeTpa(graph).SaveSnapshot(path_).ok());

  ArmFailpoint("snapshot.load",
               FailpointAction::Error(InternalError("injected load fault")));
  auto loaded = snapshot::LoadSnapshot(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("injected load fault"),
            std::string::npos);
  DisarmFailpoint("snapshot.load");
  EXPECT_TRUE(snapshot::LoadSnapshot(path_).ok());
#endif
}

}  // namespace
}  // namespace tpa
