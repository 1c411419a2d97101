/// The out-of-core builder's contract: a file-backed CSR build of the same
/// edge sequence is indistinguishable — bitwise, through preprocessing and
/// snapshotting — from the in-RAM GraphBuilder, across the cleaning-option
/// matrix and both value tiers/storages; plus the reopen path and the
/// overflow validators' boundary behavior.

#include "graph/out_of_core.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/tpa.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "util/status.h"

namespace tpa {
namespace {

class OutOfCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prefix_ = ::testing::TempDir() + "/ooc_" +
              std::to_string(reinterpret_cast<uintptr_t>(this));
  }
  void TearDown() override {
    for (const std::string& suffix :
         {".csr", ".a.snap", ".b.snap", ".csr.spill-out", ".csr.spill-in"}) {
      std::remove((prefix_ + suffix).c_str());
    }
  }

  std::string CsrPath() const { return prefix_ + ".csr"; }

  std::string prefix_;
};

/// Structural equality, checked through the public adjacency API in both
/// directions.
void ExpectSameTopology(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    const auto out_a = a.OutNeighbors(u);
    const auto out_b = b.OutNeighbors(u);
    ASSERT_EQ(std::vector<NodeId>(out_a.begin(), out_a.end()),
              std::vector<NodeId>(out_b.begin(), out_b.end()))
        << "out row " << u;
    const auto in_a = a.InNeighbors(u);
    const auto in_b = b.InNeighbors(u);
    ASSERT_EQ(std::vector<NodeId>(in_a.begin(), in_a.end()),
              std::vector<NodeId>(in_b.begin(), in_b.end()))
        << "in row " << u;
  }
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// The strongest equivalence we can ask for: preprocess both graphs and
/// compare the snapshot files byte for byte — topology, every value layer,
/// scales, and metadata all have to agree bitwise for this to pass.
void ExpectSameSnapshotBytes(const Graph& in_ram, const Graph& ooc,
                             const std::string& path_a,
                             const std::string& path_b) {
  auto tpa_a = Tpa::Preprocess(in_ram, {});
  ASSERT_TRUE(tpa_a.ok()) << tpa_a.status();
  auto tpa_b = Tpa::Preprocess(ooc, {});
  ASSERT_TRUE(tpa_b.ok()) << tpa_b.status();
  ASSERT_TRUE(tpa_a->SaveSnapshot(path_a).ok());
  ASSERT_TRUE(tpa_b->SaveSnapshot(path_b).ok());
  const std::string bytes_a = FileBytes(path_a);
  const std::string bytes_b = FileBytes(path_b);
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a == bytes_b, true) << "snapshot bytes diverge";
}

TEST_F(OutOfCoreTest, BitwiseIdenticalAcrossTiersAndStorages) {
  RmatOptions rmat;
  rmat.scale = 10;
  rmat.edges = 1u << 14;
  rmat.seed = 7;
  const struct {
    la::Precision precision;
    ValueStorage storage;
  } combos[] = {
      {la::Precision::kFloat64, ValueStorage::kExplicit},
      {la::Precision::kFloat64, ValueStorage::kRowConstant},
      {la::Precision::kFloat32, ValueStorage::kExplicit},
      {la::Precision::kFloat32, ValueStorage::kRowConstant},
  };
  for (const auto& combo : combos) {
    SCOPED_TRACE(std::string(la::PrecisionName(combo.precision)) +
                 (combo.storage == ValueStorage::kExplicit ? "/explicit"
                                                           : "/value-free"));
    BuildOptions build;
    build.value_precision = combo.precision;
    build.value_storage = combo.storage;
    auto in_ram = GenerateRmat(rmat, build);
    ASSERT_TRUE(in_ram.ok()) << in_ram.status();

    OutOfCoreOptions ooc_options;
    ooc_options.csr_path = CsrPath();
    ooc_options.build = build;
    auto ooc = GenerateRmatOutOfCore(rmat, std::move(ooc_options));
    ASSERT_TRUE(ooc.ok()) << ooc.status();

    ExpectSameTopology(*in_ram, *ooc->graph);
    ExpectSameSnapshotBytes(*in_ram, *ooc->graph, prefix_ + ".a.snap",
                            prefix_ + ".b.snap");
  }
}

TEST_F(OutOfCoreTest, CleaningOptionMatrixMatchesInRamBuilder) {
  // Crafted stream: duplicates (some split across far-apart Adds),
  // self-loops, a dangling node (6), and an isolated node (7).
  const std::vector<std::pair<NodeId, NodeId>> edges = {
      {0, 1}, {1, 2}, {2, 0}, {0, 1}, {3, 3}, {4, 5}, {5, 4},
      {2, 0}, {1, 6}, {3, 2}, {0, 1}, {5, 5}, {4, 5}, {2, 6},
  };
  for (bool remove_self_loops : {true, false}) {
    for (bool deduplicate : {true, false}) {
      for (DanglingPolicy policy :
           {DanglingPolicy::kKeep, DanglingPolicy::kAddSelfLoop}) {
        SCOPED_TRACE(std::string("self_loops=") +
                     (remove_self_loops ? "drop" : "keep") +
                     " dedupe=" + (deduplicate ? "on" : "off") +
                     " dangling=" +
                     (policy == DanglingPolicy::kKeep ? "keep" : "loop"));
        BuildOptions build;
        build.remove_self_loops = remove_self_loops;
        build.deduplicate = deduplicate;
        build.dangling_policy = policy;

        GraphBuilder in_ram(8);
        for (const auto& [u, v] : edges) in_ram.AddEdge(u, v);
        auto expected = in_ram.Build(build);
        ASSERT_TRUE(expected.ok()) << expected.status();

        OutOfCoreOptions ooc_options;
        ooc_options.csr_path = CsrPath();
        ooc_options.build = build;
        auto builder = OutOfCoreGraphBuilder::Create(8, std::move(ooc_options));
        ASSERT_TRUE(builder.ok()) << builder.status();
        for (const auto& [u, v] : edges) {
          ASSERT_TRUE(builder->AddEdge(u, v).ok());
        }
        auto ooc = builder->Build();
        ASSERT_TRUE(ooc.ok()) << ooc.status();

        ExpectSameTopology(*expected, *ooc->graph);
      }
    }
  }
}

TEST_F(OutOfCoreTest, MultiChunkSpillsStayBitwiseIdentical) {
  // A tight budget forces the sorters through several spill chunks and a
  // real k-way merge; the result must not depend on the chunking.
  RmatOptions rmat;
  rmat.scale = 13;
  rmat.edges = (uint64_t{1} << 13) * 20;  // > 131072 records per sorter
  rmat.seed = 3;
  BuildOptions build;
  build.value_storage = ValueStorage::kRowConstant;

  auto in_ram = GenerateRmat(rmat, build);
  ASSERT_TRUE(in_ram.ok()) << in_ram.status();

  OutOfCoreOptions ooc_options;
  ooc_options.csr_path = CsrPath();
  ooc_options.memory_budget_bytes = size_t{8} << 20;  // 1 MB chunk floor
  ooc_options.build = build;
  auto ooc = GenerateRmatOutOfCore(rmat, std::move(ooc_options));
  ASSERT_TRUE(ooc.ok()) << ooc.status();

  ExpectSameTopology(*in_ram, *ooc->graph);
  ExpectSameSnapshotBytes(*in_ram, *ooc->graph, prefix_ + ".a.snap",
                          prefix_ + ".b.snap");
}

TEST_F(OutOfCoreTest, ReopenedCsrServesTheSameGraph) {
  RmatOptions rmat;
  rmat.scale = 9;
  rmat.edges = 1u << 13;
  rmat.seed = 11;
  BuildOptions build;
  build.value_storage = ValueStorage::kRowConstant;

  uint64_t built_bytes = 0;
  {
    OutOfCoreOptions ooc_options;
    ooc_options.csr_path = CsrPath();
    ooc_options.build = build;
    auto built = GenerateRmatOutOfCore(rmat, std::move(ooc_options));
    ASSERT_TRUE(built.ok()) << built.status();
    built_bytes = built->file_bytes;
  }  // mapping closed; only the file remains

  auto reopened = OpenOutOfCoreGraph(CsrPath());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->file_bytes, built_bytes);

  auto in_ram = GenerateRmat(rmat, build);
  ASSERT_TRUE(in_ram.ok());
  ExpectSameTopology(*in_ram, *reopened->graph);
  ExpectSameSnapshotBytes(*in_ram, *reopened->graph, prefix_ + ".a.snap",
                          prefix_ + ".b.snap");
}

TEST_F(OutOfCoreTest, ReopenRejectsCorruptHeaders) {
  RmatOptions rmat;
  rmat.scale = 8;
  rmat.edges = 1u << 11;
  OutOfCoreOptions ooc_options;
  ooc_options.csr_path = CsrPath();
  ASSERT_TRUE(GenerateRmatOutOfCore(rmat, std::move(ooc_options)).ok());

  // A version-1 header (the layout with a second, in-CSR value array) is
  // refused by name rather than mapped with the wrong offsets.
  {
    std::fstream f(CsrPath(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(12);  // OocHeader::version, after magic and endian tag
    const uint32_t version = 1;
    f.write(reinterpret_cast<const char*>(&version), sizeof(version));
  }
  const auto v1 = OpenOutOfCoreGraph(CsrPath());
  ASSERT_FALSE(v1.ok());
  EXPECT_NE(v1.status().message().find("unsupported version 1"),
            std::string::npos)
      << v1.status().message();

  // Flip one magic byte: the reopen must fail with a Status, not serve
  // garbage.
  {
    std::fstream f(CsrPath(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.put('X');
  }
  EXPECT_FALSE(OpenOutOfCoreGraph(CsrPath()).ok());
  EXPECT_FALSE(OpenOutOfCoreGraph(CsrPath() + ".missing").ok());
}

TEST_F(OutOfCoreTest, LocalityOrderingsAreUnimplemented) {
  OutOfCoreOptions ooc_options;
  ooc_options.csr_path = CsrPath();
  ooc_options.build.node_ordering = NodeOrdering::kDegreeDescending;
  auto builder = OutOfCoreGraphBuilder::Create(16, std::move(ooc_options));
  ASSERT_FALSE(builder.ok());
  EXPECT_EQ(builder.status().code(), StatusCode::kUnimplemented);
}

TEST_F(OutOfCoreTest, MissingCsrPathIsRejected) {
  EXPECT_FALSE(OutOfCoreGraphBuilder::Create(16, {}).ok());
}

TEST_F(OutOfCoreTest, OutOfRangeEndpointIsACleanError) {
  OutOfCoreOptions ooc_options;
  ooc_options.csr_path = CsrPath();
  auto builder = OutOfCoreGraphBuilder::Create(4, std::move(ooc_options));
  ASSERT_TRUE(builder.ok());
  EXPECT_TRUE(builder->AddEdge(0, 3).ok());
  EXPECT_EQ(builder->AddEdge(0, 4).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(builder->AddEdge(4, 0).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tpa
