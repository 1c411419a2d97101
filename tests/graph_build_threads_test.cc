/// GraphBuilder::Build on a WorkerTeam: its four CSR arrays equal those of
/// the sort-based reference below (self-loop removal, one global sort,
/// dedup, a merged-in self-loop per dangling row, counting transposes) at
/// teams of 1, 2, 3 and 4 members, for every combination of the build
/// options, on graphs that stress the row cuts: R-MAT with duplicates and
/// self-loops, an isolated last node, one node, no edges, a hub row that
/// points at every node, and edges given in descending order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "util/worker_team.h"

namespace tpa {
namespace {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

struct CsrArrays {
  std::vector<uint64_t> out_offsets;
  std::vector<NodeId> out_targets;
  std::vector<uint64_t> in_offsets;
  std::vector<NodeId> in_sources;
};

/// Offsets and indices of the edges grouped by source (or by target),
/// listed in the order of `edges` within each group.
void Counting(NodeId n, const EdgeList& edges, bool by_source,
              std::vector<uint64_t>& offsets, std::vector<NodeId>& indices) {
  offsets.assign(size_t{n} + 1, 0);
  indices.resize(edges.size());
  for (const auto& [u, v] : edges) ++offsets[(by_source ? u : v) + 1];
  for (size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& [u, v] : edges) {
    indices[cursor[by_source ? u : v]++] = by_source ? v : u;
  }
}

/// The sort-based build the counting build replaced.
CsrArrays ReferenceBuild(NodeId n, EdgeList edges,
                         const BuildOptions& options) {
  if (options.remove_self_loops) {
    std::erase_if(edges, [](const auto& e) { return e.first == e.second; });
  }
  std::sort(edges.begin(), edges.end());
  if (options.deduplicate) {
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  }
  if (options.dangling_policy == DanglingPolicy::kAddSelfLoop) {
    std::vector<bool> has_out(n, false);
    for (const auto& [u, v] : edges) has_out[u] = true;
    const size_t mid = edges.size();
    for (NodeId u = 0; u < n; ++u) {
      if (!has_out[u]) edges.emplace_back(u, u);
    }
    std::inplace_merge(edges.begin(), edges.begin() + static_cast<long>(mid),
                       edges.end());
  }
  CsrArrays csr;
  Counting(n, edges, true, csr.out_offsets, csr.out_targets);
  Counting(n, edges, false, csr.in_offsets, csr.in_sources);
  return csr;
}

template <typename T>
std::vector<T> Vec(std::span<const T> span) {
  return {span.begin(), span.end()};
}

void ExpectArrays(const Graph& graph, const CsrArrays& want) {
  EXPECT_EQ(Vec(graph.OutOffsets()), want.out_offsets);
  EXPECT_EQ(Vec(graph.OutTargets()), want.out_targets);
  EXPECT_EQ(Vec(graph.InOffsets()), want.in_offsets);
  EXPECT_EQ(Vec(graph.InSources()), want.in_sources);
}

struct TestGraph {
  std::string name;
  NodeId n;
  EdgeList edges;
};

/// R-MAT draws at scale 11: heavy duplicates and some self-loops.
EdgeList RmatDraws(uint64_t draws) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  EdgeList edges;
  for (uint64_t i = 0; i < draws; ++i) {
    NodeId u = 0;
    NodeId v = 0;
    for (int bit = 10; bit >= 0; --bit) {
      const double r = unit(rng);
      const NodeId down = r >= 0.57 + 0.19 ? 1 : 0;
      const NodeId right = (r >= 0.57 && r < 0.57 + 0.19) || r >= 0.95;
      u |= down << bit;
      v |= right << bit;
    }
    edges.emplace_back(u, v);
  }
  return edges;
}

std::vector<TestGraph> Graphs() {
  std::vector<TestGraph> graphs;
  graphs.push_back({"rmat", 2048, RmatDraws(30000)});
  const EdgeList isolated = {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 3}, {0, 1}};
  graphs.push_back({"isolated last node", 6, isolated});
  graphs.push_back({"one node", 1, {{0, 0}}});
  graphs.push_back({"zero edges", 5, {}});
  EdgeList hub;
  for (NodeId v = 0; v < 300; ++v) hub.emplace_back(0, 299 - v);
  hub.emplace_back(7, 3);
  graphs.push_back({"hub row", 300, hub});
  EdgeList descending = RmatDraws(5000);
  std::sort(descending.rbegin(), descending.rend());
  graphs.push_back({"descending", 2048, descending});
  return graphs;
}

TEST(GraphBuildThreadsTest, EqualsTheSortedReferenceAtEveryTeamSize) {
  const std::vector<TestGraph> graphs = Graphs();
  std::vector<std::unique_ptr<WorkerTeam>> teams;
  for (int size = 1; size <= 4; ++size) {
    teams.push_back(std::make_unique<WorkerTeam>(size));
  }
  for (const TestGraph& graph : graphs) {
    for (int combo = 0; combo < 32; ++combo) {
      BuildOptions options;
      options.remove_self_loops = (combo & 1) != 0;
      options.deduplicate = (combo & 2) != 0;
      options.dangling_policy = (combo & 4) != 0 ? DanglingPolicy::kKeep
                                                 : DanglingPolicy::kAddSelfLoop;
      options.value_precision = (combo & 8) != 0 ? la::Precision::kFloat32
                                                 : la::Precision::kFloat64;
      options.value_storage = (combo & 16) != 0 ? ValueStorage::kRowConstant
                                                : ValueStorage::kExplicit;
      const CsrArrays want = ReferenceBuild(graph.n, graph.edges, options);
      for (const auto& team : teams) {
        SCOPED_TRACE(graph.name + ", options " + std::to_string(combo) +
                     ", team of " + std::to_string(team->size()));
        GraphBuilder builder(graph.n);
        builder.AddEdges(graph.edges);
        StatusOr<Graph> built = builder.Build(options, team.get());
        ASSERT_TRUE(built.ok()) << built.status().ToString();
        EXPECT_EQ(builder.PendingEdges(), 0u);
        ExpectArrays(*built, want);
        EXPECT_EQ(built->value_precision(), options.value_precision);
        EXPECT_EQ(built->value_storage(), options.value_storage);
        EXPECT_TRUE(built->HasTier(options.value_precision));
      }
    }
  }
}

TEST(GraphBuildThreadsTest, TheDefaultTeamBuildsTheSameArrays) {
  const EdgeList edges = RmatDraws(200000);
  const CsrArrays want = ReferenceBuild(2048, edges, BuildOptions{});
  GraphBuilder builder(2048);
  builder.AddEdges(edges);
  StatusOr<Graph> built = builder.Build();
  ASSERT_TRUE(built.ok());
  ExpectArrays(*built, want);
}

}  // namespace
}  // namespace tpa
