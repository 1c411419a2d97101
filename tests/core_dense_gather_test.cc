// The dense propagation step is the destination gather, and the sparse head
// hands over to it at frontier_density_threshold.  These cases pin both
// against the reference scatter: Graph::MultiplyTransposeBlockT equals
// la::CsrMatrixT::SpMmTranspose bitwise at every width, tier and storage,
// and a CPI run's scores, stop iteration and last interim norm do not
// depend on where the head hands over.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/cpi.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "util/check.h"

namespace tpa {
namespace {

using Edges = std::vector<std::pair<NodeId, NodeId>>;

Graph Build(NodeId n, const Edges& edges, BuildOptions options) {
  GraphBuilder builder(n);
  builder.AddEdges(edges);
  auto graph = builder.Build(options);
  TPA_CHECK(graph.ok());
  return std::move(graph).value();
}

Graph Rmat(BuildOptions options) {
  RmatOptions rmat;
  rmat.scale = 12;
  rmat.edges = (uint64_t{23} << rmat.scale) / 2;
  auto graph = GenerateRmat(rmat, options);
  TPA_CHECK(graph.ok());
  return std::move(graph).value();
}

/// A hub with in- and out-edges to every leaf.
Graph Star(BuildOptions options) {
  Edges edges;
  for (NodeId leaf = 1; leaf < 600; ++leaf) {
    edges.emplace_back(0, leaf);
    edges.emplace_back(leaf, 0);
  }
  return Build(600, edges, options);
}

Graph Chain(BuildOptions options) {
  Edges edges;
  for (NodeId u = 0; u + 1 < 400; ++u) edges.emplace_back(u, u + 1);
  return Build(400, edges, options);
}

/// Seven in ten nodes keep no out-edges, so propagation loses their mass.
Graph DanglingHeavy(BuildOptions options) {
  constexpr NodeId kNodes = 1500;
  std::mt19937 rng(11);
  std::uniform_int_distribution<NodeId> any(0, kNodes - 1);
  Edges edges;
  for (NodeId u = 0; u < kNodes; u += 10) {
    for (NodeId k = 0; k < 3; ++k) {
      for (int d = 0; d < 5; ++d) edges.emplace_back(u + k, any(rng));
    }
  }
  options.dangling_policy = DanglingPolicy::kKeep;
  return Build(kNodes, edges, options);
}

/// A cycle, a dense block and isolated nodes in three id ranges.
Graph Disconnected(BuildOptions options) {
  Edges edges;
  for (NodeId u = 0; u < 700; ++u) edges.emplace_back(u, (u + 1) % 700);
  for (NodeId u = 0; u < 60; ++u) {
    for (NodeId v = 0; v < 60; v += 3) {
      if (u != v) edges.emplace_back(700 + u, 700 + v);
    }
  }
  return Build(1000, edges, options);
}

Graph OneNode(BuildOptions options) { return Build(1, {}, options); }

Graph NoEdges(BuildOptions options) {
  options.dangling_policy = DanglingPolicy::kKeep;
  return Build(40, {}, options);
}

/// Calls f(name, graph) for each test graph built with `options`.
void ForEachGraph(
    BuildOptions options,
    const std::function<void(const std::string&, const Graph&)>& f) {
  f("rmat", Rmat(options));
  f("star", Star(options));
  f("chain", Chain(options));
  f("dangling_heavy", DanglingHeavy(options));
  f("disconnected", Disconnected(options));
  f("one_node", OneNode(options));
  f("no_edges", NoEdges(options));
}

template <typename T>
bool BitwiseEqual(const T* a, const T* b, size_t count) {
  return count == 0 || std::memcmp(a, b, count * sizeof(T)) == 0;
}

/// A block with a varied support: about a third of the rows are zero, and
/// within a nonzero row the columns differ and some are zero.
template <typename V>
la::DenseBlockT<V> Operand(NodeId n, size_t width, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> value(0.0, 1.0);
  la::DenseBlockT<V> x(n, width);
  for (NodeId r = 0; r < n; ++r) {
    const bool zero_row = rng() % 3 == 0;
    for (size_t b = 0; b < width; ++b) {
      x.At(r, b) = zero_row || rng() % 5 == 0
                       ? V{0}
                       : static_cast<V>(value(rng) / (1.0 + r % 7));
    }
  }
  return x;
}

template <typename V>
void ExpectGatherMatchesScatter(const Graph& graph, const std::string& label) {
  const NodeId n = graph.num_nodes();
  for (const size_t width : {1, 2, 8, 16, 17}) {
    SCOPED_TRACE(label + " width " + std::to_string(width));
    const la::DenseBlockT<V> x = Operand<V>(n, width, 3 + width);
    la::DenseBlockT<V> scatter;
    graph.TransitionT<V>().SpMmTranspose(x, scatter);
    // Stale contents: the gather must write every entry.
    la::DenseBlockT<V> gather(n, width);
    for (NodeId r = 0; r < n; ++r) {
      for (size_t b = 0; b < width; ++b) gather.At(r, b) = V{7};
    }
    graph.MultiplyTransposeBlockT(x, gather);
    ASSERT_EQ(gather.rows(), n);
    ASSERT_EQ(gather.num_vectors(), width);
    EXPECT_TRUE(BitwiseEqual(gather.RowPtr(0), scatter.RowPtr(0), n * width));
    if (width != 1) continue;
    const std::vector<V> xv(x.RowPtr(0), x.RowPtr(0) + n);
    std::vector<V> want;
    graph.TransitionT<V>().SpMvTranspose(xv, want);
    std::vector<V> got(n, V{7});
    graph.MultiplyTransposeT(xv, got);
    ASSERT_EQ(got.size(), n);
    EXPECT_TRUE(BitwiseEqual(got.data(), want.data(), n));
    got.clear();  // an empty y is resized
    graph.MultiplyTransposeT(xv, got);
    EXPECT_TRUE(BitwiseEqual(got.data(), want.data(), n));
  }
}

TEST(DenseGatherTest, BlockGatherMatchesReferenceScatter) {
  for (const ValueStorage storage :
       {ValueStorage::kExplicit, ValueStorage::kRowConstant}) {
    const std::string kind =
        storage == ValueStorage::kExplicit ? " explicit" : " value-free";
    BuildOptions options;
    options.value_storage = storage;
    ForEachGraph(options, [&](const std::string& name, const Graph& graph) {
      ExpectGatherMatchesScatter<double>(graph, name + kind + " fp64");
    });
    options.value_precision = la::Precision::kFloat32;
    ForEachGraph(options, [&](const std::string& name, const Graph& graph) {
      ExpectGatherMatchesScatter<float>(graph, name + kind + " fp32");
    });
  }
}

constexpr double kThresholds[] = {0.0, 0.002, 0.125, 1.0};

/// Seeds spread over the id range, the hub-heavy low ids included.
std::vector<NodeId> Seeds(NodeId n, size_t count) {
  std::vector<NodeId> seeds;
  for (size_t i = 0; i < count; ++i) {
    seeds.push_back(static_cast<NodeId>((i * 2654435761u) % n));
  }
  return seeds;
}

template <typename V>
void ExpectThresholdIndependent(const Graph& graph, const std::string& label,
                                int terminal_iteration) {
  const NodeId n = graph.num_nodes();
  CpiOptions options;
  options.terminal_iteration = terminal_iteration;
  for (const NodeId seed : Seeds(n, 3)) {
    SCOPED_TRACE(label + " seed " + std::to_string(seed));
    std::optional<Cpi::ResultT<V>> first;
    for (const double threshold : kThresholds) {
      SCOPED_TRACE("threshold " + std::to_string(threshold));
      options.frontier_density_threshold = threshold;
      auto run = Cpi::RunT<V>(graph, {seed}, options);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      if (!first) {
        first = std::move(run).value();
        continue;
      }
      EXPECT_TRUE(BitwiseEqual(run->scores.data(), first->scores.data(), n));
      EXPECT_EQ(run->last_iteration, first->last_iteration);
      EXPECT_EQ(run->converged, first->converged);
      EXPECT_EQ(run->last_interim_norm, first->last_interim_norm);
    }
  }
  for (const size_t width : {3, 17}) {
    const std::vector<NodeId> seeds = Seeds(n, width);
    std::optional<la::DenseBlockT<V>> first;
    for (const double threshold : kThresholds) {
      SCOPED_TRACE(label + " width " + std::to_string(width) + " threshold " +
                   std::to_string(threshold));
      options.frontier_density_threshold = threshold;
      Cpi::Workspace workspace;  // reused: a recycled block must not leak
      for (int repeat = 0; repeat < 2; ++repeat) {
        auto block = Cpi::RunBatchT<V>(graph, seeds, options, &workspace);
        ASSERT_TRUE(block.ok()) << block.status().ToString();
        if (!first) {
          first = std::move(block).value();
          continue;
        }
        EXPECT_TRUE(
            BitwiseEqual(block->RowPtr(0), first->RowPtr(0), n * width));
      }
    }
    // Column b is the single-seed run of seeds[b].
    for (size_t b = 0; b < width; ++b) {
      auto run = Cpi::RunT<V>(graph, {seeds[b]}, options);
      ASSERT_TRUE(run.ok());
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_TRUE(BitwiseEqual(&run->scores[v], &first->RowPtr(v)[b], 1))
            << label << " column " << b << " row " << v;
      }
    }
  }
}

TEST(DenseGatherTest, CpiIsBitwiseTheSameAtEveryHandOver) {
  BuildOptions value_free;
  value_free.value_precision = la::Precision::kFloat32;
  value_free.value_storage = ValueStorage::kRowConstant;
  for (const int terminal : {4, CpiOptions::kUnbounded}) {
    const std::string window = " terminal " + std::to_string(terminal);
    ForEachGraph({}, [&](const std::string& name, const Graph& graph) {
      ExpectThresholdIndependent<double>(graph, name + window + " fp64",
                                         terminal);
    });
    ForEachGraph(value_free, [&](const std::string& name, const Graph& graph) {
      ExpectThresholdIndependent<float>(
          graph, name + window + " fp32 value-free", terminal);
    });
  }
}

}  // namespace
}  // namespace tpa
