// Tpa::Preprocess runs its stranger-tail CPI and stranger-order sort on a
// WorkerTeam.  These cases pin the contract that makes the thread count a
// pure speed knob: at every team size the stranger tail, the stranger order,
// the CPI iteration count and its last interim norm are bitwise those of the
// serial scatter loop.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <numeric>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "core/cpi.h"
#include "core/tpa.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "snapshot/graph_factory.h"
#include "util/check.h"
#include "util/worker_team.h"

namespace tpa {
namespace {

using Edges = std::vector<std::pair<NodeId, NodeId>>;

Graph Build(NodeId n, const Edges& edges, BuildOptions options = {}) {
  GraphBuilder builder(n);
  builder.AddEdges(edges);
  auto graph = builder.Build(options);
  TPA_CHECK(graph.ok());
  return std::move(graph).value();
}

Graph Rmat(la::Precision precision, ValueStorage storage) {
  RmatOptions rmat;
  rmat.scale = 13;  // 8 norm chunks: every team size below gets real work
  rmat.edges = (uint64_t{23} << rmat.scale) / 2;
  BuildOptions options;
  options.value_precision = precision;
  options.value_storage = storage;
  auto graph = GenerateRmat(rmat, options);
  TPA_CHECK(graph.ok());
  return std::move(graph).value();
}

/// A hub with in- and out-edges to every leaf: the hub's chunk holds most
/// of the in-edges, so the balanced cut leaves some threads an empty range.
Graph Star(NodeId n) {
  Edges edges;
  for (NodeId leaf = 1; leaf < n; ++leaf) {
    edges.emplace_back(0, leaf);
    edges.emplace_back(leaf, 0);
  }
  return Build(n, edges);
}

Graph Chain(NodeId n) {
  Edges edges;
  for (NodeId u = 0; u + 1 < n; ++u) edges.emplace_back(u, u + 1);
  return Build(n, edges);
}

/// A cycle, a dense block and isolated nodes (self-loops by the default
/// dangling policy), in three separate id ranges.
Graph Disconnected() {
  constexpr NodeId kCycle = 1500;
  constexpr NodeId kBlock = 100;
  constexpr NodeId kIsolated = 500;
  Edges edges;
  for (NodeId u = 0; u < kCycle; ++u) edges.emplace_back(u, (u + 1) % kCycle);
  for (NodeId u = 0; u < kBlock; ++u) {
    for (NodeId v = 0; v < kBlock; v += 7) {
      if (u != v) edges.emplace_back(kCycle + u, kCycle + v);
    }
  }
  return Build(kCycle + kBlock + kIsolated, edges);
}

/// Seven in ten nodes have no out-edges and keep none (DanglingPolicy::
/// kKeep), so propagation loses their mass every iteration.
Graph DanglingHeavy() {
  constexpr NodeId kNodes = 3000;
  std::mt19937 rng(7);
  std::uniform_int_distribution<NodeId> any(0, kNodes - 1);
  Edges edges;
  for (NodeId u = 0; u < kNodes; ++u) {
    if (u % 10 >= 3) continue;
    for (int k = 0; k < 6; ++k) edges.emplace_back(u, any(rng));
  }
  BuildOptions options;
  options.dangling_policy = DanglingPolicy::kKeep;
  return Build(kNodes, edges, options);
}

template <typename V>
const std::vector<V>& StrangerT(const Tpa& tpa) {
  if constexpr (std::is_same_v<V, double>) {
    return tpa.stranger_scores();
  } else {
    return tpa.stranger_scores_f32();
  }
}

template <typename V>
bool BitwiseEqual(const std::vector<V>& a, const std::vector<V>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(V)) == 0;
}

/// Runs Preprocess, and the team-run CPI it calls, at 1–4 threads and at
/// more threads than nodes, and checks every output against the serial
/// scatter loop (Cpi::RunWithSeedVectorT without a team) and a serial
/// std::sort of the ids.
template <typename V>
void ExpectBitwiseAtEveryThreadCount(const Graph& graph) {
  const NodeId n = graph.num_nodes();
  const TpaOptions options;
  CpiOptions cpi;
  cpi.restart_probability = options.restart_probability;
  cpi.tolerance = options.tolerance;
  cpi.start_iteration = options.stranger_start;
  cpi.frontier_density_threshold = options.frontier_density_threshold;
  const std::vector<V> uniform(
      n, static_cast<V>(1.0 / static_cast<double>(n)));
  auto serial = Cpi::RunWithSeedVectorT<V>(graph, uniform, cpi);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  const std::vector<V>& tail = serial->scores;
  std::sort(order.begin(), order.end(), [&tail](NodeId a, NodeId b) {
    return tail[a] != tail[b] ? tail[a] > tail[b] : a < b;
  });

  for (const int threads : {1, 2, 3, 4, static_cast<int>(n) + 1}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    // A team larger than the chunk count idles its extra threads; eight
    // covers that without starting one thread per node.
    WorkerTeam team(std::min(threads, 8));
    auto run = Cpi::RunWithSeedVectorT<V>(graph, uniform, cpi, nullptr, &team);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(BitwiseEqual(run->scores, serial->scores));
    EXPECT_EQ(run->last_iteration, serial->last_iteration);
    EXPECT_EQ(run->converged, serial->converged);
    EXPECT_EQ(run->last_interim_norm, serial->last_interim_norm);

    TpaOptions threaded = options;
    threaded.preprocess_threads = threads;
    auto tpa = Tpa::Preprocess(graph, threaded);
    ASSERT_TRUE(tpa.ok()) << tpa.status().ToString();
    EXPECT_TRUE(BitwiseEqual(StrangerT<V>(*tpa), serial->scores));
    EXPECT_EQ(tpa->stranger_order(), order);
  }
}

TEST(WorkerTeamTest, RunsEachMemberOncePerJobAndPublishesItsWrites) {
  for (const int size : {1, 3}) {
    WorkerTeam team(size);
    ASSERT_EQ(team.size(), size);
    std::vector<int> runs(size, 0);
    for (int job = 0; job < 50; ++job) {
      // Each member reads what the previous job wrote to its slot.
      team.Run([&runs, job](int t) {
        if (runs[t] == job) ++runs[t];
      });
    }
    EXPECT_EQ(runs, std::vector<int>(size, 50));
  }
}

TEST(PreprocessThreadsTest, RmatFp64Explicit) {
  ExpectBitwiseAtEveryThreadCount<double>(
      Rmat(la::Precision::kFloat64, ValueStorage::kExplicit));
}

TEST(PreprocessThreadsTest, RmatFp32Explicit) {
  ExpectBitwiseAtEveryThreadCount<float>(
      Rmat(la::Precision::kFloat32, ValueStorage::kExplicit));
}

TEST(PreprocessThreadsTest, RmatValueFree) {
  ExpectBitwiseAtEveryThreadCount<double>(
      Rmat(la::Precision::kFloat64, ValueStorage::kRowConstant));
  ExpectBitwiseAtEveryThreadCount<float>(
      Rmat(la::Precision::kFloat32, ValueStorage::kRowConstant));
}

TEST(PreprocessThreadsTest, Star) {
  ExpectBitwiseAtEveryThreadCount<double>(Star(2500));
}

TEST(PreprocessThreadsTest, Chain) {
  ExpectBitwiseAtEveryThreadCount<double>(Chain(3000));
}

TEST(PreprocessThreadsTest, Disconnected) {
  ExpectBitwiseAtEveryThreadCount<double>(Disconnected());
}

TEST(PreprocessThreadsTest, DanglingHeavy) {
  ExpectBitwiseAtEveryThreadCount<double>(DanglingHeavy());
}

TEST(PreprocessThreadsTest, SingleNode) {
  ExpectBitwiseAtEveryThreadCount<double>(Build(1, {}));
}

TEST(PreprocessThreadsTest, NoEdges) {
  BuildOptions options;
  options.dangling_policy = DanglingPolicy::kKeep;
  Graph graph = Build(5, {}, options);
  ASSERT_EQ(graph.num_edges(), 0u);
  ExpectBitwiseAtEveryThreadCount<double>(graph);
}

TEST(PreprocessThreadsTest, SnapshotBytesDoNotDependOnThreads) {
  Graph graph = Rmat(la::Precision::kFloat32, ValueStorage::kExplicit);
  const std::string base = ::testing::TempDir() + "/preprocess_threads_" +
                           std::to_string(::getpid());
  std::vector<std::string> bytes;
  for (const int threads : {1, 4}) {
    TpaOptions options;
    options.preprocess_threads = threads;
    auto tpa = Tpa::Preprocess(graph, options);
    ASSERT_TRUE(tpa.ok());
    const std::string path = base + "_" + std::to_string(threads) + ".tpasnap";
    ASSERT_TRUE(tpa->SaveSnapshot(path).ok());
    std::ifstream in(path, std::ios::binary);
    bytes.emplace_back(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
    std::remove(path.c_str());
  }
  ASSERT_FALSE(bytes[0].empty());
  EXPECT_TRUE(bytes[0] == bytes[1]);
}

TEST(PreprocessThreadsTest, NegativeThreadCountIsRejected) {
  TpaOptions options;
  options.preprocess_threads = -1;
  EXPECT_EQ(ValidateTpaOptions(options).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Tpa::Preprocess(Star(8), options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PreprocessThreadsTest, DefaultThreadCountPreprocesses) {
  Graph graph = Star(2500);
  auto tpa = Tpa::Preprocess(graph, {});
  ASSERT_TRUE(tpa.ok());
  TpaOptions one;
  one.preprocess_threads = 1;
  auto serial = Tpa::Preprocess(graph, one);
  ASSERT_TRUE(serial.ok());
  EXPECT_TRUE(BitwiseEqual(tpa->stranger_scores(), serial->stranger_scores()));
}

TEST(PreprocessThreadsTest, UnequalExplicitRowIsInvalidArgument) {
  Graph source = Star(50);
  snapshot::GraphFactory::Parts parts;
  parts.num_nodes = source.num_nodes();
  parts.out_structure = snapshot::GraphFactory::OutStructure(source);
  parts.in_structure = snapshot::GraphFactory::InStructure(source);
  parts.has_fp64 = true;
  const auto& values = source.Transition().values();
  std::vector<double> skewed(values.data(), values.data() + values.size());
  skewed[1] *= 2.0;  // row 0, the hub, now holds two different weights
  parts.out_values64 = la::SharedArray<double>(std::move(skewed));
  std::unique_ptr<Graph> graph = snapshot::GraphFactory::Make(std::move(parts));

  for (const int threads : {1, 3}) {
    TpaOptions options;
    options.preprocess_threads = threads;
    auto tpa = Tpa::Preprocess(*graph, options);
    EXPECT_EQ(tpa.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(tpa.status().message().find("explicit row 0"),
              std::string::npos)
        << tpa.status().ToString();
  }
}

TEST(PreprocessThreadsTest, UnsortedInRowIsInvalidArgument) {
  // 0 → 2 and 1 → 2, with node 2's in-list stored as {1, 0}.
  Graph graph(3, {0, 1, 2, 3}, {2, 2, 0}, {0, 1, 1, 3}, {2, 1, 0});
  auto tpa = Tpa::Preprocess(graph, {});
  EXPECT_EQ(tpa.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(tpa.status().message().find("in-CSR row 2"), std::string::npos)
      << tpa.status().ToString();
}

}  // namespace
}  // namespace tpa
