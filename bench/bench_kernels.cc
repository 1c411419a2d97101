/// Kernel microbenchmarks (google-benchmark) for the propagation kernels
/// described in README.md ("Adaptive propagation & reordering", "Precision
/// tiers", "Memory layout"):
///  * the dense transition product (the destination gather),
///  * one CPI iteration and full CPI convergence,
///  * forward push and random-walk sampling,
///  * sparse CSR matvec from the block-elimination substrate,
///  * the frontier-sparse scatter (the adaptive head).
///
/// With `--json PATH [--scale N] [--edges M]` the binary instead runs the
/// sparse-head crossover sweep on a generated R-MAT graph and writes the
/// measurements machine-readable (e.g. BENCH_kernels.json): per frontier
/// density, the time of SpMmTransposeFrontier at width 1 and width 8
/// against the destination gather (Graph::MultiplyTransposeBlockT) at the
/// same width — the two steps Cpi's loop switches between — plus the
/// measured crossover density, the data behind
/// CpiOptions::frontier_density_threshold's default.  At every density
/// the head's output must equal the gather's bitwise; the run exits 1
/// when it does not.
///
/// The same JSON run also records the fp32-vs-fp64 precision sweep: the
/// gather (Graph::MultiplyTransposeT, MultiplyTransposeBlockT at widths 8
/// and 16) timed at both value tiers over a ladder of graph sizes ending
/// at the (cache-exceeding) sweep size — the data behind the "Precision
/// tiers" guidance in the README.  Each ladder rung also times value-free
/// twins (ValueStorage::kRowConstant over the same R-MAT draw, bitwise-
/// identical outputs) at both tiers — the data behind "Memory layout".
///
/// The committed BENCH_kernels.json is regenerated, from a Release build
/// directory `build/` at the repository root, with
///   build/bench_kernels --scale 20 --edges 16777216 --json BENCH_kernels.json
/// (precision rows at scales 16/18/20, 16 edge draws per node).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/cpi.h"
#include "core/tpa.h"
#include "graph/generators.h"
#include "graph/presets.h"
#include "la/csr_matrix.h"
#include "la/dense_block.h"
#include "la/sparse_matrix.h"
#include "method/monte_carlo.h"
#include "method/push.h"
#include "util/check.h"
#include "util/mem_stats.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace tpa {
namespace {

const Graph& BenchGraph() {
  static const Graph* graph = [] {
    auto spec = FindDatasetSpec("slashdot-sim");
    TPA_CHECK(spec.ok());
    auto g = MakePresetGraph(*spec, 1.0);
    TPA_CHECK(g.ok());
    return new Graph(std::move(g).value());
  }();
  return *graph;
}

void BM_MultiplyTranspose(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  std::vector<double> x(graph.num_nodes(), 1.0 / graph.num_nodes());
  std::vector<double> y;
  for (auto _ : state) {
    graph.MultiplyTranspose(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * graph.num_edges());
}
BENCHMARK(BM_MultiplyTranspose);

void BM_CpiExactQuery(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  for (auto _ : state) {
    auto result = Cpi::ExactRwr(graph, 0, {});
    TPA_CHECK(result.ok());
    benchmark::DoNotOptimize(result->data());
  }
}
BENCHMARK(BM_CpiExactQuery);

void BM_TpaOnlineQuery(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  static const Tpa* tpa = [] {
    auto t = Tpa::Preprocess(BenchGraph(), {});
    TPA_CHECK(t.ok());
    return new Tpa(std::move(t).value());
  }();
  NodeId seed = 0;
  for (auto _ : state) {
    auto scores = tpa->Query(seed % graph.num_nodes());
    benchmark::DoNotOptimize(scores.data());
    seed += 17;
  }
}
BENCHMARK(BM_TpaOnlineQuery);

void BM_ForwardPush(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  const double r_max = 1e-5;
  NodeId seed = 0;
  for (auto _ : state) {
    auto push = ForwardPush(graph, seed % graph.num_nodes(), 0.15, r_max);
    TPA_CHECK(push.ok());
    benchmark::DoNotOptimize(push->reserve.data());
    seed += 29;
  }
}
BENCHMARK(BM_ForwardPush);

void BM_RandomWalks(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  Rng rng(5);
  for (auto _ : state) {
    NodeId endpoint = RandomWalkEndpoint(graph, 0, 0.15, rng);
    benchmark::DoNotOptimize(endpoint);
  }
}
BENCHMARK(BM_RandomWalks);

void BM_SparseMatVec(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  static const la::SparseMatrix* matrix = [] {
    const Graph& g = BenchGraph();
    std::vector<la::Triplet> triplets;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const double value = 1.0 / std::max<uint32_t>(1, g.OutDegree(u));
      for (NodeId v : g.OutNeighbors(u)) {
        triplets.push_back({v, u, value});
      }
    }
    auto m = la::SparseMatrix::FromTriplets(g.num_nodes(), g.num_nodes(),
                                            std::move(triplets));
    TPA_CHECK(m.ok());
    return new la::SparseMatrix(std::move(m).value());
  }();
  std::vector<double> x(graph.num_nodes(), 1.0 / graph.num_nodes());
  std::vector<double> y;
  for (auto _ : state) {
    matrix->MatVec(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * matrix->nnz());
}
BENCHMARK(BM_SparseMatVec);

/// The width-1 frontier scatter — the sparse head of a single-seed CPI.
void BM_SpMmTransposeFrontierWidth1Sparse(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  const la::CsrMatrix& csr = graph.Transition();
  const uint32_t n = csr.rows();
  const auto frontier_rows = static_cast<uint32_t>(state.range(0));
  la::DenseBlock x(n, 1);
  std::vector<uint32_t> frontier(frontier_rows);
  for (uint32_t i = 0; i < frontier_rows; ++i) {
    frontier[i] = static_cast<uint32_t>((uint64_t{i} * 2654435761u) % n);
    x.At(frontier[i], 0) = 1.0 / frontier_rows;
  }
  std::sort(frontier.begin(), frontier.end());
  frontier.erase(std::unique(frontier.begin(), frontier.end()),
                 frontier.end());
  la::DenseBlock y(n, 1);
  std::vector<uint32_t> next_frontier;
  la::FrontierScratch scratch;
  for (auto _ : state) {
    for (uint32_t j : next_frontier) y.At(j, 0) = 0.0;
    csr.SpMmTransposeFrontier(x, frontier, 1.0, y, next_frontier, scratch);
    benchmark::DoNotOptimize(y.RowPtr(0));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SpMmTransposeFrontierWidth1Sparse)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(16384);

// ------------------------------------------------------------------ sweep

struct SweepArgs {
  uint32_t scale = 17;
  uint64_t edges = 1'500'000;
  std::string json_path;
};

SweepArgs ParseSweepArgs(int argc, char** argv) {
  SweepArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--json") == 0) {
      args.json_path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      args.scale = static_cast<uint32_t>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--edges") == 0) {
      args.edges = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  return args;
}

struct SweepRow {
  size_t frontier_rows = 0;
  double density = 0.0;
  double spmv_sparse_ms = 0.0;
  double spmv_gather_ms = 0.0;
  double spmm_sparse_ms = 0.0;
  double spmm_gather_ms = 0.0;
  /// Whether the head's outputs equal the gather's bitwise at both widths.
  bool bitwise_equal = false;
  /// VmHWM when the row was recorded — a running process-lifetime maximum.
  size_t peak_rss_bytes = 0;
};

/// Runs `op` repeatedly until ~80ms of wall time accumulates and returns
/// the best per-call milliseconds.
template <typename Op>
double TimeMs(Op&& op) {
  double best = 1e18;
  double total = 0.0;
  do {
    Stopwatch watch;
    op();
    const double ms = watch.ElapsedSeconds() * 1e3;
    best = std::min(best, ms);
    total += ms;
  } while (total < 80.0);
  return best;
}

// -------------------------------------------------------- precision sweep

struct PrecisionRow {
  uint32_t scale = 0;
  uint32_t nodes = 0;
  uint64_t edges = 0;
  size_t csr_bytes_fp64 = 0;
  size_t csr_bytes_fp32 = 0;
  size_t csr_bytes_vf = 0;  // both structures + one n-length 1/deg array
  double spmvt_fp64_ms = 0.0;
  double spmvt_fp32_ms = 0.0;
  double spmm8_fp64_ms = 0.0;
  double spmm8_fp32_ms = 0.0;
  double spmm16_fp64_ms = 0.0;
  double spmm16_fp32_ms = 0.0;
  // Value-free twins (CsrValueMode::kRowConstant over the same structure):
  // identical outputs bitwise, index-only ≈4 bytes/nnz streamed.
  double spmvt_vf64_ms = 0.0;
  double spmvt_vf32_ms = 0.0;
  double spmm8_vf64_ms = 0.0;
  double spmm8_vf32_ms = 0.0;
  double spmm16_vf64_ms = 0.0;
  double spmm16_vf32_ms = 0.0;
  /// VmHWM when the row was recorded — a running process-lifetime maximum.
  size_t peak_rss_bytes = 0;
};

/// Times the gather at tier V on one graph.  Dense uniform operands: every
/// edge is touched, so the measurement isolates the bytes-per-edge
/// difference the tiers exist for.  The block gather is timed at width 8
/// (the fp64 line width — one fp64 block row per 64-byte cache line) and
/// width 16 (the fp32 line width): the width-16 ratio is the
/// serving-relevant one — it is the group size the engine's kAuto
/// dispatches at the fp32 tier.
///
/// Each output slot MIN-MERGES (0.0 = unset): the caller times the four
/// storage variants in several interleaved rounds and keeps each variant's
/// best.  One variant's kernels run in seconds, but a four-variant
/// sequential pass spans minutes — long enough for shared-host load drift
/// to corrupt exactly the cross-variant ratios this sweep exists to
/// measure.  Interleaving puts every compared pair a few seconds apart,
/// and min-over-rounds converges each variant to its quiet-machine time.
template <typename V>
void TimePrecisionKernels(const Graph& graph, double& spmvt_ms,
                          double& spmm8_ms, double& spmm16_ms) {
  const auto keep = [](double& slot, double ms) {
    slot = (slot == 0.0) ? ms : std::min(slot, ms);
  };
  const uint32_t n = graph.num_nodes();
  std::vector<V> x(n, static_cast<V>(1.0 / static_cast<double>(n)));
  std::vector<V> y;
  keep(spmvt_ms, TimeMs([&] { graph.MultiplyTransposeT(x, y); }));
  for (size_t width : {size_t{8}, size_t{16}}) {
    la::DenseBlockT<V> bx(n, width);
    for (uint32_t r = 0; r < n; ++r) {
      V* row = bx.RowPtr(r);
      for (size_t b = 0; b < width; ++b) row[b] = x[r];
    }
    la::DenseBlockT<V> by;
    keep(width == 8 ? spmm8_ms : spmm16_ms,
         TimeMs([&] { graph.MultiplyTransposeBlockT(bx, by); }));
  }
}

/// fp32-vs-fp64 over a size ladder ending at the sweep size; the largest
/// graph's CSR exceeds the LLC of every host this repository targets, which
/// is where the halved value bytes turn into wall-clock.  `full_graph` is
/// the crossover sweep's already-generated graph, reused for the
/// full-scale row instead of paying a second R-MAT draw.
std::vector<PrecisionRow> RunPrecisionSweep(const SweepArgs& args,
                                            const Graph& full_graph) {
  std::vector<PrecisionRow> rows;
  for (uint32_t scale_back : {4u, 2u, 0u}) {
    if (scale_back >= args.scale) continue;
    PrecisionRow row;
    row.scale = args.scale - scale_back;
    RmatOptions rmat;
    rmat.scale = row.scale;
    rmat.edges = args.edges >> scale_back;  // constant average degree
    rmat.seed = 42;
    std::optional<Graph> generated;
    const Graph* graph = &full_graph;
    if (scale_back > 0) {
      auto smaller = GenerateRmat(rmat);
      TPA_CHECK(smaller.ok());
      generated.emplace(std::move(smaller).value());
      graph = &*generated;
    }
    Graph graph32 = RematerializeWithPrecision(*graph, la::Precision::kFloat32);
    // Value-free twins: the same R-MAT draw built with the n-length
    // 1/out-degree scale instead of per-edge values; bitwise-identical
    // outputs.
    BuildOptions value_free;
    value_free.value_storage = ValueStorage::kRowConstant;
    auto vf64 = GenerateRmat(rmat, value_free);
    TPA_CHECK(vf64.ok());
    Graph vf32 = RematerializeWithPrecision(*vf64, la::Precision::kFloat32);
    row.nodes = graph->num_nodes();
    row.edges = graph->num_edges();
    row.csr_bytes_fp64 = graph->SizeBytes();
    row.csr_bytes_fp32 = graph32.SizeBytes();
    row.csr_bytes_vf = vf64->SizeBytes();
    // Three interleaved rounds, each variant next to the one it is
    // compared against; TimePrecisionKernels min-merges across rounds.
    constexpr int kTimingRounds = 3;
    for (int round = 0; round < kTimingRounds; ++round) {
      TimePrecisionKernels<double>(*graph, row.spmvt_fp64_ms,
                                   row.spmm8_fp64_ms, row.spmm16_fp64_ms);
      TimePrecisionKernels<double>(*vf64, row.spmvt_vf64_ms,
                                   row.spmm8_vf64_ms, row.spmm16_vf64_ms);
      TimePrecisionKernels<float>(graph32, row.spmvt_fp32_ms,
                                  row.spmm8_fp32_ms, row.spmm16_fp32_ms);
      TimePrecisionKernels<float>(vf32, row.spmvt_vf32_ms, row.spmm8_vf32_ms,
                                  row.spmm16_vf32_ms);
    }
    std::printf(
        "precision scale %2u (%7u nodes, %8llu edges): "
        "spmvt %.3f/%.3f ms (%.2fx)  "
        "spmm8 %.3f/%.3f ms (%.2fx)  spmm16 %.3f/%.3f ms (%.2fx)\n",
        row.scale, row.nodes, static_cast<unsigned long long>(row.edges),
        row.spmvt_fp64_ms, row.spmvt_fp32_ms,
        row.spmvt_fp64_ms / row.spmvt_fp32_ms, row.spmm8_fp64_ms,
        row.spmm8_fp32_ms, row.spmm8_fp64_ms / row.spmm8_fp32_ms,
        row.spmm16_fp64_ms, row.spmm16_fp32_ms,
        row.spmm16_fp64_ms / row.spmm16_fp32_ms);
    std::printf(
        "value-free scale %2u: spmvt vf64 %.3f ms (%.2fx vs fp64) "
        "vf32 %.3f ms (%.2fx vs fp32)  spmm16 vf64 %.3f ms (%.2fx vs fp64) "
        "vf32 %.3f ms (%.2fx vs fp32)\n",
        row.scale, row.spmvt_vf64_ms, row.spmvt_fp64_ms / row.spmvt_vf64_ms,
        row.spmvt_vf32_ms, row.spmvt_fp32_ms / row.spmvt_vf32_ms,
        row.spmm16_vf64_ms, row.spmm16_fp64_ms / row.spmm16_vf64_ms,
        row.spmm16_vf32_ms, row.spmm16_fp32_ms / row.spmm16_vf32_ms);
    row.peak_rss_bytes = PeakRssBytes();
    rows.push_back(row);
  }
  return rows;
}

void AppendPrecisionJson(std::ofstream& out,
                         const std::vector<PrecisionRow>& rows) {
  out << "  \"precision_rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const PrecisionRow& row = rows[i];
    out << "    {\"scale\": " << row.scale << ", \"nodes\": " << row.nodes
        << ", \"edges\": " << row.edges
        << ", \"csr_bytes_fp64\": " << row.csr_bytes_fp64
        << ", \"csr_bytes_fp32\": " << row.csr_bytes_fp32
        << ", \"spmvt_fp64_ms\": " << row.spmvt_fp64_ms
        << ", \"spmvt_fp32_ms\": " << row.spmvt_fp32_ms
        << ", \"spmm8_fp64_ms\": " << row.spmm8_fp64_ms
        << ", \"spmm8_fp32_ms\": " << row.spmm8_fp32_ms
        << ", \"spmm16_fp64_ms\": " << row.spmm16_fp64_ms
        << ", \"spmm16_fp32_ms\": " << row.spmm16_fp32_ms
        << ", \"spmm16_fp32_speedup\": "
        << row.spmm16_fp64_ms / row.spmm16_fp32_ms
        << ", \"csr_bytes_vf\": " << row.csr_bytes_vf
        << ", \"spmvt_vf64_ms\": " << row.spmvt_vf64_ms
        << ", \"spmvt_vf32_ms\": " << row.spmvt_vf32_ms
        << ", \"spmm8_vf64_ms\": " << row.spmm8_vf64_ms
        << ", \"spmm8_vf32_ms\": " << row.spmm8_vf32_ms
        << ", \"spmm16_vf64_ms\": " << row.spmm16_vf64_ms
        << ", \"spmm16_vf32_ms\": " << row.spmm16_vf32_ms
        << ", \"spmvt_vf64_speedup_vs_fp64\": "
        << row.spmvt_fp64_ms / row.spmvt_vf64_ms
        << ", \"spmvt_vf32_speedup_vs_fp32\": "
        << row.spmvt_fp32_ms / row.spmvt_vf32_ms
        << ", \"spmm16_vf64_speedup_vs_fp64\": "
        << row.spmm16_fp64_ms / row.spmm16_vf64_ms
        << ", \"spmm16_vf32_speedup_vs_fp32\": "
        << row.spmm16_fp32_ms / row.spmm16_vf32_ms
        << ", \"peak_rss_bytes\": " << row.peak_rss_bytes << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
}

/// Whether two blocks hold the same bits.
bool BitwiseEqual(const la::DenseBlock& a, const la::DenseBlock& b) {
  return a.rows() == b.rows() && a.num_vectors() == b.num_vectors() &&
         std::memcmp(a.RowPtr(0), b.RowPtr(0),
                     a.rows() * a.num_vectors() * sizeof(double)) == 0;
}

/// Node ids in breadth-first order over out-edges from `source` — the
/// direction CPI propagates — restarting at the smallest unvisited id when
/// a component runs out.  The first f entries are the frontier of f rows a
/// CPI seeded at `source` grows into: it reaches the hubs within a hop or
/// two, so it covers far more edges than f ids spread over the id space.
std::vector<uint32_t> BfsOrder(const Graph& graph, uint32_t source) {
  const uint32_t n = graph.num_nodes();
  std::vector<uint32_t> order = {source};
  order.reserve(n);
  std::vector<bool> seen(n, false);
  seen[source] = true;
  uint32_t next_root = 0;
  for (size_t head = 0; order.size() < n; ++head) {
    if (head == order.size()) {
      while (seen[next_root]) ++next_root;
      seen[next_root] = true;
      order.push_back(next_root);
    }
    for (uint32_t v : graph.OutNeighbors(order[head])) {
      if (!seen[v]) {
        seen[v] = true;
        order.push_back(v);
      }
    }
  }
  return order;
}

/// The sparse-head crossover: one frontier scatter at a frontier of f rows
/// (the first f nodes a BFS from a fixed seed reaches), timed for the
/// width-1 block kernel (the "spmv" columns: what a single-seed CPI runs)
/// and the width-8 one against the gather at the same width.  The
/// crossover density — where the head stops winning — is what
/// CpiOptions::frontier_density_threshold encodes.  Returns 1 when, at any
/// density, the head's output is not bitwise the gather's.
int RunCrossoverSweep(const SweepArgs& args) {
  constexpr size_t kBlockWidth = 8;
  RmatOptions rmat;
  rmat.scale = args.scale;
  rmat.edges = args.edges;
  rmat.seed = 42;
  std::printf("generating R-MAT graph: scale %u, %llu edge draws\n",
              rmat.scale, static_cast<unsigned long long>(rmat.edges));
  auto graph = GenerateRmat(rmat);
  TPA_CHECK(graph.ok());
  const la::CsrMatrix& csr = graph->Transition();
  const uint32_t n = csr.rows();
  // A fixed, hashed seed that is not dangling (its only out-edge would be
  // the builder's self-loop).
  uint32_t source = static_cast<uint32_t>(uint64_t{2654435761u} % n);
  while (graph->OutDegree(source) <= 1) source = (source + 1) % n;
  const std::vector<uint32_t> reach = BfsOrder(*graph, source);

  std::vector<SweepRow> rows;
  bool all_equal = true;
  for (size_t f = 16; f < n; f *= 2) {
    SweepRow row;
    row.frontier_rows = f;
    row.density = static_cast<double>(f) / n;

    la::DenseBlock x(n, 1);
    la::DenseBlock bx(n, kBlockWidth);
    std::vector<uint32_t> frontier(reach.begin(), reach.begin() + f);
    std::sort(frontier.begin(), frontier.end());
    for (uint32_t r : frontier) {
      x.At(r, 0) = 1.0 / static_cast<double>(f);
      // Columns differ, so a column mix-up cannot pass the bitwise check.
      for (size_t b = 0; b < kBlockWidth; ++b) {
        bx.At(r, b) = x.At(r, 0) * static_cast<double>(b + 1);
      }
    }

    la::DenseBlock y(n, 1);
    std::vector<uint32_t> next_frontier;
    la::FrontierScratch scratch;
    // The sparse timing includes the stale-support re-zeroing the adaptive
    // loop pays per iteration.
    row.spmv_sparse_ms = TimeMs([&] {
      for (uint32_t j : next_frontier) y.At(j, 0) = 0.0;
      csr.SpMmTransposeFrontier(x, frontier, 1.0, y, next_frontier, scratch);
    });
    la::DenseBlock gather_y;
    row.spmv_gather_ms =
        TimeMs([&] { graph->MultiplyTransposeBlockT(x, gather_y); });

    la::DenseBlock by(n, kBlockWidth);
    next_frontier.clear();
    row.spmm_sparse_ms = TimeMs([&] {
      for (uint32_t j : next_frontier) {
        double* row_ptr = by.RowPtr(j);
        std::fill(row_ptr, row_ptr + kBlockWidth, 0.0);
      }
      csr.SpMmTransposeFrontier(bx, frontier, 1.0, by, next_frontier,
                                scratch);
    });
    la::DenseBlock gather_by;
    row.spmm_gather_ms =
        TimeMs([&] { graph->MultiplyTransposeBlockT(bx, gather_by); });
    row.bitwise_equal =
        BitwiseEqual(y, gather_y) && BitwiseEqual(by, gather_by);
    all_equal = all_equal && row.bitwise_equal;

    std::printf(
        "frontier %7zu (density %.4f): spmv %.3f/%.3f ms (%.2fx)  "
        "spmm%zu %.3f/%.3f ms (%.2fx)%s\n",
        row.frontier_rows, row.density, row.spmv_sparse_ms,
        row.spmv_gather_ms, row.spmv_gather_ms / row.spmv_sparse_ms,
        kBlockWidth, row.spmm_sparse_ms, row.spmm_gather_ms,
        row.spmm_gather_ms / row.spmm_sparse_ms,
        row.bitwise_equal ? "" : "  HEAD != GATHER");
    row.peak_rss_bytes = PeakRssBytes();
    rows.push_back(row);
  }

  // First measured density where the sparse kernel stops winning.
  auto crossover = [&rows](auto sparse_ms, auto gather_ms) {
    for (const SweepRow& row : rows) {
      if (sparse_ms(row) >= gather_ms(row)) return row.density;
    }
    return 1.0;
  };
  const double spmv_crossover =
      crossover([](const SweepRow& r) { return r.spmv_sparse_ms; },
                [](const SweepRow& r) { return r.spmv_gather_ms; });
  const double spmm_crossover =
      crossover([](const SweepRow& r) { return r.spmm_sparse_ms; },
                [](const SweepRow& r) { return r.spmm_gather_ms; });
  std::printf("crossover density: spmv %.4f, spmm %.4f\n", spmv_crossover,
              spmm_crossover);

  const std::vector<PrecisionRow> precision_rows =
      RunPrecisionSweep(args, *graph);

  std::ofstream out(args.json_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
    return 1;
  }
  out << "{\n";
  out << "  \"benchmark\": \"kernels_frontier_crossover\",\n";
  out << "  \"graph\": {\"scale\": " << args.scale << ", \"nodes\": " << n
      << ", \"edges\": " << csr.nnz() << "},\n";
  out << "  \"block_width\": " << kBlockWidth << ",\n";
  out << "  \"bfs_source\": " << source << ",\n";
  out << "  \"spmv_crossover_density\": " << spmv_crossover << ",\n";
  out << "  \"spmm_crossover_density\": " << spmm_crossover << ",\n";
  out << "  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& row = rows[i];
    out << "    {\"frontier_rows\": " << row.frontier_rows
        << ", \"density\": " << row.density
        << ", \"spmv_sparse_ms\": " << row.spmv_sparse_ms
        << ", \"spmv_gather_ms\": " << row.spmv_gather_ms
        << ", \"spmm_sparse_ms\": " << row.spmm_sparse_ms
        << ", \"spmm_gather_ms\": " << row.spmm_gather_ms
        << ", \"bitwise_equal\": "
        << (row.bitwise_equal ? "true" : "false")
        << ", \"peak_rss_bytes\": " << row.peak_rss_bytes << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  AppendPrecisionJson(out, precision_rows);
  out << "}\n";
  std::printf("wrote %s\n", args.json_path.c_str());
  if (!all_equal) {
    std::fprintf(stderr,
                 "the frontier head's output differs from the gather's\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tpa

int main(int argc, char** argv) {
  const tpa::SweepArgs args = tpa::ParseSweepArgs(argc, argv);
  if (!args.json_path.empty()) return tpa::RunCrossoverSweep(args);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
