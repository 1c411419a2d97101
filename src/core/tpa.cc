#include "core/tpa.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>
#include <type_traits>

#include "la/vector_ops.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/worker_team.h"

namespace tpa {

Status ValidateTpaOptions(const TpaOptions& options) {
  TPA_RETURN_IF_ERROR(ValidateCpiParameters(options.restart_probability,
                                            options.tolerance));
  if (options.family_window < 1) {
    return InvalidArgumentError("family window S must be at least 1");
  }
  if (options.stranger_start <= options.family_window) {
    return InvalidArgumentError("stranger start T must exceed S");
  }
  TPA_RETURN_IF_ERROR(
      ValidateFrontierThreshold(options.frontier_density_threshold));
  TPA_RETURN_IF_ERROR(
      ValidateFrontierThreshold(options.topk_frontier_density_threshold));
  if (options.preprocess_threads < 0) {
    return InvalidArgumentError("preprocess_threads must be non-negative");
  }
  return OkStatus();
}

namespace {

/// All node ids sorted by value descending, ties toward the smaller id —
/// the order TopKSelector ranks equal-scored candidates, so walking it
/// yields the best never-touched candidates first.  The comparator is a
/// strict total order, so the order is unique: the team sorts one run per
/// thread, then merges neighboring runs pairwise, and the result does not
/// depend on the team size.
template <typename V>
std::vector<NodeId> ArgsortDescending(const std::vector<V>& values,
                                      WorkerTeam& team) {
  const auto before = [&values](NodeId a, NodeId b) {
    return values[a] != values[b] ? values[a] > values[b] : a < b;
  };
  const size_t n = values.size();
  const size_t runs = static_cast<size_t>(team.size());
  std::vector<size_t> bounds(runs + 1);
  for (size_t r = 0; r <= runs; ++r) bounds[r] = n * r / runs;
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  team.Run([&](int t) {
    std::sort(order.begin() + bounds[t], order.begin() + bounds[t + 1],
              before);
  });
  std::vector<NodeId> merged(runs > 1 ? n : 0);
  for (size_t width = 1; width < runs; width *= 2) {
    team.Run([&](int t) {
      const size_t lo = 2 * width * static_cast<size_t>(t);
      if (lo >= runs) return;
      const size_t mid = std::min(lo + width, runs);
      const size_t hi = std::min(lo + 2 * width, runs);
      std::merge(order.begin() + bounds[lo], order.begin() + bounds[mid],
                 order.begin() + bounds[mid], order.begin() + bounds[hi],
                 merged.begin() + bounds[lo], before);
    });
    order.swap(merged);
  }
  return order;
}

/// The Preprocess team size: preprocess_threads, 0 meaning every hardware
/// thread, capped at the CPI's norm-chunk count (a thread without a chunk
/// would only idle).
int PreprocessThreads(const TpaOptions& options, NodeId num_nodes) {
  const size_t requested =
      options.preprocess_threads > 0
          ? static_cast<size_t>(options.preprocess_threads)
          : std::thread::hardware_concurrency();
  const size_t chunks = std::max<size_t>(CpiNormChunks(num_nodes), 1);
  return static_cast<int>(std::clamp<size_t>(requested, 1, chunks));
}

}  // namespace

template <typename V>
const std::vector<V>& Tpa::StrangerT() const {
  if constexpr (std::is_same_v<V, double>) {
    return stranger_;
  } else {
    return stranger_f_;
  }
}

StatusOr<Tpa> Tpa::Preprocess(const Graph& graph, const TpaOptions& options) {
  TPA_RETURN_IF_ERROR(ValidateTpaOptions(options));

  // Algorithm 2: r̃_stranger = CPI(Ã, {1..n}, c, ε, T, ∞) — the tail of the
  // PageRank series from iteration T on, run and stored at the graph's
  // precision tier.
  CpiOptions cpi;
  cpi.restart_probability = options.restart_probability;
  cpi.tolerance = options.tolerance;
  cpi.start_iteration = options.stranger_start;
  cpi.terminal_iteration = CpiOptions::kUnbounded;
  cpi.frontier_density_threshold = options.frontier_density_threshold;

  WorkerTeam team(PreprocessThreads(options, graph.num_nodes()));
  if (graph.value_precision() == la::Precision::kFloat64) {
    std::vector<double> uniform(graph.num_nodes(),
                                1.0 / static_cast<double>(graph.num_nodes()));
    TPA_ASSIGN_OR_RETURN(
        Cpi::Result result,
        Cpi::RunWithSeedVectorT<double>(graph, uniform, cpi, nullptr, &team));
    std::vector<NodeId> order = ArgsortDescending(result.scores, team);
    return Tpa(&graph, options, std::move(result.scores), {},
               std::move(order));
  }
  std::vector<float> uniform(
      graph.num_nodes(),
      static_cast<float>(1.0 / static_cast<double>(graph.num_nodes())));
  TPA_ASSIGN_OR_RETURN(
      Cpi::ResultF result,
      Cpi::RunWithSeedVectorT<float>(graph, uniform, cpi, nullptr, &team));
  std::vector<NodeId> order = ArgsortDescending(result.scores, team);
  return Tpa(&graph, options, {}, std::move(result.scores), std::move(order));
}

StatusOr<Tpa> Tpa::FromPreprocessedState(const Graph& graph,
                                         const TpaOptions& options,
                                         std::vector<double> stranger,
                                         std::vector<float> stranger_f,
                                         std::vector<NodeId> stranger_order) {
  TPA_RETURN_IF_ERROR(ValidateTpaOptions(options));
  const size_t n = graph.num_nodes();
  const bool fp64 = graph.value_precision() == la::Precision::kFloat64;
  if (fp64 && (stranger.size() != n || !stranger_f.empty())) {
    return InvalidArgumentError(
        "fp64 preprocessed state requires an n-length fp64 stranger tail "
        "and no fp32 tail");
  }
  if (!fp64 && (stranger_f.size() != n || !stranger.empty())) {
    return InvalidArgumentError(
        "fp32 preprocessed state requires an n-length fp32 stranger tail "
        "and no fp64 tail");
  }
  if (stranger_order.size() != n) {
    return InvalidArgumentError("stranger order must rank all n nodes");
  }
  std::vector<bool> seen(n, false);
  for (const NodeId node : stranger_order) {
    if (node >= n || seen[node]) {
      return InvalidArgumentError(
          "stranger order is not a permutation of the node ids");
    }
    seen[node] = true;
  }
  return Tpa(&graph, options, std::move(stranger), std::move(stranger_f),
             std::move(stranger_order));
}

double Tpa::NeighborScale() const {
  const double decay = 1.0 - options_.restart_probability;
  const double ds = std::pow(decay, options_.family_window);
  const double dt = std::pow(decay, options_.stranger_start);
  return (ds - dt) / (1.0 - ds);
}

CpiOptions Tpa::FamilyCpiOptions() const {
  // Algorithm 3 line 2: r_family = CPI(Ã, {s}, c, ε, 0, S-1).
  CpiOptions cpi;
  cpi.restart_probability = options_.restart_probability;
  cpi.tolerance = options_.tolerance;
  cpi.start_iteration = 0;
  cpi.terminal_iteration = options_.family_window - 1;
  cpi.frontier_density_threshold = options_.frontier_density_threshold;
  return cpi;
}

Tpa::QueryParts Tpa::QueryDecomposed(NodeId seed) const {
  TPA_CHECK_LT(seed, graph_->num_nodes());
  const CpiOptions cpi = FamilyCpiOptions();

  QueryParts parts;
  WorkspacePool::Lease workspace = workspaces_->Acquire();
  if (precision_ == la::Precision::kFloat64) {
    StatusOr<Cpi::Result> family =
        Cpi::Run(*graph_, {seed}, cpi, workspace.get());
    TPA_CHECK(family.ok());  // options were validated at Preprocess time
    parts.family = std::move(family->scores);
  } else {
    StatusOr<Cpi::ResultF> family =
        Cpi::RunT<float>(*graph_, {seed}, cpi, workspace.get());
    TPA_CHECK(family.ok());
    parts.family = la::ConvertVector<double>(family->scores);
  }

  // Line 3: r̃_neighbor = (‖r_neighbor‖₁/‖r_family‖₁) · r_family.
  parts.neighbor_est = parts.family;
  la::Scale(NeighborScale(), parts.neighbor_est);

  // Line 4: r_TPA = r_family + r̃_neighbor + r̃_stranger.
  parts.total = parts.family;
  la::Axpy(1.0, parts.neighbor_est, parts.total);
  if (precision_ == la::Precision::kFloat64) {
    la::Axpy(1.0, stranger_, parts.total);
  } else {
    // Widen the fp32 stranger tail on the fly (exact per element).
    for (size_t i = 0; i < parts.total.size(); ++i) {
      parts.total[i] += static_cast<double>(stranger_f_[i]);
    }
  }
  return parts;
}

std::vector<double> Tpa::Query(NodeId seed) const {
  TPA_CHECK_LT(seed, graph_->num_nodes());
  // The fused single-seed merge is exactly the personalized query: it skips
  // the materialized neighbor vector of QueryDecomposed — Query is the
  // serving hot path.
  if (precision_ == la::Precision::kFloat64) {
    StatusOr<std::vector<double>> total = QueryPersonalizedT<double>({seed});
    TPA_CHECK(total.ok());  // seed was range-checked above
    return *std::move(total);
  }
  StatusOr<std::vector<float>> total = QueryPersonalizedT<float>({seed});
  TPA_CHECK(total.ok());
  return la::ConvertVector<double>(*total);
}

TopKQueryResult Tpa::QueryTopK(NodeId seed, int k,
                               const TopKQueryOptions& topk_options) const {
  TPA_CHECK_LT(seed, graph_->num_nodes());
  TPA_CHECK_GE(k, 0);
  StatusOr<TopKQueryResult> result =
      QueryTopK(seed, k, topk_options, /*context=*/nullptr);
  TPA_CHECK(result.ok());  // inputs validated above and at Preprocess
  return *std::move(result);
}

StatusOr<TopKQueryResult> Tpa::QueryTopK(NodeId seed, int k,
                                         const TopKQueryOptions& topk_options,
                                         QueryContext* context) const {
  if (seed >= graph_->num_nodes()) {
    return OutOfRangeError("seed node out of range");
  }
  if (k < 0) return InvalidArgumentError("k must be non-negative");
  TPA_FAILPOINT("tpa.workspace_checkout");
  CpiOptions cpi = FamilyCpiOptions();
  cpi.frontier_density_threshold = options_.topk_frontier_density_threshold;
  Cpi::TopKRunOptions run;
  run.k = k;
  run.allow_early_termination = topk_options.allow_early_termination;
  WorkspacePool::Lease workspace = workspaces_->Acquire();
  if (precision_ == la::Precision::kFloat64) {
    Cpi::TopKBaseT<double> base;
    base.base = &stranger_;
    base.post_scale = 1.0 + NeighborScale();
    base.order = stranger_order_;
    return Cpi::RunTopKT<double>(*graph_, {seed}, cpi, run, base,
                                 workspace.get(), context);
  }
  Cpi::TopKBaseT<float> base;
  base.base = &stranger_f_;
  base.post_scale = 1.0 + NeighborScale();
  base.order = stranger_order_;
  return Cpi::RunTopKT<float>(*graph_, {seed}, cpi, run, base,
                              workspace.get(), context);
}

std::vector<float> Tpa::QueryF(NodeId seed) const {
  TPA_CHECK(precision_ == la::Precision::kFloat32);
  TPA_CHECK_LT(seed, graph_->num_nodes());
  StatusOr<std::vector<float>> total = QueryPersonalizedT<float>({seed});
  TPA_CHECK(total.ok());
  return *std::move(total);
}

template <typename V>
StatusOr<la::DenseBlockT<V>> Tpa::QueryBatchT(
    std::span<const NodeId> seeds,
    std::span<QueryContext* const> contexts) const {
  TPA_FAILPOINT("tpa.workspace_checkout");
  WorkspacePool::Lease workspace = workspaces_->Acquire();
  TPA_ASSIGN_OR_RETURN(la::DenseBlockT<V> block,
                       Cpi::RunBatchT<V>(*graph_, seeds, FamilyCpiOptions(),
                                         workspace.get(), contexts));

  // The same fused merge as QueryPersonalized, blocked:
  // total = (1 + scale)·family + stranger per vector.
  la::BlockScale(1.0 + NeighborScale(), block);
  la::BlockAddVector(1.0, StrangerT<V>(), block);
  // An aborted seed's family bound propagates through the merge scaled by
  // (1 + scale); the stranger add is exact, so the scaled bound certifies
  // the returned vector.
  for (QueryContext* context : contexts) {
    if (context != nullptr && context->aborted) {
      context->error_bound *= 1.0 + NeighborScale();
    }
  }
  return block;
}

StatusOr<la::DenseBlock> Tpa::QueryBatch(
    std::span<const NodeId> seeds,
    std::span<QueryContext* const> contexts) const {
  if (precision_ == la::Precision::kFloat64) {
    return QueryBatchT<double>(seeds, contexts);
  }
  TPA_ASSIGN_OR_RETURN(la::DenseBlockF block,
                       QueryBatchT<float>(seeds, contexts));
  la::DenseBlock wide;
  la::ConvertBlock(block, wide);
  return wide;
}

StatusOr<la::DenseBlockF> Tpa::QueryBatchF(
    std::span<const NodeId> seeds,
    std::span<QueryContext* const> contexts) const {
  TPA_CHECK(precision_ == la::Precision::kFloat32);
  return QueryBatchT<float>(seeds, contexts);
}

template <typename V>
StatusOr<std::vector<V>> Tpa::QueryPersonalizedT(
    const std::vector<NodeId>& seeds, QueryContext* context) const {
  TPA_FAILPOINT("tpa.workspace_checkout");
  const CpiOptions cpi = FamilyCpiOptions();
  WorkspacePool::Lease workspace = workspaces_->Acquire();
  TPA_ASSIGN_OR_RETURN(
      Cpi::ResultT<V> family,
      Cpi::RunT<V>(*graph_, seeds, cpi, workspace.get(), context));

  std::vector<V> total = std::move(family.scores);
  // total = (1 + scale)·family + stranger, by the same Algorithm 3 merge.
  la::Scale(1.0 + NeighborScale(), total);
  la::Axpy(1.0, StrangerT<V>(), total);
  if (context != nullptr && context->aborted) {
    // As in QueryBatchT: the family bound through the merge's post-scale.
    context->error_bound *= 1.0 + NeighborScale();
  }
  return total;
}

StatusOr<std::vector<double>> Tpa::QueryPersonalized(
    const std::vector<NodeId>& seeds, QueryContext* context) const {
  if (precision_ == la::Precision::kFloat64) {
    return QueryPersonalizedT<double>(seeds, context);
  }
  TPA_ASSIGN_OR_RETURN(std::vector<float> total,
                       QueryPersonalizedT<float>(seeds, context));
  return la::ConvertVector<double>(total);
}

StatusOr<std::vector<float>> Tpa::QueryPersonalizedF(
    const std::vector<NodeId>& seeds, QueryContext* context) const {
  if (precision_ != la::Precision::kFloat32) {
    return FailedPreconditionError(
        "QueryPersonalizedF requires an fp32 graph");
  }
  return QueryPersonalizedT<float>(seeds, context);
}

double StrangerErrorBound(double restart_probability, int stranger_start) {
  return 2.0 * std::pow(1.0 - restart_probability, stranger_start);
}

double NeighborErrorBound(double restart_probability, int family_window,
                          int stranger_start) {
  const double decay = 1.0 - restart_probability;
  return 2.0 * std::pow(decay, family_window) -
         2.0 * std::pow(decay, stranger_start);
}

double TotalErrorBound(double restart_probability, int family_window) {
  return 2.0 * std::pow(1.0 - restart_probability, family_window);
}

}  // namespace tpa
