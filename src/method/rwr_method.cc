#include "method/rwr_method.h"

#include "la/vector_ops.h"

namespace tpa {

StatusOr<TopKQueryResult> RwrMethod::QueryTopK(NodeId seed, int k,
                                               const TopKQueryOptions&,
                                               QueryContext* context) {
  if (k < 0) return InvalidArgumentError("k must be non-negative");
  // Full-vector fallback: no bounds to terminate on, so the options'
  // early-termination flag is moot — the ranking and scores are exactly the
  // dense path's either way.  An abort mid-query fails the call: top-k
  // never returns a partial ranking.
  TPA_ASSIGN_OR_RETURN(std::vector<double> scores, Query(seed, context));
  if (context != nullptr && context->aborted) return context->AbortStatus();
  TopKQueryResult result;
  const std::vector<size_t> idx =
      la::TopKIndices(scores, static_cast<size_t>(k));
  result.top.reserve(idx.size());
  for (size_t i : idx) {
    result.top.push_back({static_cast<NodeId>(i), scores[i]});
  }
  return result;
}

namespace {

/// The default batch body at tier V: one per-seed `query` per seed, each
/// under its aligned context, stacked into a block.
template <typename V, typename QueryFn>
StatusOr<la::DenseBlockT<V>> LoopPerSeed(
    std::span<const NodeId> seeds, std::span<QueryContext* const> contexts,
    QueryFn query) {
  if (seeds.empty()) {
    return InvalidArgumentError("seed batch must be non-empty");
  }
  if (!contexts.empty() && contexts.size() != seeds.size()) {
    return InvalidArgumentError(
        "contexts must be empty or align with the seed batch");
  }
  la::DenseBlockT<V> block;
  for (size_t b = 0; b < seeds.size(); ++b) {
    QueryContext* context = contexts.empty() ? nullptr : contexts[b];
    TPA_ASSIGN_OR_RETURN(std::vector<V> scores, query(seeds[b], context));
    if (b == 0) block.Resize(scores.size(), seeds.size());
    if (scores.size() != block.rows()) {
      return InternalError("per-seed query returned inconsistently sized "
                           "vectors");
    }
    block.SetVector(b, scores);
  }
  return block;
}

}  // namespace

StatusOr<la::DenseBlock> RwrMethod::QueryBatchDense(
    std::span<const NodeId> seeds, std::span<QueryContext* const> contexts) {
  return LoopPerSeed<double>(
      seeds, contexts,
      [this](NodeId seed, QueryContext* context) {
        return Query(seed, context);
      });
}

StatusOr<std::vector<float>> RwrMethod::QueryF32(NodeId seed,
                                                 QueryContext* context) {
  (void)seed;
  (void)context;
  return UnimplementedError("method has no fp32 query path");
}

StatusOr<la::DenseBlockF> RwrMethod::QueryBatchDenseF32(
    std::span<const NodeId> seeds, std::span<QueryContext* const> contexts) {
  return LoopPerSeed<float>(
      seeds, contexts,
      [this](NodeId seed, QueryContext* context) {
        return QueryF32(seed, context);
      });
}

}  // namespace tpa
