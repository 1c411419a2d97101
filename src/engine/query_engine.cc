#include "engine/query_engine.h"

#include <algorithm>
#include <latch>
#include <thread>
#include <type_traits>
#include <utility>

#include "la/vector_ops.h"
#include "util/cache_info.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/memory_budget.h"

namespace tpa {

namespace {

/// Every method invocation runs inside this guard: the serving contract is
/// Status-based, so a method (or anything it calls) that throws must fail
/// only its own query with INTERNAL — never unwind into the thread pool or
/// the async scheduler, where an escaped exception would terminate the
/// process.  The failpoint sits inside the try so injected throws exercise
/// the same containment as real ones.
template <typename Fn>
auto InvokeMethodGuarded(Fn&& fn) -> decltype(fn()) {
  try {
    TPA_FAILPOINT("engine.serve_query");
    return fn();
  } catch (const std::exception& e) {
    return InternalError(std::string("method threw: ") + e.what());
  } catch (...) {
    return InternalError("method threw a non-exception object");
  }
}

int ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? static_cast<int>(hardware) : 1;
}

/// The kAuto heuristic: grouped SpMM serving only pays once the shared CSR
/// traversal is the bottleneck, i.e. the arrays no longer fit the
/// last-level cache; a cache-resident graph serves faster per-seed thanks
/// to frontier sparsity (see QueryEngineOptions::batch_block_size).
/// graph.SizeBytes() reports the materialized bytes, so both cheaper
/// layouts cross the LLC threshold later than explicit fp64: the fp32 tier
/// at 8 bytes/nnz, and value-free (ValueStorage::kRowConstant) storage at
/// ≈4 bytes/nnz — a value-free graph stays on the faster cache-resident
/// per-seed path up to ~3× the edge count.
int ResolveBatchBlockSize(int requested, const Graph& graph,
                          const RwrMethod& method) {
  if (requested != QueryEngineOptions::kAuto) return requested;
  if (!method.SupportsBatchQuery()) return 0;
  if (graph.SizeBytes() <= DetectLastLevelCacheBytes()) return 0;
  // One group block row per 64-byte cache line: 8 fp64 seeds or 16 fp32
  // seeds.  The gather's per-edge cost is one line read either way, so the
  // fp32 tier serves twice the seeds per CSR traversal at the same line
  // traffic — where its headline SpMM speedup comes from
  // (BENCH_kernels.json precision rows).  Value storage does not enter
  // this formula: dropping the value array narrows the *streamed* CSR
  // bytes per edge (12 → 4 at fp64), but the group width is pinned by the
  // *gathered* multivector row — width × value bytes must stay one line,
  // or every edge reads multiple lines of p and the amortization inverts
  // (verified empirically: see BENCH_kernels.json value-free spmm rows,
  // which peak at the same widths as their explicit twins).
  return static_cast<int>(64 /
                          la::PrecisionValueBytes(graph.value_precision()));
}

template <typename V>
std::vector<ScoredNode> TopKScoresImpl(const std::vector<V>& scores, int k) {
  // la::TopKIndices already clamps k and breaks ties toward smaller index.
  std::vector<ScoredNode> top;
  const size_t clamped = static_cast<size_t>(std::max(k, 0));
  for (size_t i : la::TopKIndices(scores, clamped)) {
    top.push_back({static_cast<NodeId>(i), static_cast<double>(scores[i])});
  }
  return top;
}

}  // namespace

std::vector<ScoredNode> TopKScores(const std::vector<double>& scores, int k) {
  return TopKScoresImpl(scores, k);
}

std::vector<ScoredNode> TopKScores(const std::vector<float>& scores, int k) {
  return TopKScoresImpl(scores, k);
}

QueryEngine::QueryEngine(const Graph& graph, std::unique_ptr<RwrMethod> method,
                         const QueryEngineOptions& options, int num_threads)
    : graph_(&graph),
      options_(options),
      precision_(graph.value_precision()),
      method_(std::move(method)),
      pool_(std::make_unique<ThreadPool>(num_threads)),
      cache_(options.cache_capacity > 0 || options.cache_capacity_bytes > 0
                 ? std::make_unique<ResultCache>(options.cache_capacity,
                                                 options.cache_capacity_bytes)
                 : nullptr),
      method_mu_(std::make_unique<std::mutex>()) {
  options_.batch_block_size =
      ResolveBatchBlockSize(options.batch_block_size, graph, *method_);
  if (options_.batch_block_size > 1 && method_->SupportsBatchQuery()) {
    group_width_ = static_cast<size_t>(options_.batch_block_size);
  }
}

StatusOr<QueryEngine> QueryEngine::Create(const Graph& graph,
                                          std::unique_ptr<RwrMethod> method,
                                          const QueryEngineOptions& options) {
  if (method == nullptr) {
    return InvalidArgumentError("method must be non-null");
  }
  if (options.num_threads < 0) {
    return InvalidArgumentError("num_threads must be non-negative");
  }
  if (options.top_k < 0) {
    return InvalidArgumentError("top_k must be non-negative");
  }
  if (options.batch_block_size < 0 &&
      options.batch_block_size != QueryEngineOptions::kAuto) {
    return InvalidArgumentError(
        "batch_block_size must be non-negative or kAuto");
  }
  if (!method->SupportsPrecision(graph.value_precision())) {
    return InvalidArgumentError(
        "method does not support the graph's value precision tier");
  }
  MemoryBudget unlimited;
  TPA_RETURN_IF_ERROR(method->Preprocess(graph, unlimited));
  return QueryEngine(graph, std::move(method), options,
                     ResolveThreadCount(options.num_threads));
}

StatusOr<QueryEngine> QueryEngine::CreateFromRegistry(
    const Graph& graph, std::string_view method_name,
    const MethodConfig& config, const QueryEngineOptions& options) {
  TPA_ASSIGN_OR_RETURN(std::unique_ptr<RwrMethod> method,
                       CreateMethod(method_name, config));
  return Create(graph, std::move(method), options);
}

bool QueryEngine::EntryCompatible(const CachedResult& entry) const {
  // The tiers never serve each other's entries: an fp32 engine's clients
  // expect fp32-rounded scores and vice versa — a mismatch silently mixing
  // tiers would make results depend on cache history.
  if (entry.precision != precision_) return false;
  if (entry.topk_only) {
    // A top-k-only entry serves only top-k requests it fully covers; a
    // dense-requesting query must recompute (and refresh the entry).
    if (options_.top_k <= 0) return false;
    const size_t need = std::min<size_t>(static_cast<size_t>(options_.top_k),
                                         graph_->num_nodes());
    return entry.topk.size() >= need;
  }
  return true;
}

bool QueryEngine::UseNativeTopKPath() const {
  return options_.top_k > 0 && method_->SupportsTopKQuery() &&
         (cache_ == nullptr || options_.cache_topk_only);
}

namespace {

/// The dense payload of a cached entry / query result at tier V.
template <typename V>
const std::vector<V>& EntryDense(const CachedResult& entry) {
  if constexpr (std::is_same_v<V, double>) {
    return entry.dense64;
  } else {
    return entry.dense32;
  }
}
template <typename V>
std::vector<V>& ResultDense(QueryResult& result) {
  if constexpr (std::is_same_v<V, double>) {
    return result.scores;
  } else {
    return result.scores_f32;
  }
}

/// The method's dense per-seed and block queries at tier V.
template <typename V>
StatusOr<std::vector<V>> QueryDenseT(RwrMethod& method, NodeId seed,
                                     QueryContext* context) {
  if constexpr (std::is_same_v<V, double>) {
    return method.Query(seed, context);
  } else {
    return method.QueryF32(seed, context);
  }
}
template <typename V>
StatusOr<la::DenseBlockT<V>> QueryBlockT(
    RwrMethod& method, std::span<const NodeId> seeds,
    std::span<QueryContext* const> contexts) {
  if constexpr (std::is_same_v<V, double>) {
    return method.QueryBatchDense(seeds, contexts);
  } else {
    return method.QueryBatchDenseF32(seeds, contexts);
  }
}

/// Fans an SpMM result block back into per-seed dense vectors in one pass
/// over the block rows (per-vector ExtractVector would re-stream the whole
/// n×B block B times).
template <typename V>
std::vector<std::vector<V>> FanOutBlock(const la::DenseBlockT<V>& block) {
  const size_t rows = block.rows();
  const size_t num_vectors = block.num_vectors();
  std::vector<std::vector<V>> dense(num_vectors, std::vector<V>(rows));
  for (size_t r = 0; r < rows; ++r) {
    const V* row = block.RowPtr(r);
    for (size_t b = 0; b < num_vectors; ++b) dense[b][r] = row[b];
  }
  return dense;
}

}  // namespace

bool QueryEngine::FinalizeAbort(QueryContext* context, QueryResult& result) {
  if (context == nullptr || !context->aborted) return true;
  if (!context->degrade_to_partial) {
    // Abort without a degradation contract: the partial iterate is
    // discarded and the query fails with the abort's own code.
    result.status = context->AbortStatus();
    result.scores.clear();
    result.scores_f32.clear();
    result.top.clear();
    return false;
  }
  result.degraded = true;
  result.degrade_reason = context->abort_code;
  result.error_bound = context->error_bound;
  return false;
}

template <typename V>
void QueryEngine::ShapeAndCacheT(NodeId seed, std::vector<V> dense,
                                 QueryResult& result, bool cacheable) {
  if (options_.top_k > 0) {
    result.top = TopKScores(dense, options_.top_k);
    if (cacheable && cache_ != nullptr) {
      if (options_.cache_topk_only) {
        cache_->Put(seed, std::make_shared<const CachedResult>(
                              CachedResult::TopKOnly(precision_, result.top)));
      } else {
        cache_->Put(seed, std::make_shared<const CachedResult>(
                              CachedResult::Dense(std::move(dense))));
      }
    }
  } else if (cacheable && cache_ != nullptr) {
    // The client owns its result vector, so the cached copy is the one
    // unavoidable duplication on a dense-mode miss.
    auto entry = std::make_shared<const CachedResult>(
        CachedResult::Dense(std::move(dense)));
    ResultDense<V>(result) = EntryDense<V>(*entry);
    cache_->Put(seed, std::move(entry));
  } else {
    ResultDense<V>(result) = std::move(dense);
  }
}

size_t QueryEngine::Resolve(std::span<Request> requests) {
  size_t misses = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    QueryResult& result = *requests[i].result;
    if (result.seed >= graph_->num_nodes()) {
      result.status = OutOfRangeError("seed node out of range");
      continue;
    }
    if (cache_ != nullptr) {
      // A mismatched entry counts as a miss (and is refreshed by the
      // miss's insert).
      ResultCache::Entry hit = cache_->GetMatching(
          result.seed,
          [this](const CachedResult& entry) { return EntryCompatible(entry); });
      if (hit != nullptr) {
        result.from_cache = true;
        if (options_.top_k <= 0) {
          // A compatible dense entry holds only this engine's tier.
          result.scores = hit->dense64;
          result.scores_f32 = hit->dense32;
        } else if (hit->topk_only) {
          const size_t k = std::min<size_t>(
              static_cast<size_t>(options_.top_k), hit->topk.size());
          result.top.assign(hit->topk.begin(),
                            hit->topk.begin() + static_cast<long>(k));
        } else if (precision_ == la::Precision::kFloat64) {
          result.top = TopKScores(hit->dense64, options_.top_k);
        } else {
          result.top = TopKScores(hit->dense32, options_.top_k);
        }
        continue;
      }
    }
    std::swap(requests[misses++], requests[i]);
  }
  return misses;
}

void QueryEngine::Compute(std::span<const Request> misses) {
  if (precision_ == la::Precision::kFloat32) {
    ComputeT<float>(misses);
  } else {
    ComputeT<double>(misses);
  }
}

template <typename V>
void QueryEngine::ComputeT(std::span<const Request> misses) {
  // Every method call runs guarded, serialized for methods that are not
  // safe to call concurrently.
  const auto call_method = [this](auto&& call) {
    return InvokeMethodGuarded([&] {
      if (method_->SupportsConcurrentQuery()) return call();
      std::lock_guard<std::mutex> lock(*method_mu_);
      return call();
    });
  };
  if (UseNativeTopKPath()) {
    // Bound-driven top-k queries never materialize dense vectors, so there
    // is no SpMM block to share.  Serving stays score-exact: results must
    // be bitwise-identical to the dense path (and to what a dense-caching
    // engine would serve), so the engine never trades certified-lower-bound
    // scores for the last few iterations.  An aborted context always fails
    // the result — a partial ranking carries no certificate.
    TopKQueryOptions topk_options;
    topk_options.allow_early_termination = false;
    for (const Request& request : misses) {
      QueryResult& result = *request.result;
      StatusOr<TopKQueryResult> top = call_method([&] {
        return method_->QueryTopK(result.seed, options_.top_k, topk_options,
                                  request.context);
      });
      if (!top.ok()) {
        result.status = top.status();
        continue;
      }
      result.top = std::move(top->top);
      if (cache_ != nullptr) {
        cache_->Put(result.seed,
                    std::make_shared<const CachedResult>(
                        CachedResult::TopKOnly(precision_, result.top)));
      }
    }
    return;
  }

  const auto finish = [this](const Request& request, std::vector<V> dense) {
    QueryResult& result = *request.result;
    const bool cacheable = FinalizeAbort(request.context, result);
    if (!result.status.ok()) return;
    ShapeAndCacheT<V>(result.seed, std::move(dense), result, cacheable);
  };

  if (group_width_ <= 1 || misses.size() <= 1) {
    for (const Request& request : misses) {
      StatusOr<std::vector<V>> scores = call_method([&] {
        return QueryDenseT<V>(*method_, request.result->seed, request.context);
      });
      if (!scores.ok()) {
        request.result->status = scores.status();
        continue;
      }
      finish(request, std::move(scores).value());
    }
    return;
  }

  std::vector<NodeId> group;
  std::vector<QueryContext*> contexts;
  group.reserve(misses.size());
  contexts.reserve(misses.size());
  for (const Request& request : misses) {
    group.push_back(request.result->seed);
    contexts.push_back(request.context);
  }
  StatusOr<la::DenseBlockT<V>> block = call_method(
      [&] { return QueryBlockT<V>(*method_, group, contexts); });
  if (!block.ok()) {
    for (const Request& request : misses) {
      request.result->status = block.status();
    }
    return;
  }
  std::vector<std::vector<V>> dense = FanOutBlock(*block);
  for (size_t k = 0; k < misses.size(); ++k) {
    finish(misses[k], std::move(dense[k]));
  }
}

void QueryEngine::Serve(std::span<Request> requests) {
  Compute(requests.first(Resolve(requests)));
}

QueryResult QueryEngine::Query(NodeId seed) {
  QueryResult result;
  result.seed = seed;
  Request request{&result};
  Serve({&request, 1});
  return result;
}

std::vector<QueryResult> QueryEngine::QueryBatch(
    const std::vector<NodeId>& seeds) {
  std::vector<QueryResult> results(seeds.size());
  // One pool job per chunk, submitted in seed order — a one-thread pool
  // therefore calls the method in seed order.
  const size_t width = group_width_;
  std::latch pending(
      static_cast<ptrdiff_t>((seeds.size() + width - 1) / width));
  for (size_t begin = 0; begin < seeds.size(); begin += width) {
    pool_->Submit([this, &seeds, &results, &pending, begin, width] {
      const size_t end = std::min(begin + width, seeds.size());
      std::vector<Request> requests;
      requests.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        results[i].seed = seeds[i];
        requests.push_back({&results[i]});
      }
      Serve(requests);
      pending.count_down();
    });
  }
  pending.wait();
  return results;
}

QueryEngine::CacheStats QueryEngine::cache_stats() const {
  CacheStats stats;
  if (cache_ != nullptr) {
    stats.hits = cache_->hits();
    stats.misses = cache_->misses();
    stats.entries = cache_->size();
    stats.bytes = cache_->bytes();
  }
  return stats;
}

}  // namespace tpa
