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
  // seeds.  The scatter's per-edge cost is one line RMW either way, so the
  // fp32 tier serves twice the seeds per CSR traversal at the same line
  // traffic — where its headline SpMM speedup comes from
  // (BENCH_kernels.json precision rows).  Value storage does not enter
  // this formula: dropping the value array narrows the *streamed* CSR
  // bytes per edge (12 → 4 at fp64), but the group width is pinned by the
  // *scattered* multivector row — width × value bytes must stay one line,
  // or every edge RMWs multiple lines of y and the amortization inverts
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

void QueryEngine::ShapeFromEntry(const ResultCache::Entry& entry,
                                 QueryResult& result) {
  result.from_cache = true;
  if (options_.top_k > 0) {
    if (entry->topk_only) {
      const size_t k = std::min<size_t>(static_cast<size_t>(options_.top_k),
                                        entry->topk.size());
      result.top.assign(entry->topk.begin(),
                        entry->topk.begin() + static_cast<long>(k));
    } else if (precision_ == la::Precision::kFloat64) {
      result.top = TopKScores(entry->dense64, options_.top_k);
    } else {
      result.top = TopKScores(entry->dense32, options_.top_k);
    }
  } else if (precision_ == la::Precision::kFloat64) {
    result.scores = entry->dense64;
  } else {
    result.scores_f32 = entry->dense32;
  }
}

bool QueryEngine::UseNativeTopKPath() const {
  return options_.top_k > 0 && method_->SupportsTopKQuery() &&
         graph_->permutation() == nullptr &&
         (cache_ == nullptr || options_.cache_topk_only);
}

void QueryEngine::ServeTopKInto(NodeId seed, QueryResult& result,
                                QueryContext* context) {
  result.seed = seed;
  TopKQueryOptions topk_options;
  // Serving stays score-exact: results must be bitwise-identical to the
  // dense path (and to what a dense-caching engine would serve), so the
  // engine never trades certified-lower-bound scores for the last few
  // iterations.  The win is skipping the dense merge and full-vector sort.
  topk_options.allow_early_termination = false;
  StatusOr<TopKQueryResult> top = InvokeMethodGuarded([&] {
    if (method_->SupportsConcurrentQuery()) {
      return method_->QueryTopK(seed, options_.top_k, topk_options, context);
    }
    std::lock_guard<std::mutex> lock(*method_mu_);
    return method_->QueryTopK(seed, options_.top_k, topk_options, context);
  });
  if (!top.ok()) {
    result.status = top.status();
    return;
  }
  result.top = std::move(top->top);
  if (cache_ != nullptr) {
    cache_->Put(seed, std::make_shared<const CachedResult>(
                          CachedResult::TopKOnly(precision_, result.top)));
  }
}

bool QueryEngine::TryServeFromCache(NodeId seed, QueryResult& result) {
  if (cache_ == nullptr) return false;
  ResultCache::Entry hit = cache_->GetMatching(
      seed, [this](const CachedResult& entry) {
        return EntryCompatible(entry);
      });
  if (hit == nullptr) return false;
  ShapeFromEntry(hit, result);
  return true;
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

void QueryEngine::ServeInto(NodeId seed, QueryResult& result,
                            QueryContext* context) {
  result.seed = seed;
  if (seed >= graph_->num_nodes()) {
    result.status = OutOfRangeError("seed node out of range");
    return;
  }
  // A cache hit beats any deadline: serving it is a copy, so an expired or
  // cancelled context still gets the exact answer for free.
  if (TryServeFromCache(seed, result)) return;
  if (UseNativeTopKPath()) {
    ServeTopKInto(seed, result, context);
    return;
  }

  // The method speaks the graph's internal storage order; translate the
  // seed in and the dense vector back out (see Permutation).
  const Permutation* permutation = graph_->permutation();
  const NodeId internal =
      permutation != nullptr ? permutation->ToInternal(seed) : seed;

  if (precision_ == la::Precision::kFloat32) {
    StatusOr<std::vector<float>> scores = InvokeMethodGuarded([&] {
      if (method_->SupportsConcurrentQuery()) {
        return method_->QueryF32(internal, context);
      }
      std::lock_guard<std::mutex> lock(*method_mu_);
      return method_->QueryF32(internal, context);
    });
    if (!scores.ok()) {
      result.status = scores.status();
      return;
    }
    std::vector<float> dense = std::move(scores).value();
    const bool cacheable = FinalizeAbort(context, result);
    if (!result.status.ok()) return;
    if (permutation != nullptr) dense = permutation->ScoresToExternal(dense);
    ShapeAndCacheT<float>(seed, std::move(dense), result, cacheable);
    return;
  }

  StatusOr<std::vector<double>> scores = InvokeMethodGuarded([&] {
    if (method_->SupportsConcurrentQuery()) {
      return method_->Query(internal, context);
    }
    std::lock_guard<std::mutex> lock(*method_mu_);
    return method_->Query(internal, context);
  });
  if (!scores.ok()) {
    result.status = scores.status();
    return;
  }
  std::vector<double> dense = std::move(scores).value();
  const bool cacheable = FinalizeAbort(context, result);
  if (!result.status.ok()) return;
  if (permutation != nullptr) dense = permutation->ScoresToExternal(dense);
  ShapeAndCacheT<double>(seed, std::move(dense), result, cacheable);
}

namespace {

/// Fans an SpMM result block back into per-seed dense vectors in one pass
/// over the block rows (per-vector ExtractVector would re-stream the whole
/// n×B block B times), translating internal→external row positions on the
/// fly when the graph is reordered.
template <typename V>
std::vector<std::vector<V>> FanOutBlock(const la::DenseBlockT<V>& block,
                                        const Permutation* permutation) {
  const size_t rows = block.rows();
  const size_t num_vectors = block.num_vectors();
  std::vector<std::vector<V>> dense(num_vectors, std::vector<V>(rows));
  for (size_t r = 0; r < rows; ++r) {
    const V* row = block.RowPtr(r);
    const size_t e = permutation != nullptr
                         ? permutation->ToExternal(static_cast<NodeId>(r))
                         : r;
    for (size_t b = 0; b < num_vectors; ++b) dense[b][e] = row[b];
  }
  return dense;
}

}  // namespace

void QueryEngine::ServeGroup(const std::vector<NodeId>& group,
                             const std::vector<QueryResult*>& slots,
                             std::span<QueryContext* const> contexts) {
  const auto context_for = [&contexts](size_t k) {
    return contexts.empty() ? nullptr : contexts[k];
  };
  if (UseNativeTopKPath()) {
    // Bound-driven top-k queries never materialize dense vectors, so there
    // is no SpMM block to share across the group; each slot runs the native
    // path (this also covers the async engine's grouped chunks).
    for (size_t k = 0; k < slots.size(); ++k) {
      ServeTopKInto(group[k], *slots[k], context_for(k));
    }
    return;
  }

  const Permutation* permutation = graph_->permutation();
  std::vector<NodeId> internal_group;
  const std::vector<NodeId>* method_group = &group;
  if (permutation != nullptr) {
    internal_group.reserve(group.size());
    for (NodeId seed : group) {
      internal_group.push_back(permutation->ToInternal(seed));
    }
    method_group = &internal_group;
  }

  if (precision_ == la::Precision::kFloat32) {
    StatusOr<la::DenseBlockF> block = InvokeMethodGuarded([&] {
      if (method_->SupportsConcurrentQuery()) {
        return method_->QueryBatchDenseF32(*method_group, contexts);
      }
      std::lock_guard<std::mutex> lock(*method_mu_);
      return method_->QueryBatchDenseF32(*method_group, contexts);
    });
    if (!block.ok()) {
      for (QueryResult* slot : slots) slot->status = block.status();
      return;
    }
    std::vector<std::vector<float>> dense = FanOutBlock(*block, permutation);
    for (size_t k = 0; k < slots.size(); ++k) {
      const bool cacheable = FinalizeAbort(context_for(k), *slots[k]);
      if (!slots[k]->status.ok()) continue;
      ShapeAndCacheT<float>(group[k], std::move(dense[k]), *slots[k],
                            cacheable);
    }
    return;
  }

  StatusOr<la::DenseBlock> block = InvokeMethodGuarded([&] {
    if (method_->SupportsConcurrentQuery()) {
      return method_->QueryBatchDense(*method_group, contexts);
    }
    std::lock_guard<std::mutex> lock(*method_mu_);
    return method_->QueryBatchDense(*method_group, contexts);
  });
  if (!block.ok()) {
    for (QueryResult* slot : slots) slot->status = block.status();
    return;
  }
  std::vector<std::vector<double>> dense = FanOutBlock(*block, permutation);
  for (size_t k = 0; k < slots.size(); ++k) {
    const bool cacheable = FinalizeAbort(context_for(k), *slots[k]);
    if (!slots[k]->status.ok()) continue;
    ShapeAndCacheT<double>(group[k], std::move(dense[k]), *slots[k],
                           cacheable);
  }
}

QueryResult QueryEngine::Query(NodeId seed) {
  QueryResult result;
  ServeInto(seed, result);
  return result;
}

std::vector<QueryResult> QueryEngine::QueryBatch(
    const std::vector<NodeId>& seeds) {
  std::vector<QueryResult> results(seeds.size());
  if (seeds.empty()) return results;

  if (options_.batch_block_size <= 1 || !method_->SupportsBatchQuery()) {
    // Per-seed fan-out: one pool job per seed.
    std::latch pending(static_cast<ptrdiff_t>(seeds.size()));
    for (size_t i = 0; i < seeds.size(); ++i) {
      pool_->Submit([this, &seeds, &results, &pending, i] {
        ServeInto(seeds[i], results[i]);
        pending.count_down();
      });
    }
    pending.wait();
    return results;
  }

  // SpMM group path.  The calling thread resolves each slot's fate first —
  // invalid seed, cache hit, or miss — so misses can be partitioned into
  // multi-vector groups.  Hits are shaped on the pool (top-k extraction is
  // a partial sort over n) alongside the group jobs.
  struct PendingHit {
    size_t slot;
    ResultCache::Entry entry;
  };
  std::vector<PendingHit> hits;
  std::vector<size_t> misses;
  for (size_t i = 0; i < seeds.size(); ++i) {
    results[i].seed = seeds[i];
    if (seeds[i] >= graph_->num_nodes()) {
      results[i].status = OutOfRangeError("seed node out of range");
      continue;
    }
    if (cache_ != nullptr) {
      if (ResultCache::Entry entry = cache_->GetMatching(
              seeds[i], [this](const CachedResult& e) {
                return EntryCompatible(e);
              })) {
        hits.push_back({i, std::move(entry)});
        continue;
      }
    }
    misses.push_back(i);
  }

  const size_t block = static_cast<size_t>(options_.batch_block_size);
  const size_t num_groups = (misses.size() + block - 1) / block;
  std::latch pending(static_cast<ptrdiff_t>(hits.size() + num_groups));

  for (size_t h = 0; h < hits.size(); ++h) {
    pool_->Submit([this, &results, &hits, &pending, h] {
      ShapeFromEntry(hits[h].entry, results[hits[h].slot]);
      pending.count_down();
    });
  }

  for (size_t begin = 0; begin < misses.size(); begin += block) {
    pool_->Submit([this, &seeds, &results, &misses, &pending, begin, block] {
      const size_t end = std::min(begin + block, misses.size());
      std::vector<NodeId> group;
      std::vector<QueryResult*> slots;
      group.reserve(end - begin);
      slots.reserve(end - begin);
      for (size_t k = begin; k < end; ++k) {
        group.push_back(seeds[misses[k]]);
        slots.push_back(&results[misses[k]]);
      }
      ServeGroup(group, slots);
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
