#ifndef TPA_ENGINE_QUERY_ENGINE_H_
#define TPA_ENGINE_QUERY_ENGINE_H_

#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "engine/result_cache.h"
#include "engine/thread_pool.h"
#include "graph/graph.h"
#include "la/precision.h"
#include "method/registry.h"
#include "method/rwr_method.h"
#include "util/query_context.h"
#include "util/status.h"

namespace tpa {

/// Engine configuration.  The defaults serve dense full-vector results with
/// no caching on all available cores.
struct QueryEngineOptions {
  /// Worker threads in the pool; 0 = std::thread::hardware_concurrency().
  int num_threads = 0;
  /// When > 0, results carry only the top-k (node, score) pairs extracted
  /// with a partial sort instead of the dense n-vector.
  int top_k = 0;
  /// LRU result-cache capacity in entries (each entry is one dense score
  /// vector — ~8n bytes fp64, ~4n fp32 — or O(k) with cache_topk_only).
  /// 0 disables entry-count capping.
  size_t cache_capacity = 0;
  /// Optional LRU byte budget over the cached payloads; eviction keeps the
  /// cache under both this and cache_capacity.  0 disables byte capping.
  /// Caching is enabled when either bound is set.
  size_t cache_capacity_bytes = 0;
  /// Top-k engines only (top_k > 0): cache the extracted top-k list
  /// instead of the dense vector, cutting a cached entry from ~8n (fp64) /
  /// ~4n (fp32) bytes to O(k) — under a byte budget this multiplies how
  /// many seeds stay warm by orders of magnitude.  A later dense-requesting
  /// query against the same cache (e.g. through a second engine sharing
  /// it, or after reconfiguring) never mistakes such an entry for a dense
  /// vector: it misses and refreshes the entry to the dense shape (see
  /// CachedResult).  Ignored when top_k == 0.
  bool cache_topk_only = false;
  /// Seeds per SpMM group when the method supports native batched queries
  /// (RwrMethod::SupportsBatchQuery): cache-miss seeds of a QueryBatch are
  /// served in groups of this size through QueryBatchDense — one shared
  /// CSR traversal per group instead of one per seed.  Results are bitwise
  /// identical either way; this is purely a throughput knob.  Grouping
  /// pays off when the shared traversal is the bottleneck — CSR arrays
  /// much larger than the last-level cache, or many cores contending for
  /// memory bandwidth; when the graph is cache-resident, per-seed fan-out
  /// exploits frontier sparsity (early CPI iterations touch few rows) that
  /// a shared sweep over the union frontier gives up.
  ///
  /// kAuto (the default) picks at Create time from exactly that trade-off:
  /// when the graph's CSR bytes exceed the detected last-level cache,
  /// groups sized so one block row fills a 64-byte cache line — 8 seeds at
  /// fp64, 16 at fp32 (the gather reads one line per edge either way, so
  /// the fp32 tier shares each traversal across twice the seeds) — and
  /// per-seed fan-out otherwise.  The CSR bytes are the *actual
  /// materialized* bytes, so the cheaper layouts cross the threshold
  /// later than explicit fp64 (12 bytes/nnz): fp32 at 8, and value-free
  /// (ValueStorage::kRowConstant) at ≈4 — a value-free graph stays on the
  /// cache-resident per-seed path up to ~3× the edge count.  Value
  /// storage does not change the group width, only the threshold: the
  /// width is pinned by the gathered block row filling one line, not by
  /// the streamed CSR bytes.  Explicit
  /// values are the escape hatch: 0 or 1 forces per-seed fan-out, ≥ 2
  /// forces that group size.  The resolved value is visible through
  /// options().  `bench_engine_throughput` measures both paths.
  int batch_block_size = kAuto;

  /// Sentinel for batch_block_size: resolve from graph size vs LLC size.
  static constexpr int kAuto = -1;
};

/// Outcome of a single seed query within a batch.
struct QueryResult {
  NodeId seed = 0;
  /// Per-query status: an out-of-range seed fails its own slot, never the
  /// batch.
  Status status;
  /// Dense score vector (top_k == 0, fp64 engine), empty otherwise.
  std::vector<double> scores;
  /// Dense score vector of an fp32 engine (top_k == 0): the halved-footprint
  /// serving path hands the client fp32 scores without ever materializing
  /// an fp64 copy.  Empty on fp64 engines and in top-k mode.
  std::vector<float> scores_f32;
  /// Top-k extraction (top_k > 0), empty otherwise.  Always fp64-scored
  /// (k is small; the widening is exact).
  std::vector<ScoredNode> top;
  /// True when the scores came from the LRU cache.
  bool from_cache = false;
  /// True when the query was aborted (deadline / cancellation) under a
  /// degradation policy and the payload is the last complete propagation
  /// iterate instead of the converged answer.  `status` is OK — the partial
  /// is a certified approximate answer, not a failure — and `error_bound`
  /// holds its guarantee.  Degraded results are never cached.
  bool degraded = false;
  /// Why the query degraded: kDeadlineExceeded or kCancelled when
  /// `degraded`, kOk otherwise.
  StatusCode degrade_reason = StatusCode::kOk;
  /// Certified L1 bound on the gap to the converged answer when `degraded`:
  /// ‖answer − converged‖₁ ≤ error_bound (the geometric remaining-mass
  /// bound, scaled through the TPA family/stranger merge when applicable).
  double error_bound = 0.0;
  /// True when an overloaded engine shed this query to its private fp32
  /// serving tier (AsyncQueryEngine's DegradationPolicy::shed_to_fp32):
  /// dense scores arrive in `scores_f32` even though the primary engine
  /// serves fp64.
  bool shed_to_fp32 = false;
};

/// Batched, concurrent RWR query serving over one shared preprocessed
/// method — the paper's client–server scenario (many seed queries against
/// TPA state precomputed once).
///
/// Seeds, dense vectors and top-k entries all speak the graph's node ids,
/// the ids of the input edge list: there is no translation layer.
///
/// The engine serves at the graph's precision tier (Graph::
/// value_precision): on an fp32 graph it requires a method that opts in
/// (RwrMethod::SupportsPrecision), runs the fp32 query paths end to end,
/// stores fp32 cache entries (half the bytes under the same budget), and
/// returns dense results in QueryResult::scores_f32.  fp64 engines are
/// bit-for-bit the historical pipeline.  The two tiers never serve each
/// other's cache entries (see CachedResult).
///
/// `QueryBatch` is batch-first: the seeds are cut, in order, into chunks of
/// `batch_block_size` when the method supports native batched queries
/// (SupportsBatchQuery), else of one seed, and each chunk is one pool job.
/// Within a chunk, invalid seeds and cache hits resolve per slot and the
/// misses run the method's multi-vector path as one SpMM group — a single
/// traversal of the CSR arrays shared by the whole group — before results
/// fan back into per-seed slots with the same cache/top-k behavior as
/// individual queries.  Methods that declare SupportsConcurrentQuery() run
/// fully parallel; stateful methods (Monte Carlo RNGs) are serialized
/// internally, still overlapping cache lookups and result extraction.
///
/// The engine borrows the graph (it must outlive the engine) and owns the
/// method, pool, and cache.
class QueryEngine {
 public:
  /// Takes ownership of `method`, runs its Preprocess against `graph` with
  /// an unlimited memory budget, and spins up the worker pool.  Fails with
  /// INVALID_ARGUMENT when the graph's precision tier is one the method
  /// does not support.
  static StatusOr<QueryEngine> Create(const Graph& graph,
                                      std::unique_ptr<RwrMethod> method,
                                      const QueryEngineOptions& options = {});

  /// Registry convenience: Create(graph, CreateMethod(method_name, config)).
  static StatusOr<QueryEngine> CreateFromRegistry(
      const Graph& graph, std::string_view method_name,
      const MethodConfig& config = {}, const QueryEngineOptions& options = {});

  QueryEngine(QueryEngine&&) = default;
  QueryEngine& operator=(QueryEngine&&) = default;

  /// Serves one seed on the calling thread (cache-aware, same result shape
  /// as a batch slot).
  QueryResult Query(NodeId seed);

  /// Serves a batch of seeds concurrently; results align index-for-index
  /// with `seeds`.  Identical to calling Query sequentially per seed —
  /// including bitwise-identical scores for deterministic methods — just
  /// faster.
  std::vector<QueryResult> QueryBatch(const std::vector<NodeId>& seeds);

  int num_threads() const { return pool_->num_threads(); }
  const RwrMethod& method() const { return *method_; }
  const QueryEngineOptions& options() const { return options_; }
  /// The serving tier — always the graph's value precision.
  la::Precision precision() const { return precision_; }

  struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    size_t entries = 0;
    /// Payload bytes currently held: ~8n per fp64 dense entry, ~4n per
    /// fp32 dense entry, O(k) per top-k-only entry.
    size_t bytes = 0;
  };
  /// All-zero when caching is disabled.
  CacheStats cache_stats() const;

 private:
  /// The async serving layer drives the same two serving steps (Resolve,
  /// Compute) on its tickets, chunked by group_width_ on pool_, which is
  /// what keeps async results bitwise-identical to Query / QueryBatch.
  friend class AsyncQueryEngine;

  QueryEngine(const Graph& graph, std::unique_ptr<RwrMethod> method,
              const QueryEngineOptions& options, int num_threads);

  /// One request on the serving path: the slot its result lands in (with
  /// `seed` already set) and, when non-null, the cooperative context that
  /// rides into the method.  Iteration-shaped methods poll the context at
  /// propagation-iteration boundaries, so a deadline or cancellation lands
  /// within one iteration.
  struct Request {
    QueryResult* result = nullptr;
    QueryContext* context = nullptr;
  };

  /// Serving step 1: fails out-of-range seeds, serves compatible cache hits
  /// (a hit beats any deadline — serving it is a copy), and moves the
  /// remaining misses, in order, to the front of `requests`.  Returns the
  /// number of misses.
  size_t Resolve(std::span<Request> requests);

  /// Serving step 2, at the engine's tier: computes every miss and shapes
  /// it into its slot, caching converged answers.  Native top-k runs per
  /// miss; a grouping engine serves two or more misses as one
  /// QueryBatchDense block, each aborting seed frozen out of the shared
  /// SpMM on its own; otherwise each miss is one dense query.  On abort a
  /// slot fails or degrades per FinalizeAbort and nothing is cached.
  void Compute(std::span<const Request> misses);
  template <typename V>
  void ComputeT(std::span<const Request> misses);

  /// Resolve then Compute.
  void Serve(std::span<Request> requests);

  /// Whether top-k requests route through the method's native bound-driven
  /// path (RwrMethod::QueryTopK) instead of dense-query-then-partial-sort.
  /// Requires top_k > 0 and a method opting in via SupportsTopKQuery, and
  /// excludes a dense-entry cache, where the dense vector is needed anyway
  /// (the miss must deposit the full vector for later dense requests).
  /// Routed results are score-exact: the engine always disables early
  /// termination, so the (node, score) pairs stay bitwise-identical to the
  /// dense path's.
  bool UseNativeTopKPath() const;

  /// Whether a stored entry can serve this engine's requests: same
  /// precision tier, and top-k-only entries only for top-k requests they
  /// cover.
  bool EntryCompatible(const CachedResult& entry) const;

  /// Applies a context's abort outcome to a served result.  No-op (returns
  /// true) when `context` is null or the query ran to convergence.  On an
  /// abort without degradation the result fails with the abort status and
  /// its payload is dropped; with degradation the result is marked degraded
  /// and carries the context's certified error bound.  Returns whether the
  /// result is cacheable — only a converged, unaborted answer is.
  static bool FinalizeAbort(QueryContext* context, QueryResult& result);

  /// Shapes a freshly computed dense tier-V vector into `result` (top-k or
  /// dense) and inserts it into the cache when caching is enabled
  /// (top-k-only shaped under cache_topk_only).  `cacheable` is false for
  /// degraded partials: they are shaped for the client but must never
  /// poison the cache with an un-converged vector.
  template <typename V>
  void ShapeAndCacheT(NodeId seed, std::vector<V> dense, QueryResult& result,
                      bool cacheable = true);

  const Graph* graph_;  // not owned
  QueryEngineOptions options_;
  la::Precision precision_ = la::Precision::kFloat64;
  std::unique_ptr<RwrMethod> method_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ResultCache> cache_;  // null when caching is disabled
  /// Serializes Query for methods without SupportsConcurrentQuery.
  std::unique_ptr<std::mutex> method_mu_;
  /// Seeds per serving chunk: batch_block_size when the method batches
  /// natively and the engine groups, else 1.
  size_t group_width_ = 1;
};

/// Extracts the k highest-scoring nodes from a dense vector via partial
/// sort (ties toward smaller node id); k is clamped to scores.size().
/// Exposed for tests and for clients that cache dense vectors themselves.
std::vector<ScoredNode> TopKScores(const std::vector<double>& scores, int k);
/// fp32 overload: ranking happens on the fp32 values; the reported scores
/// are widened exactly.
std::vector<ScoredNode> TopKScores(const std::vector<float>& scores, int k);

}  // namespace tpa

#endif  // TPA_ENGINE_QUERY_ENGINE_H_
