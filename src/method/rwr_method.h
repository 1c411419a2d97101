#ifndef TPA_METHOD_RWR_METHOD_H_
#define TPA_METHOD_RWR_METHOD_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "la/dense_block.h"
#include "la/precision.h"
#include "la/topk.h"
#include "util/memory_budget.h"
#include "util/query_context.h"
#include "util/status.h"

namespace tpa {

/// Common interface of every RWR solver in the evaluation (TPA and all six
/// competitors).
///
/// Lifecycle: construct → Preprocess(graph, budget) once per graph →
/// Query(seed) per seed.  Preprocess may fail with RESOURCE_EXHAUSTED when
/// the method's (peak) preprocessing footprint exceeds the budget — the
/// experiments render that as the paper's "out of memory" missing bars.
/// Implementations borrow the graph; it must outlive the method object.
class RwrMethod {
 public:
  virtual ~RwrMethod() = default;

  /// Display name used in experiment tables, e.g. "TPA", "BEAR-APPROX".
  virtual std::string_view name() const = 0;

  /// One-time preprocessing.  Methods without a preprocessing phase
  /// implement this as a cheap graph binding.
  virtual Status Preprocess(const Graph& graph, MemoryBudget& budget) = 0;

  /// Full approximate (or exact) RWR score vector for `seed`.
  /// Non-const: Monte Carlo methods advance their RNG state.
  ///
  /// Every query entry point takes an optional QueryContext — the
  /// engines' cooperative deadline/cancel channel.  Methods with
  /// iteration-shaped hot loops (TPA, power iteration) poll it at
  /// iteration boundaries and, on abort, return the partial iterate with
  /// the context's certified error bound set; methods without a natural
  /// poll point at least check it on entry (CheckQueryContext) so an
  /// already-expired query fails fast.  A null context costs nothing.
  virtual StatusOr<std::vector<double>> Query(NodeId seed,
                                              QueryContext* context =
                                                  nullptr) = 0;

  /// Dense score vectors for a whole batch of seeds at once; vector b of
  /// the block is the result for seeds[b].  The base implementation loops
  /// Query per seed (identical results, no speedup).  Methods that
  /// override SupportsBatchQuery() provide a native multi-vector path that
  /// shares one matrix traversal across the batch and must keep each
  /// vector bitwise-identical to the corresponding Query(seed).  Fails on
  /// an empty batch; a per-seed failure (e.g. out of range) fails the
  /// whole call — the QueryEngine validates seeds before dispatching.
  /// `contexts`, when non-empty, aligns with `seeds` (null entries allowed)
  /// and aborts only its own seed's accumulation in native batch paths.
  virtual StatusOr<la::DenseBlock> QueryBatchDense(
      std::span<const NodeId> seeds,
      std::span<QueryContext* const> contexts = {});

  /// True when QueryBatchDense runs natively batched (one shared SpMM sweep
  /// instead of B matvec sweeps) and is therefore worth dispatching whole
  /// seed groups to.  Conservative default: false (the base QueryBatchDense
  /// still works, it just offers no advantage over per-seed fan-out).
  virtual bool SupportsBatchQuery() const { return false; }

  /// Top k of the seed's score vector at the method's serving tier: the
  /// ranking always equals TopKScores over the corresponding full query
  /// (score descending, ties toward the smaller node id), and with early
  /// termination disabled (see TopKQueryOptions) the scores are bitwise
  /// that path's too.  The base implementation runs the full Query and
  /// sorts — identical results, no speedup; methods that override
  /// SupportsTopKQuery() provide a bound-driven native path that can stop
  /// as soon as the ranking is certified and never materialize the dense
  /// vector.  Fails on an out-of-range seed or negative k.
  /// A context abort always fails a top-k query (kCancelled /
  /// kDeadlineExceeded): an uncertified partial ranking carries no usable
  /// error bound, so top-k never returns degraded results.
  virtual StatusOr<TopKQueryResult> QueryTopK(
      NodeId seed, int k, const TopKQueryOptions& options = {},
      QueryContext* context = nullptr);

  /// True when QueryTopK runs natively bound-driven (cheaper than a full
  /// query) and is therefore worth routing the engines' top-k requests to.
  /// Conservative default: false.
  virtual bool SupportsTopKQuery() const { return false; }

  /// True when the method can run against a graph materialized at the given
  /// value-precision tier (Graph::value_precision).  Conservative default:
  /// fp64 only — the QueryEngine refuses to build an engine over an fp32
  /// graph for methods that do not opt in, instead of letting the typed CSR
  /// accessors CHECK-fail mid-preprocess.
  virtual bool SupportsPrecision(la::Precision precision) const {
    return precision == la::Precision::kFloat64;
  }

  /// Native fp32 score vector for `seed` — the halved-footprint serving
  /// path: no fp64 dense vector is materialized anywhere between the seed
  /// and the returned scores.  Only meaningful for methods that return true
  /// from SupportsPrecision(kFloat32) and were preprocessed against an fp32
  /// graph; the default fails with UNIMPLEMENTED.
  virtual StatusOr<std::vector<float>> QueryF32(NodeId seed,
                                                QueryContext* context =
                                                    nullptr);

  /// fp32 flavor of QueryBatchDense; vector b must be bitwise-identical to
  /// QueryF32(seeds[b]).  Default: UNIMPLEMENTED.
  virtual StatusOr<la::DenseBlockF> QueryBatchDenseF32(
      std::span<const NodeId> seeds,
      std::span<QueryContext* const> contexts = {});

  /// Logical size of the preprocessed data retained for the online phase
  /// (Figure 1(a) / Figure 10(a) metric).  Zero before Preprocess.
  virtual size_t PreprocessedBytes() const = 0;

  /// True when concurrent Query calls against the shared preprocessed state
  /// are safe (deterministic methods whose online phase only reads).  The
  /// QueryEngine serializes Query for methods that return false (e.g. Monte
  /// Carlo samplers advancing an RNG).  Conservative default: false.
  virtual bool SupportsConcurrentQuery() const { return false; }
};

}  // namespace tpa

#endif  // TPA_METHOD_RWR_METHOD_H_
