#ifndef TPA_CORE_CPI_H_
#define TPA_CORE_CPI_H_

#include <limits>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "la/csr_matrix.h"
#include "la/dense_block.h"
#include "la/precision.h"
#include "la/topk.h"
#include "util/query_context.h"
#include "util/status.h"

namespace tpa {

/// Options for Cumulative Power Iteration (paper Algorithm 1).
struct CpiOptions {
  /// Restart probability c (the paper uses 0.15 everywhere).
  double restart_probability = 0.15;
  /// Convergence tolerance ε: iteration stops once ‖x(i)‖₁ < ε.
  double tolerance = 1e-9;
  /// First accumulated iteration (s_iter).  0 includes the seed mass x(0).
  int start_iteration = 0;
  /// Last accumulated iteration (t_iter), inclusive; kUnbounded runs to
  /// convergence.
  int terminal_iteration = kUnbounded;
  /// Frontier-adaptive propagation: iterations run frontier-sparse —
  /// scattering only from the interim vector's nonzero rows and touching
  /// only the rows they reach — while the frontier holds at most this
  /// fraction of all nodes, then switch permanently to the dense kernels.
  /// 0 disables the sparse head (every iteration dense); 1 stays sparse to
  /// convergence.  Results are bitwise-identical at any setting; this is
  /// purely a throughput knob (`bench_kernels --json` records the measured
  /// crossover).
  double frontier_density_threshold = 0.125;

  static constexpr int kUnbounded = std::numeric_limits<int>::max();
};

/// Cumulative Power Iteration: interprets RWR as score propagation,
///   x(0) = c·q,   x(i) = (1-c)·Ã^T·x(i-1),   r = Σ_{s_iter ≤ i ≤ t_iter} x(i).
///
/// With a single-entry seed vector this computes RWR; with the uniform seed
/// vector it computes PageRank; with a multi-node seed set, personalized
/// PageRank.  TPA composes three windowed CPI runs (family / neighbor /
/// stranger parts).
///
/// Every entry point is templated over the storage precision tier V of the
/// interim vectors and scores (the T-suffixed variants); it must match the
/// graph's value tier (Graph::value_precision, CHECK-enforced by the CSR
/// accessors).  The V = double instantiations — reachable through the
/// historical non-suffixed names — are bitwise-identical to the
/// pre-precision-tier implementation; V = float runs the whole loop on
/// fp32 storage with fp64 inner-loop arithmetic (see CsrMatrixT).
class Cpi {
 public:
  template <typename V>
  struct ResultT {
    /// The accumulated window sum Σ x(i).
    std::vector<V> scores;
    /// Index of the last iteration whose interim vector was computed.
    int last_iteration = 0;
    /// True when ‖x(i)‖₁ < ε stopped the run (as opposed to t_iter).
    bool converged = false;
    /// ‖x(i)‖₁ at the last computed iteration.
    double last_interim_norm = 0.0;
    /// kCancelled / kDeadlineExceeded when a QueryContext stopped the run
    /// before convergence (the scores then hold the partial window sum
    /// through last_iteration), kOk otherwise.
    StatusCode abort_code = StatusCode::kOk;
    /// Certified L1 bound on ‖scores − converged scores‖₁ when aborted —
    /// the geometric remaining mass of the iterations that never ran
    /// (CpiRemainingMassBound); 0 otherwise.
    double remaining_mass_bound = 0.0;
  };
  using Result = ResultT<double>;
  using ResultF = ResultT<float>;

  /// Reusable scratch of the propagation loop: the interim vectors (scalar
  /// and blocked, at both precision tiers), the frontier lists of the
  /// adaptive head, and the kernel scratch.  Passing one workspace across
  /// queries hoists the full-n allocations a cold run would otherwise make
  /// per query out of the serving loop (buffers are resized once and
  /// recycled; Tpa draws one per concurrent query from its WorkspacePool).
  /// Only the buffers of the tier actually run are ever touched, so a
  /// workspace serving an fp32 Tpa never materializes the fp64 set.  A
  /// workspace serves one run at a time — not thread-safe; results never
  /// alias it.
  struct Workspace {
    std::vector<double> x;
    std::vector<double> next;
    la::DenseBlock block_x;
    la::DenseBlock block_next;
    std::vector<float> x_f;
    std::vector<float> next_f;
    la::DenseBlockF block_x_f;
    la::DenseBlockF block_next_f;
    std::vector<NodeId> frontier;
    std::vector<NodeId> next_frontier;
    la::FrontierScratch scratch;
  };

  /// Runs CPI from a uniform distribution over `seeds` (Algorithm 1 line 1).
  /// Fails on invalid options, empty or out-of-range seeds.
  ///
  /// A non-null `context` is polled at every iteration boundary: on cancel
  /// or deadline expiry the loop stops within one iteration and the result
  /// carries the partial window sum with abort_code and the certified
  /// remaining_mass_bound set (the context's outputs mirror them).
  /// Converting the partial into an error — or serving it degraded — is
  /// the caller's choice; RunT itself always returns the iterate.
  template <typename V>
  static StatusOr<ResultT<V>> RunT(const Graph& graph,
                                   const std::vector<NodeId>& seeds,
                                   const CpiOptions& options,
                                   Workspace* workspace = nullptr,
                                   QueryContext* context = nullptr);
  static StatusOr<Result> Run(const Graph& graph,
                              const std::vector<NodeId>& seeds,
                              const CpiOptions& options,
                              Workspace* workspace = nullptr,
                              QueryContext* context = nullptr) {
    return RunT<double>(graph, seeds, options, workspace, context);
  }

  /// Runs CPI from an arbitrary distribution `q` (‖q‖₁ should be 1; scores
  /// scale linearly otherwise).  The seed vector is multiplied by c
  /// internally, matching x(0) = c·q.
  template <typename V>
  static StatusOr<ResultT<V>> RunWithSeedVectorT(const Graph& graph,
                                                 const std::vector<V>& q,
                                                 const CpiOptions& options,
                                                 Workspace* workspace =
                                                     nullptr);
  static StatusOr<Result> RunWithSeedVector(const Graph& graph,
                                            const std::vector<double>& q,
                                            const CpiOptions& options,
                                            Workspace* workspace = nullptr) {
    return RunWithSeedVectorT<double>(graph, q, options, workspace);
  }

  /// Batched CPI: runs the window for B single-node seeds at once, sharing
  /// one SpMM sweep over the CSR arrays per iteration instead of B
  /// independent SpMvTranspose sweeps.  The first iterations run sparse
  /// over the batch's union frontier, the tail dense.  Vector b of the
  /// returned block is bitwise-identical to RunT(graph, {seeds[b]},
  /// options).scores — each seed's accumulation stops at exactly the
  /// iteration where its own scalar run would have converged, and the
  /// blocked kernels reproduce the scalar arithmetic per vector (see
  /// CsrMatrixT::SpMmTranspose).  Fails on invalid options, an empty batch,
  /// or an out-of-range seed.
  ///
  /// `contexts`, when non-empty, must align index-for-index with `seeds`
  /// (null entries allowed).  An aborting seed is dropped from the batch
  /// through the same per-seed freeze the convergence check uses — it
  /// stops accumulating while the shared SpMM continues for the others —
  /// so its vector is bitwise what the aborted scalar run returns; the
  /// abort is recorded only in its context (a block has no per-vector
  /// status channel).
  template <typename V>
  static StatusOr<la::DenseBlockT<V>> RunBatchT(
      const Graph& graph, std::span<const NodeId> seeds,
      const CpiOptions& options, Workspace* workspace = nullptr,
      std::span<QueryContext* const> contexts = {});
  static StatusOr<la::DenseBlock> RunBatch(
      const Graph& graph, std::span<const NodeId> seeds,
      const CpiOptions& options, Workspace* workspace = nullptr,
      std::span<QueryContext* const> contexts = {}) {
    return RunBatchT<double>(graph, seeds, options, workspace, contexts);
  }

  /// Windowed CPI: one partial sum per window, where window w covers
  /// iterations [breakpoints[w], breakpoints[w+1]) and the final window
  /// extends to ∞.  E.g. breakpoints {0, S, T} yields exactly the paper's
  /// family, neighbor, and stranger parts.  Each window is one
  /// RunWithSeedVectorT over its iteration range (so window w recomputes
  /// the iterations before breakpoints[w]); all windows share the
  /// workspace.  Breakpoints must start at 0 and be strictly increasing.
  template <typename V>
  static StatusOr<std::vector<std::vector<V>>> RunWindowedT(
      const Graph& graph, const std::vector<V>& q,
      const std::vector<int>& breakpoints, const CpiOptions& options,
      Workspace* workspace = nullptr);
  static StatusOr<std::vector<std::vector<double>>> RunWindowed(
      const Graph& graph, const std::vector<double>& q,
      const std::vector<int>& breakpoints, const CpiOptions& options,
      Workspace* workspace = nullptr) {
    return RunWindowedT<double>(graph, q, breakpoints, options, workspace);
  }

  /// How the bound-driven top-k runner (RunTopKT) behaves.
  struct TopKRunOptions {
    /// Number of ranked results to return (clamped to n).  k = 0 returns an
    /// empty ranking immediately.
    int k = 10;
    /// See TopKQueryOptions::allow_early_termination — when false the
    /// window runs to its natural end and the reported scores are bitwise
    /// those of RunT followed by the base merge and a full top-k sort.
    bool allow_early_termination = true;
  };

  /// Optional merge baseline of the bound-driven runner: the final ranking
  /// is over merged(v) = post_scale·cpi_scores[v] + base[v] (each product
  /// and sum computed in fp64 and rounded to V exactly like la::Scale
  /// followed by la::Axpy — TPA's stranger merge).  `order` must hold all n
  /// node ids sorted by base value descending (ties toward the smaller id);
  /// it lets the runner offer only the k+1 best never-touched nodes instead
  /// of scanning all n.  A null base means merged(v) = cpi_scores[v] with
  /// post_scale applied (PowerIteration: post_scale = 1, no base).
  template <typename V>
  struct TopKBaseT {
    const std::vector<V>* base = nullptr;
    double post_scale = 1.0;
    std::span<const NodeId> order = {};
  };

  /// Bound-driven top-k CPI: runs the same propagation as RunT but tracks
  /// the touched support and, after each iteration, the remaining-mass
  /// upper bound Σ_j ‖x(i)‖₁·(1-c)^j on any node's future gain.  Once the
  /// current k-th candidate beats every other node's upper bound the
  /// ranking is certified and the run stops early (if allowed).  The
  /// returned ranking always equals the full run's top-k (score desc, id
  /// asc); see TopKRunOptions for the score-exactness contract.
  ///
  /// A context abort fails the call with kCancelled / kDeadlineExceeded
  /// (outputs recorded in the context): an uncertified partial ranking has
  /// no meaningful error bound, so top-k never degrades — callers wanting
  /// a partial answer run the dense path.
  template <typename V>
  static StatusOr<TopKQueryResult> RunTopKT(const Graph& graph,
                                            const std::vector<NodeId>& seeds,
                                            const CpiOptions& options,
                                            const TopKRunOptions& topk,
                                            const TopKBaseT<V>& base = {},
                                            Workspace* workspace = nullptr,
                                            QueryContext* context = nullptr);

  /// Convenience: full PageRank vector via CPI with the uniform seed vector.
  static StatusOr<std::vector<double>> PageRank(const Graph& graph,
                                                const CpiOptions& options);

  /// Convenience: exact RWR vector for one seed (runs to convergence).
  static StatusOr<std::vector<double>> ExactRwr(const Graph& graph, NodeId seed,
                                                const CpiOptions& options);
};

/// Number of iterations CPI needs to converge: log_{1-c}(ε/c) (Lemma 4).
int CpiIterationCount(double restart_probability, double tolerance);

/// Certified L1 bound on how far a CPI window sum stopped after
/// `last_iteration` (with interim norm `last_interim_norm`) can be from the
/// window run to its natural end: the substochastic geometric tail
/// Σ_{j=1..left} norm·(1-c)^j over the iterations the window could still
/// have accumulated, where `left` is capped by both the terminal iteration
/// and the convergence horizon floor(log(ε/norm)/log(1-c)) + 1 — the same
/// tail the bound-driven top-k certification uses.  0 when the norm is
/// already below tolerance (the run had converged).
double CpiRemainingMassBound(double last_interim_norm,
                             double restart_probability, double tolerance,
                             int last_iteration, int terminal_iteration);

/// Validates restart probability and tolerance; shared by CPI and TPA.
Status ValidateCpiParameters(double restart_probability, double tolerance);

/// Validates a frontier_density_threshold ([0, 1]); shared by CPI and TPA.
Status ValidateFrontierThreshold(double threshold);

}  // namespace tpa

#endif  // TPA_CORE_CPI_H_
