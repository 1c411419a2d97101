#ifndef TPA_CORE_TPA_H_
#define TPA_CORE_TPA_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/cpi.h"
#include "core/workspace_pool.h"
#include "graph/graph.h"
#include "la/dense_block.h"
#include "la/precision.h"
#include "util/query_context.h"
#include "util/status.h"

namespace tpa {

namespace snapshot {
struct LoadedSnapshot;
struct LoadOptions;
}  // namespace snapshot

/// TPA parameters.  The defaults are the paper's global settings; S and T
/// are tuned per dataset (Table II) and available through DatasetSpec.
struct TpaOptions {
  /// Restart probability c.
  double restart_probability = 0.15;
  /// CPI convergence tolerance ε.
  double tolerance = 1e-9;
  /// S: starting iteration of the neighbor part.  The online phase computes
  /// exactly the family iterations 0 .. S-1.
  int family_window = 5;
  /// T: starting iteration of the stranger part.  Iterations S .. T-1 are
  /// estimated by scaling the family part; T .. ∞ by the PageRank tail.
  int stranger_start = 10;
  /// Sparse/dense crossover of the adaptive propagation head, forwarded to
  /// CpiOptions::frontier_density_threshold (results identical at any
  /// setting; see kDefaultFrontierDensityThreshold for the sweep behind
  /// the default).
  double frontier_density_threshold = kDefaultFrontierDensityThreshold;
  /// The crossover used by QueryTopK instead of the one above.  On the
  /// scale-17 R-MAT serving host the top-k family propagation bottoms out
  /// near 0.002 (2.44 ms/query vs 3.85 dense, measured on the scatter the
  /// gather replaced).  Results identical at any setting.
  double topk_frontier_density_threshold = 0.002;
  /// Threads Preprocess runs its stranger-tail CPI and stranger-order sort
  /// on; 0 (the default) means std::thread::hardware_concurrency().  The
  /// output is bitwise the same at every thread count, 1 included (see
  /// Preprocess), so the option is not part of a snapshot.  Queries never
  /// use it: serving parallelism is the engines' worker threads.
  int preprocess_threads = 0;
};

/// Two Phase Approximation for RWR (the paper's proposed method).
///
/// Usage:
///   TPA_ASSIGN_OR_RETURN(Tpa tpa, Tpa::Preprocess(graph, options));
///   std::vector<double> scores = tpa.Query(seed);
///
/// `Preprocess` runs Algorithm 2 once per graph (PageRank stranger tail via
/// CPI); `Query` runs Algorithm 3 per seed (S sparse matvecs + two scaled
/// vector adds).  The Tpa object borrows the graph: it must not outlive it.
///
/// The precision tier follows the graph (Graph::value_precision): on an
/// fp32 graph the stranger tail is precomputed, stored, and every query's
/// propagation run entirely on fp32 storage — half the bytes end to end.
/// QueryF / QueryBatchF expose the native fp32 results; the historical
/// fp64-typed surface (Query, QueryBatch, …) stays available at either tier
/// and widens the fp32 result once at the boundary on an fp32 graph.
class Tpa {
 public:
  /// Algorithm 2: computes the PageRank tail r̃_stranger = Σ_{i≥T} x(i) at
  /// the graph's precision tier, on options.preprocess_threads threads.
  /// The CPI runs as a destination-partitioned gather (Cpi::
  /// RunWithSeedVectorT with a WorkerTeam) and the stranger order is a
  /// parallel sort under a strict total order, so the stranger tail, the
  /// stranger order and the iteration count are bitwise the same at every
  /// thread count.  Fails with InvalidArgument on a kExplicit graph whose
  /// rows hold unequal values (the gather needs one weight per source
  /// node; every builder stores 1/out-degree).
  static StatusOr<Tpa> Preprocess(const Graph& graph,
                                  const TpaOptions& options);

  /// Reassembles a preprocessed instance from previously computed state —
  /// the snapshot load path.  Validates the options and that exactly the
  /// graph's tier is populated with n-length arrays; every query against
  /// the result is bitwise-identical to one against the Preprocess run that
  /// produced the arrays.  Like Preprocess, borrows the graph.
  static StatusOr<Tpa> FromPreprocessedState(
      const Graph& graph, const TpaOptions& options,
      std::vector<double> stranger, std::vector<float> stranger_f,
      std::vector<NodeId> stranger_order);

  /// Serializes this instance's full serving state (graph included) into a
  /// versioned, checksummed snapshot file — see snapshot::WriteSnapshot.
  Status SaveSnapshot(const std::string& path) const;

  /// Opens a snapshot written by SaveSnapshot and reassembles the serving
  /// state (graph + preprocessed Tpa) — see snapshot::LoadSnapshot.  The
  /// overload without options maps the file and verifies checksums (the
  /// defaults).
  static StatusOr<snapshot::LoadedSnapshot> LoadSnapshot(
      const std::string& path);
  static StatusOr<snapshot::LoadedSnapshot> LoadSnapshot(
      const std::string& path, const snapshot::LoadOptions& options);

  /// Algorithm 3: approximate RWR vector for `seed`.
  /// CHECK-fails on an out-of-range seed (programming error).
  std::vector<double> Query(NodeId seed) const;

  /// Native fp32 Algorithm 3 (CHECK-fails unless the graph is fp32): the
  /// serving hot path of the halved-footprint tier — no fp64 vector is
  /// materialized anywhere between the seed and the returned scores.
  std::vector<float> QueryF(NodeId seed) const;

  /// Bound-driven top-k Algorithm 3 at the graph's tier: the family CPI
  /// runs under Cpi::RunTopKT with the stranger tail as the merge baseline,
  /// so the query terminates once the k-th candidate is separated from
  /// every other node's remaining-mass upper bound and never materializes
  /// the dense merge.  The returned ranking always equals
  /// TopKScores(Query(seed), k); with early termination disabled the scores
  /// too are bitwise that path's (see TopKQueryOptions).  CHECK-fails on an
  /// out-of-range seed or negative k.
  TopKQueryResult QueryTopK(NodeId seed, int k,
                            const TopKQueryOptions& topk_options = {}) const;

  /// Status-returning QueryTopK with cooperative abort: same ranking
  /// contract, but invalid inputs and context aborts (kCancelled /
  /// kDeadlineExceeded — top-k never degrades, see Cpi::RunTopKT) come back
  /// as errors instead of CHECK-failing.  The serving engines route here.
  StatusOr<TopKQueryResult> QueryTopK(NodeId seed, int k,
                                      const TopKQueryOptions& topk_options,
                                      QueryContext* context) const;

  /// Batched Algorithm 3: one approximate RWR vector per seed, computed for
  /// the whole batch at once.  The S family iterations run as one SpMM
  /// chain (a single traversal of the Ã^T CSR arrays per iteration, shared
  /// by all B seeds) and the Lemma-2 scale + stranger add are blocked
  /// vector ops — so vector b of the result is bitwise-identical to
  /// Query(seeds[b]).  Fails on an empty batch or an out-of-range seed.
  ///
  /// `contexts`, when non-empty, aligns index-for-index with `seeds` (null
  /// entries allowed) and gives each seed its own cooperative abort: an
  /// aborting seed freezes out of the shared SpMM (Cpi::RunBatchT) and its
  /// context carries the merged partial's certified error bound — already
  /// through the Lemma-2 post-scale, so it bounds the returned vector.
  StatusOr<la::DenseBlock> QueryBatch(
      std::span<const NodeId> seeds,
      std::span<QueryContext* const> contexts = {}) const;

  /// Native fp32 batch (CHECK-fails unless the graph is fp32); vector b is
  /// bitwise-identical to QueryF(seeds[b]).
  StatusOr<la::DenseBlockF> QueryBatchF(
      std::span<const NodeId> seeds,
      std::span<QueryContext* const> contexts = {}) const;

  /// Personalized-PageRank generalization: approximate RWR for a *set* of
  /// seeds restarted uniformly (Section II-C notes CPI supports seed sets;
  /// TPA's two approximations apply unchanged because both are linear in
  /// the seed vector).  Fails on an empty or out-of-range seed set.
  ///
  /// A non-null `context` makes the query cooperatively abortable at
  /// iteration boundaries; on abort the partial merged vector is still
  /// returned (context->error_bound certifies it, post-scale included) —
  /// the caller decides between degrading and failing.
  StatusOr<std::vector<double>> QueryPersonalized(
      const std::vector<NodeId>& seeds, QueryContext* context = nullptr) const;

  /// Native fp32 QueryPersonalized (fails unless the graph is fp32): the
  /// Status-returning twin of QueryF the serving engines route through,
  /// with the same abort contract as QueryPersonalized.
  StatusOr<std::vector<float>> QueryPersonalizedF(
      const std::vector<NodeId>& seeds, QueryContext* context = nullptr) const;

  /// The decomposition Algorithm 3 produces, exposed for the accuracy
  /// experiments (Table III, Figures 8–9).  Always fp64-typed; on an fp32
  /// graph each part is computed at fp32 and widened.
  struct QueryParts {
    std::vector<double> family;        // exact r_family
    std::vector<double> neighbor_est;  // r̃_neighbor (scaled family)
    std::vector<double> total;         // r_TPA
  };
  QueryParts QueryDecomposed(NodeId seed) const;

  /// The precomputed approximate stranger vector (PageRank tail) at the
  /// fp64 tier; empty on an fp32 graph (see stranger_scores_f32).
  const std::vector<double>& stranger_scores() const { return stranger_; }
  /// The fp32-tier stranger vector; empty on an fp64 graph.
  const std::vector<float>& stranger_scores_f32() const {
    return stranger_f_;
  }

  /// All node ids ranked by stranger value descending (ties toward the
  /// smaller id) — QueryTopK's never-touched candidate order; always n
  /// entries (either tier).
  const std::vector<NodeId>& stranger_order() const { return stranger_order_; }

  /// The precision tier this instance runs at (== the graph's).
  la::Precision precision() const { return precision_; }

  /// Lemma 2 scaling factor ‖r_neighbor‖₁ / ‖r_family‖₁ =
  /// ((1-c)^S − (1-c)^T) / (1 − (1-c)^S).
  double NeighborScale() const;

  /// Logical size of the preprocessed data: one value per node at the
  /// graph's precision tier (8 bytes fp64, 4 bytes fp32).  This is the
  /// paper's preprocessed-storage metric, so the top-k path's stranger
  /// ranking (stranger_order_, a derived index) is deliberately excluded —
  /// the experiments' storage comparisons stay comparable across PRs.
  size_t PreprocessedBytes() const {
    return stranger_.size() * sizeof(double) +
           stranger_f_.size() * sizeof(float);
  }

  const TpaOptions& options() const { return options_; }

  /// The graph this instance was preprocessed against (borrowed).
  const Graph& graph() const { return *graph_; }

  /// The propagation-workspace pool shared by every query against this
  /// preprocessed state: one workspace per *concurrent* query, checked out
  /// per call, warm regardless of which serving thread runs it (exposed so
  /// tests can pin created() to the serving concurrency).
  const WorkspacePool& workspace_pool() const { return *workspaces_; }

 private:
  Tpa(const Graph* graph, TpaOptions options, std::vector<double> stranger,
      std::vector<float> stranger_f, std::vector<NodeId> stranger_order)
      : graph_(graph),
        options_(options),
        precision_(graph->value_precision()),
        stranger_(std::move(stranger)),
        stranger_f_(std::move(stranger_f)),
        stranger_order_(std::move(stranger_order)),
        workspaces_(std::make_shared<WorkspacePool>()) {}

  /// The stranger tail at tier V (the populated one of the two).
  template <typename V>
  const std::vector<V>& StrangerT() const;

  /// The fused Algorithm 3 merge at tier V; the typed public entry points
  /// are thin shims over these.
  template <typename V>
  StatusOr<std::vector<V>> QueryPersonalizedT(
      const std::vector<NodeId>& seeds, QueryContext* context = nullptr) const;
  template <typename V>
  StatusOr<la::DenseBlockT<V>> QueryBatchT(
      std::span<const NodeId> seeds,
      std::span<QueryContext* const> contexts = {}) const;

  CpiOptions FamilyCpiOptions() const;

  const Graph* graph_;  // not owned
  TpaOptions options_;
  la::Precision precision_;
  std::vector<double> stranger_;   // populated at the fp64 tier
  std::vector<float> stranger_f_;  // populated at the fp32 tier
  /// All node ids ranked by stranger value descending (ties toward the
  /// smaller id): QueryTopK's base order, letting the bound-driven merge
  /// offer only the k+1 best never-touched candidates.
  std::vector<NodeId> stranger_order_;
  /// shared_ptr keeps Tpa movable (WorkspacePool owns a mutex).
  std::shared_ptr<WorkspacePool> workspaces_;
};

/// Theoretical L1 error bounds (Lemmas 1, 3; Theorem 2).
double StrangerErrorBound(double restart_probability, int stranger_start);
double NeighborErrorBound(double restart_probability, int family_window,
                          int stranger_start);
double TotalErrorBound(double restart_probability, int family_window);

/// Validates a TpaOptions bundle (c, ε ranges; 1 ≤ S < T; thresholds in
/// [0, 1]; preprocess_threads ≥ 0).
Status ValidateTpaOptions(const TpaOptions& options);

}  // namespace tpa

#endif  // TPA_CORE_TPA_H_
