#include "core/cpi.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <type_traits>

#include "la/vector_ops.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace tpa {

Status ValidateFrontierThreshold(double threshold) {
  if (!(threshold >= 0.0 && threshold <= 1.0)) {
    return InvalidArgumentError(
        "frontier_density_threshold must be in [0, 1]");
  }
  return OkStatus();
}

namespace {

Status ValidateOptions(const CpiOptions& options) {
  TPA_RETURN_IF_ERROR(ValidateCpiParameters(options.restart_probability,
                                            options.tolerance));
  TPA_RETURN_IF_ERROR(
      ValidateFrontierThreshold(options.frontier_density_threshold));
  if (options.start_iteration < 0) {
    return InvalidArgumentError("start_iteration must be non-negative");
  }
  if (options.terminal_iteration < options.start_iteration) {
    return InvalidArgumentError(
        "terminal_iteration must be at least start_iteration");
  }
  return OkStatus();
}

/// Scalar and blocked interim buffers of the workspace at tier V — the
/// other tier's buffers are never touched by a V-run.
template <typename V>
std::vector<V>& WsX(Cpi::Workspace& ws) {
  if constexpr (std::is_same_v<V, double>) {
    return ws.x;
  } else {
    return ws.x_f;
  }
}
template <typename V>
std::vector<V>& WsNext(Cpi::Workspace& ws) {
  if constexpr (std::is_same_v<V, double>) {
    return ws.next;
  } else {
    return ws.next_f;
  }
}
template <typename V>
la::DenseBlockT<V>& WsBlockX(Cpi::Workspace& ws) {
  if constexpr (std::is_same_v<V, double>) {
    return ws.block_x;
  } else {
    return ws.block_x_f;
  }
}
template <typename V>
la::DenseBlockT<V>& WsBlockNext(Cpi::Workspace& ws) {
  if constexpr (std::is_same_v<V, double>) {
    return ws.block_next;
  } else {
    return ws.block_next_f;
  }
}

/// Scalar post-propagate phase of a sparse-head iteration, restricted to the
/// frontier (a sorted superset of x's support): x ·= decay, scores += x,
/// returns ‖x‖₁.  Entries off the frontier are exactly +0.0, and adding or
/// scaling +0.0 is a bitwise no-op, so this reproduces the dense
/// Scale → Axpy → NormL1 sequence exactly — at either tier: the product is
/// taken in fp64, rounded once to V on store, and the accumulation and norm
/// read the stored (rounded) value just like the dense passes would.
/// `scores` may be null (window outside [s_iter, t_iter]).
template <typename V>
double ScaleAccumulateAndNormFrontier(double decay,
                                      std::span<const NodeId> frontier,
                                      std::vector<V>& x, V* scores) {
  double norm = 0.0;
  for (NodeId i : frontier) {
    const V v = static_cast<V>(static_cast<double>(x[i]) * decay);
    x[i] = v;
    if (scores != nullptr) scores[i] += static_cast<double>(v);
    norm += std::abs(static_cast<double>(v));
  }
  return norm;
}

/// The blocked equivalent of one scalar post-propagate phase — Scale(decay),
/// Axpy into the accumulator, NormL1 — fused into a single streaming pass
/// over the block (three separate n×B sweeps would triple the dominant
/// dense traffic of a batched iteration).  Per element the arithmetic and
/// its order match the scalar phases exactly: v = x·decay, acc += v (for
/// vectors still accumulating), norm_b += |v| over rows in ascending
/// order.  A frozen vector keeps propagating through the shared SpMM
/// (cheaper than compacting the block) but stops accumulating, exactly
/// like its scalar loop breaking.
template <typename V>
std::vector<double> ScaleAccumulateAndNorms(double decay, bool accumulate,
                                            const std::vector<char>& active,
                                            size_t remaining,
                                            la::DenseBlockT<V>& x,
                                            la::DenseBlockT<V>& acc) {
  const size_t num_vectors = x.num_vectors();
  std::vector<double> norms(num_vectors, 0.0);
  const bool all_active = remaining == num_vectors;
  double* norms_data = norms.data();
  for (size_t r = 0; r < x.rows(); ++r) {
    V* __restrict xr = x.RowPtr(r);
    V* __restrict ar = acc.RowPtr(r);
    for (size_t b = 0; b < num_vectors; ++b) {
      const V v = static_cast<V>(static_cast<double>(xr[b]) * decay);
      xr[b] = v;
      if (accumulate && (all_active || active[b])) {
        ar[b] += static_cast<double>(v);
      }
      norms_data[b] += std::abs(static_cast<double>(v));
    }
  }
  return norms;
}

/// Frontier-restricted variant of ScaleAccumulateAndNorms: the same fused
/// pass over only the union-frontier rows (sorted ascending), which is a
/// superset of every vector's support.  Rows off the frontier hold exact
/// +0.0 in all B lanes, so skipping them is a bitwise no-op against the
/// full sweep.  With decay == 1.0 this doubles as the x(0) accumulation
/// pass (v = x·1.0 is bitwise x for the NaN/Inf/−0.0-free inputs the
/// kernels already assume).
template <typename V>
std::vector<double> ScaleAccumulateAndNormsFrontier(
    double decay, bool accumulate, const std::vector<char>& active,
    size_t remaining, std::span<const NodeId> frontier, la::DenseBlockT<V>& x,
    la::DenseBlockT<V>& acc) {
  const size_t num_vectors = x.num_vectors();
  std::vector<double> norms(num_vectors, 0.0);
  const bool all_active = remaining == num_vectors;
  double* norms_data = norms.data();
  for (NodeId r : frontier) {
    V* __restrict xr = x.RowPtr(r);
    V* __restrict ar = acc.RowPtr(r);
    for (size_t b = 0; b < num_vectors; ++b) {
      const V v = static_cast<V>(static_cast<double>(xr[b]) * decay);
      xr[b] = v;
      if (accumulate && (all_active || active[b])) {
        ar[b] += static_cast<double>(v);
      }
      norms_data[b] += std::abs(static_cast<double>(v));
    }
  }
  return norms;
}

/// Marks vectors whose interim norm dropped below tolerance as frozen;
/// returns how many remain active.
size_t FreezeConverged(const std::vector<double>& norms, double tolerance,
                       std::vector<char>& active, size_t remaining) {
  for (size_t b = 0; b < norms.size(); ++b) {
    if (active[b] && norms[b] < tolerance) {
      active[b] = 0;
      --remaining;
    }
  }
  return remaining;
}

/// Scans x for its support and leaves it, sorted, in `frontier`.  Bails out
/// (returns false) once the support exceeds the density limit — the run
/// starts dense and no frontier is needed.
template <typename V>
bool ScanInitialFrontier(const std::vector<V>& x, double limit,
                         std::vector<NodeId>& frontier) {
  frontier.clear();
  for (NodeId i = 0; i < x.size(); ++i) {
    if (x[i] == V{0}) continue;
    frontier.push_back(i);
    if (static_cast<double>(frontier.size()) > limit) return false;
  }
  return true;
}

/// No-op iteration observer of the scalar loop — the default instantiation
/// optimizes out entirely, keeping RunT bitwise- and cost-identical to the
/// pre-observer loop.
template <typename V>
struct NullObserver {
  bool AfterIteration(int, bool, const Cpi::ResultT<V>&,
                      const Cpi::Workspace&) {
    return false;
  }
};

/// Records a context abort after iteration `i` in both the result and the
/// context (the certified bound covers the iterations that never ran).
template <typename V>
void RecordAbort(QueryContext& context, StatusCode code, int i,
                 const CpiOptions& options, Cpi::ResultT<V>& result) {
  const double bound = CpiRemainingMassBound(
      result.last_interim_norm, options.restart_probability,
      options.tolerance, i, options.terminal_iteration);
  result.abort_code = code;
  result.remaining_mass_bound = bound;
  context.aborted = true;
  context.abort_code = code;
  context.aborted_at_iteration = i;
  context.error_bound = bound;
}

/// The per-iteration context poll of the scalar loop: true (and records the
/// abort) when the run should stop after iteration `i`.  Null context is
/// one untaken branch.
template <typename V>
bool AbortAfterIteration(QueryContext* context, int i,
                         const CpiOptions& options, Cpi::ResultT<V>& result) {
  if (context == nullptr || i < context->min_iterations) return false;
  const StatusCode code = context->AbortNow();
  if (code == StatusCode::kOk) return false;
  RecordAbort(*context, code, i, options, result);
  return true;
}

/// Shared scalar CPI loop.  Preconditions: options validated; the tier-V
/// interim buffer holds x(0) = c·q; when frontier_ready, ws.frontier holds
/// x(0)'s support sorted ascending (callers with explicit seed lists skip
/// the O(n) support scan).
///
/// `observer.AfterIteration(i, sparse, result, ws)` runs once per computed
/// iteration, after its accumulation and norm (when `sparse`, ws.frontier
/// holds x(i)'s support sorted ascending).  Returning true stops the run
/// after the current iteration — the bound-driven top-k path's early
/// termination; convergence still takes precedence in the result flags.
template <typename V, typename Observer>
Cpi::ResultT<V> RunScalarLoopObserved(const Graph& graph,
                                      const CpiOptions& options,
                                      Cpi::Workspace& ws, bool frontier_ready,
                                      Observer& observer,
                                      QueryContext* context = nullptr) {
  const NodeId n = graph.num_nodes();
  const double decay = 1.0 - options.restart_probability;
  const double limit =
      options.frontier_density_threshold * static_cast<double>(n);
  std::vector<V>& x = WsX<V>(ws);
  std::vector<V>& next = WsNext<V>(ws);

  Cpi::ResultT<V> result;
  result.scores.assign(n, V{0});

  bool sparse = options.frontier_density_threshold > 0.0;
  if (sparse && !frontier_ready) {
    sparse = ScanInitialFrontier(x, limit, ws.frontier);
  }
  if (sparse && static_cast<double>(ws.frontier.size()) > limit) {
    sparse = false;
  }
  next.assign(n, V{0});
  ws.next_frontier.clear();  // the recycled buffer starts fully zeroed

  // x(0) accumulation + interim norm.
  if (sparse) {
    result.last_interim_norm = ScaleAccumulateAndNormFrontier<V>(
        1.0, ws.frontier, x,
        options.start_iteration == 0 ? result.scores.data() : nullptr);
  } else {
    if (options.start_iteration == 0) la::Axpy(1.0, x, result.scores);
    result.last_interim_norm = la::NormL1(x);
  }
  const bool stop0 = observer.AfterIteration(0, sparse, result, ws);
  if (result.last_interim_norm < options.tolerance) {
    result.converged = true;
    return result;
  }
  if (stop0) return result;
  if (AbortAfterIteration(context, 0, options, result)) return result;

  for (int i = 1; i <= options.terminal_iteration; ++i) {
    // Propagation-site failpoint (no-op unless TPA_FAILPOINTS=ON): a delay
    // armed here makes a deadline expire mid-query deterministically.
    TPA_FAILPOINT_HIT("cpi.iteration");
    if (sparse) {
      // Re-zero the stale support of the recycled buffer (the interim
      // vector from two iterations ago), then scatter from the frontier.
      for (NodeId j : ws.next_frontier) next[j] = V{0};
      const bool stayed = graph.TransitionT<V>().SpMvTransposeFrontier(
          x, ws.frontier, options.frontier_density_threshold, next,
          ws.next_frontier, ws.scratch);
      x.swap(next);
      result.last_iteration = i;
      if (stayed) {
        ws.frontier.swap(ws.next_frontier);
        result.last_interim_norm = ScaleAccumulateAndNormFrontier<V>(
            decay, ws.frontier, x,
            i >= options.start_iteration ? result.scores.data() : nullptr);
      } else {
        // The kernel fell through to the dense scatter; finish this
        // iteration with the dense post-passes and stay dense.
        sparse = false;
        la::Scale(decay, x);
        if (i >= options.start_iteration) la::Axpy(1.0, x, result.scores);
        result.last_interim_norm = la::NormL1(x);
      }
    } else {
      graph.MultiplyTransposeT<V>(x, next);
      la::Scale(decay, next);
      x.swap(next);
      result.last_iteration = i;
      if (i >= options.start_iteration) la::Axpy(1.0, x, result.scores);
      result.last_interim_norm = la::NormL1(x);
    }
    // The observer runs before the convergence check so it sees the final
    // iteration's frontier too (it may be tracking the touched support).
    const bool stop = observer.AfterIteration(i, sparse, result, ws);
    if (result.last_interim_norm < options.tolerance) {
      result.converged = true;
      break;
    }
    if (stop) break;
    // Convergence outranks the abort: a run stopped by its own tolerance
    // is a complete answer even if the deadline also just passed.
    if (AbortAfterIteration(context, i, options, result)) break;
  }
  return result;
}

template <typename V>
Cpi::ResultT<V> RunScalarLoop(const Graph& graph, const CpiOptions& options,
                              Cpi::Workspace& ws, bool frontier_ready,
                              QueryContext* context = nullptr) {
  NullObserver<V> observer;
  return RunScalarLoopObserved<V>(graph, options, ws, frontier_ready,
                                  observer, context);
}

/// Builds x(0) = c·q for a uniform seed set directly in the workspace —
/// q[s] += share per seed, then the support scaled by c, bitwise-identical
/// to materializing q and Scale(c, ·) over all n (off-support entries are
/// exact +0.0 and 0·c is a bitwise no-op) without the extra n-length
/// vector.  Leaves the sorted unique support in ws.frontier.
template <typename V>
void BuildSeedStart(const Graph& graph, const std::vector<NodeId>& seeds,
                    const CpiOptions& options, Cpi::Workspace& ws) {
  std::vector<V>& x = WsX<V>(ws);
  x.assign(graph.num_nodes(), V{0});
  const double share = 1.0 / static_cast<double>(seeds.size());
  for (NodeId s : seeds) x[s] += share;

  ws.frontier.assign(seeds.begin(), seeds.end());
  std::sort(ws.frontier.begin(), ws.frontier.end());
  ws.frontier.erase(std::unique(ws.frontier.begin(), ws.frontier.end()),
                    ws.frontier.end());
  const double c = options.restart_probability;
  for (NodeId i : ws.frontier) x[i] *= c;
}

/// Iteration observer of the bound-driven top-k runner.  Tracks the touched
/// support (the union of the sparse head's frontiers — a superset of the
/// accumulated scores' support) and, after each iteration, whether the
/// current top-k candidates are separated from every other node's
/// upper bound by more than the remaining-mass slack.  Certification scans
/// are gated: a scan only runs once the slack has dropped below the
/// smallest separating gap the previous scan saw (so a query whose gaps can
/// never be certified pays for at most one selection pass).
template <typename V>
class TopKTracker {
 public:
  TopKTracker(const Graph& graph, const CpiOptions& options,
              const Cpi::TopKRunOptions& topk, const Cpi::TopKBaseT<V>& base)
      : n_(graph.num_nodes()),
        k_(std::min(static_cast<size_t>(topk.k), static_cast<size_t>(n_))),
        allow_early_(topk.allow_early_termination),
        decay_(1.0 - options.restart_probability),
        tolerance_(options.tolerance),
        terminal_(options.terminal_iteration),
        base_(base) {}

  bool AfterIteration(int i, bool sparse, const Cpi::ResultT<V>& result,
                      const Cpi::Workspace& ws) {
    if (support_known_) {
      if (sparse) {
        MergeTouched(ws.frontier);
      } else {
        support_known_ = false;  // dense tail: support no longer enumerated
      }
    }
    if (!allow_early_ || k_ == 0) return false;
    const double norm = result.last_interim_norm;
    if (norm < tolerance_) return false;  // converging naturally anyway
    const double slack = Slack(norm, i);
    if (slack >= scan_gate_) return false;
    SelectCandidates(result.scores);
    scan_gate_ = selector_.MinCertGap(k_);
    if (selector_.CertifiesTopK(k_, slack)) {
      certified_ = true;
      return true;
    }
    return false;
  }

  TopKQueryResult Finalize(const Cpi::ResultT<V>& result) {
    TopKQueryResult out;
    out.last_iteration = result.last_iteration;
    out.converged = result.converged;
    out.early_terminated = certified_ && !result.converged;
    // On early termination the certified selection (partial scores, exact
    // ranks) is the answer; at a natural end a fresh selection over the
    // final scores yields the exact merged values.
    if (!certified_) SelectCandidates(result.scores);
    const auto held = selector_.entries();
    const size_t take = std::min(k_, held.size());
    out.top.assign(held.begin(), held.begin() + take);
    return out;
  }

 private:
  /// Most any node's merged score can still gain after iteration i with
  /// interim norm `norm`: the geometric tail over the iterations the window
  /// can still accumulate, through the merge's post-scale, plus an absolute
  /// slop covering the merge's own rounding (a few fp64 ulps of unit-scale
  /// scores; fp32 storage rounds at ~1e-7 of value, covered by 1e-5).
  double Slack(double norm, int i) const {
    int left = terminal_ == CpiOptions::kUnbounded
                   ? std::numeric_limits<int>::max()
                   : terminal_ - i;
    // Convergence horizon: norm_j ≤ norm·decay^j, and the first iteration
    // whose norm lands below ε is the last one accumulated — floor+1 (not
    // ceil) so the horizon is never under-counted.
    const double ratio = std::log(tolerance_ / norm) / std::log(decay_);
    const int horizon = static_cast<int>(std::floor(ratio)) + 1;
    left = std::min(left, std::max(horizon, 0));
    constexpr double kSlop = std::is_same_v<V, double> ? 1e-14 : 1e-5;
    return base_.post_scale * la::GeometricTailMass(norm, decay_, left) +
           kSlop;
  }

  /// Merged value of a touched node — matches la::Scale(post_scale, ·) then
  /// la::Axpy(1.0, base, ·) bitwise: each product and sum computed in fp64,
  /// rounded to V once per step.
  double Merged(V p, NodeId v) const {
    const V scaled =
        static_cast<V>(base_.post_scale * static_cast<double>(p));
    if (base_.base == nullptr) return static_cast<double>(scaled);
    return static_cast<double>(static_cast<V>(
        static_cast<double>(scaled) + static_cast<double>((*base_.base)[v])));
  }

  void MergeTouched(std::span<const NodeId> frontier) {
    if (touched_.empty()) {
      touched_.assign(frontier.begin(), frontier.end());
      return;
    }
    merge_tmp_.clear();
    merge_tmp_.reserve(touched_.size() + frontier.size());
    std::set_union(touched_.begin(), touched_.end(), frontier.begin(),
                   frontier.end(), std::back_inserter(merge_tmp_));
    touched_.swap(merge_tmp_);
  }

  bool IsTouched(NodeId v) const {
    return std::binary_search(touched_.begin(), touched_.end(), v);
  }

  /// Offers every candidate that could rank: the whole touched support at
  /// its merged value, plus the k+1 best never-touched nodes — their merged
  /// value is exactly the base value (or exact zero with no base), so
  /// walking the base-descending order (or id-ascending without a base) and
  /// skipping touched nodes covers the best excluded candidates without
  /// scanning all n.  Falls back to the full scan once the support is no
  /// longer enumerated.
  void SelectCandidates(const std::vector<V>& scores) {
    selector_.Reset(k_ + 1);
    if (!support_known_) {
      for (NodeId v = 0; v < n_; ++v) selector_.Offer(v, Merged(scores[v], v));
      return;
    }
    for (NodeId v : touched_) selector_.Offer(v, Merged(scores[v], v));
    size_t offered = 0;
    if (base_.base != nullptr) {
      for (NodeId v : base_.order) {
        if (offered > k_) break;
        if (IsTouched(v)) continue;
        selector_.Offer(v, static_cast<double>((*base_.base)[v]));
        ++offered;
      }
    } else {
      auto it = touched_.begin();
      for (NodeId v = 0; v < n_ && offered <= k_; ++v) {
        while (it != touched_.end() && *it < v) ++it;
        if (it != touched_.end() && *it == v) continue;
        selector_.Offer(v, 0.0);
        ++offered;
      }
    }
  }

  const NodeId n_;
  const size_t k_;
  const bool allow_early_;
  const double decay_;
  const double tolerance_;
  const int terminal_;
  Cpi::TopKBaseT<V> base_;
  bool support_known_ = true;
  bool certified_ = false;
  double scan_gate_ = std::numeric_limits<double>::infinity();
  std::vector<NodeId> touched_;
  std::vector<NodeId> merge_tmp_;
  la::TopKSelector selector_;
};

}  // namespace

Status ValidateCpiParameters(double restart_probability, double tolerance) {
  if (!(restart_probability > 0.0 && restart_probability < 1.0)) {
    return InvalidArgumentError("restart probability must be in (0,1)");
  }
  if (!(tolerance > 0.0)) {
    return InvalidArgumentError("tolerance must be positive");
  }
  return OkStatus();
}

int CpiIterationCount(double restart_probability, double tolerance) {
  const double c = restart_probability;
  return static_cast<int>(
      std::ceil(std::log(tolerance / c) / std::log(1.0 - c)));
}

double CpiRemainingMassBound(double last_interim_norm,
                             double restart_probability, double tolerance,
                             int last_iteration, int terminal_iteration) {
  if (last_interim_norm < tolerance) return 0.0;
  const double decay = 1.0 - restart_probability;
  int left = terminal_iteration == CpiOptions::kUnbounded
                 ? std::numeric_limits<int>::max()
                 : terminal_iteration - last_iteration;
  // Convergence horizon, mirroring the top-k tracker's slack: interim
  // norms shrink at least geometrically, so the first iteration whose norm
  // lands below ε is the last one the window would have accumulated.
  const double ratio =
      std::log(tolerance / last_interim_norm) / std::log(decay);
  const int horizon = static_cast<int>(std::floor(ratio)) + 1;
  left = std::min(left, std::max(horizon, 0));
  return la::GeometricTailMass(last_interim_norm, decay, left);
}

template <typename V>
StatusOr<Cpi::ResultT<V>> Cpi::RunT(const Graph& graph,
                                    const std::vector<NodeId>& seeds,
                                    const CpiOptions& options,
                                    Workspace* workspace,
                                    QueryContext* context) {
  TPA_RETURN_IF_ERROR(ValidateOptions(options));
  if (seeds.empty()) return InvalidArgumentError("seed set must be non-empty");
  for (NodeId s : seeds) {
    if (s >= graph.num_nodes()) {
      return OutOfRangeError("seed node out of range");
    }
  }
  Workspace local;
  Workspace& ws = workspace != nullptr ? *workspace : local;
  BuildSeedStart<V>(graph, seeds, options, ws);
  return RunScalarLoop<V>(graph, options, ws, /*frontier_ready=*/true,
                          context);
}

template <typename V>
StatusOr<Cpi::ResultT<V>> Cpi::RunWithSeedVectorT(const Graph& graph,
                                                  const std::vector<V>& q,
                                                  const CpiOptions& options,
                                                  Workspace* workspace) {
  TPA_RETURN_IF_ERROR(ValidateOptions(options));
  if (q.size() != graph.num_nodes()) {
    return InvalidArgumentError("seed vector size must equal node count");
  }
  Workspace local;
  Workspace& ws = workspace != nullptr ? *workspace : local;
  std::vector<V>& x = WsX<V>(ws);
  x.assign(q.begin(), q.end());
  la::Scale(options.restart_probability, x);
  return RunScalarLoop<V>(graph, options, ws, /*frontier_ready=*/false);
}

template <typename V>
StatusOr<la::DenseBlockT<V>> Cpi::RunBatchT(
    const Graph& graph, std::span<const NodeId> seeds,
    const CpiOptions& options, Workspace* workspace,
    std::span<QueryContext* const> contexts) {
  TPA_RETURN_IF_ERROR(ValidateOptions(options));
  if (seeds.empty()) {
    return InvalidArgumentError("seed batch must be non-empty");
  }
  if (!contexts.empty() && contexts.size() != seeds.size()) {
    return InvalidArgumentError(
        "contexts must be empty or align with the seed batch");
  }
  for (NodeId s : seeds) {
    if (s >= graph.num_nodes()) {
      return OutOfRangeError("seed node out of range");
    }
  }
  Workspace local;
  Workspace& ws = workspace != nullptr ? *workspace : local;

  const NodeId n = graph.num_nodes();
  const double c = options.restart_probability;
  const double decay = 1.0 - c;
  const size_t num_vectors = seeds.size();
  const double limit =
      options.frontier_density_threshold * static_cast<double>(n);

  // x(0) = c·e_s per vector; 1.0·c == c bitwise, matching the scalar path's
  // q[s] = 1.0 followed by Scale(c, ·).
  la::DenseBlockT<V>& x = WsBlockX<V>(ws);
  la::DenseBlockT<V>& next = WsBlockNext<V>(ws);
  x.Resize(n, num_vectors);
  x.SetZero();
  for (size_t b = 0; b < num_vectors; ++b) {
    x.At(seeds[b], b) = static_cast<V>(c);
  }

  la::DenseBlockT<V> acc(n, num_vectors);
  std::vector<char> active(num_vectors, 1);
  size_t remaining = num_vectors;

  // Aborting seeds drop out through the same freeze the convergence check
  // uses: the frozen vector rides the shared SpMM but stops accumulating,
  // so its block column is bitwise the aborted scalar run's scores.  Runs
  // after FreezeConverged so convergence outranks the abort.
  auto freeze_aborted = [&](int i, const std::vector<double>& norms) {
    if (contexts.empty()) return;
    for (size_t b = 0; b < num_vectors; ++b) {
      QueryContext* context = contexts[b];
      if (!active[b] || context == nullptr) continue;
      if (i < context->min_iterations) continue;
      const StatusCode code = context->AbortNow();
      if (code == StatusCode::kOk) continue;
      const double bound = CpiRemainingMassBound(
          norms[b], options.restart_probability, options.tolerance, i,
          options.terminal_iteration);
      context->aborted = true;
      context->abort_code = code;
      context->aborted_at_iteration = i;
      context->error_bound = bound;
      active[b] = 0;
      --remaining;
    }
  };

  // The union frontier: sorted unique seeds, a superset of every vector's
  // support.
  bool sparse = options.frontier_density_threshold > 0.0;
  if (sparse) {
    ws.frontier.assign(seeds.begin(), seeds.end());
    std::sort(ws.frontier.begin(), ws.frontier.end());
    ws.frontier.erase(std::unique(ws.frontier.begin(), ws.frontier.end()),
                      ws.frontier.end());
    if (static_cast<double>(ws.frontier.size()) > limit) sparse = false;
  }
  next.Resize(n, num_vectors);
  if (sparse) next.SetZero();  // the recycled buffer starts fully zeroed
  ws.next_frontier.clear();

  {
    std::vector<double> norms0;
    if (sparse) {
      norms0 = ScaleAccumulateAndNormsFrontier<V>(
          1.0, options.start_iteration == 0, active, remaining, ws.frontier,
          x, acc);
    } else {
      if (options.start_iteration == 0) la::BlockAxpy(1.0, x, acc);
      norms0 = la::BlockColumnNormsL1(x);
    }
    remaining = FreezeConverged(norms0, options.tolerance, active, remaining);
    freeze_aborted(0, norms0);
  }

  for (int i = 1; i <= options.terminal_iteration && remaining > 0; ++i) {
    TPA_FAILPOINT_HIT("cpi.iteration");
    if (sparse) {
      // Re-zero the stale support of the recycled buffer (the interim
      // block from two iterations ago), then scatter from the frontier;
      // above the density threshold the kernel falls through to the dense
      // sweep and the run stays dense from here on.
      for (NodeId j : ws.next_frontier) {
        V* row = next.RowPtr(j);
        std::fill(row, row + num_vectors, V{0});
      }
      sparse = graph.TransitionT<V>().SpMmTransposeFrontier(
          x, ws.frontier, options.frontier_density_threshold, next,
          ws.next_frontier, ws.scratch);
    } else {
      graph.MultiplyTransposeBlockT<V>(x, next);
    }
    x.swap(next);
    std::vector<double> norms;
    if (sparse) {
      ws.frontier.swap(ws.next_frontier);
      norms = ScaleAccumulateAndNormsFrontier<V>(
          decay, i >= options.start_iteration, active, remaining, ws.frontier,
          x, acc);
    } else {
      norms = ScaleAccumulateAndNorms<V>(decay, i >= options.start_iteration,
                                         active, remaining, x, acc);
    }
    remaining = FreezeConverged(norms, options.tolerance, active, remaining);
    freeze_aborted(i, norms);
  }
  return acc;
}

template <typename V>
StatusOr<std::vector<std::vector<V>>> Cpi::RunWindowedT(
    const Graph& graph, const std::vector<V>& q,
    const std::vector<int>& breakpoints, const CpiOptions& options,
    Workspace* workspace) {
  if (breakpoints.empty() || breakpoints.front() != 0) {
    return InvalidArgumentError("breakpoints must start at 0");
  }
  for (size_t w = 1; w < breakpoints.size(); ++w) {
    if (breakpoints[w] <= breakpoints[w - 1]) {
      return InvalidArgumentError("breakpoints must be strictly increasing");
    }
  }
  Workspace local;
  Workspace& ws = workspace != nullptr ? *workspace : local;
  std::vector<std::vector<V>> windows;
  for (size_t w = 0; w < breakpoints.size(); ++w) {
    CpiOptions window = options;
    window.start_iteration = breakpoints[w];
    window.terminal_iteration = w + 1 < breakpoints.size()
                                    ? breakpoints[w + 1] - 1
                                    : CpiOptions::kUnbounded;
    TPA_ASSIGN_OR_RETURN(ResultT<V> result,
                         RunWithSeedVectorT<V>(graph, q, window, &ws));
    windows.push_back(std::move(result.scores));
  }
  return windows;
}

StatusOr<std::vector<double>> Cpi::PageRank(const Graph& graph,
                                            const CpiOptions& options) {
  std::vector<double> q(graph.num_nodes(),
                        1.0 / static_cast<double>(graph.num_nodes()));
  TPA_ASSIGN_OR_RETURN(Result result, RunWithSeedVector(graph, q, options));
  return std::move(result.scores);
}

StatusOr<std::vector<double>> Cpi::ExactRwr(const Graph& graph, NodeId seed,
                                            const CpiOptions& options) {
  TPA_ASSIGN_OR_RETURN(Result result, Run(graph, {seed}, options));
  return std::move(result.scores);
}

template <typename V>
StatusOr<TopKQueryResult> Cpi::RunTopKT(const Graph& graph,
                                        const std::vector<NodeId>& seeds,
                                        const CpiOptions& options,
                                        const TopKRunOptions& topk,
                                        const TopKBaseT<V>& base,
                                        Workspace* workspace,
                                        QueryContext* context) {
  TPA_RETURN_IF_ERROR(ValidateOptions(options));
  if (seeds.empty()) return InvalidArgumentError("seed set must be non-empty");
  for (NodeId s : seeds) {
    if (s >= graph.num_nodes()) {
      return OutOfRangeError("seed node out of range");
    }
  }
  if (topk.k < 0) return InvalidArgumentError("k must be non-negative");
  if (!(base.post_scale >= 0.0)) {
    return InvalidArgumentError("post_scale must be non-negative");
  }
  if (base.base != nullptr) {
    if (base.base->size() != graph.num_nodes()) {
      return InvalidArgumentError("base vector size must equal node count");
    }
    if (base.order.size() != graph.num_nodes()) {
      return InvalidArgumentError("base order must rank all nodes");
    }
  } else if (!base.order.empty()) {
    return InvalidArgumentError("base order given without a base vector");
  }

  Workspace local;
  Workspace& ws = workspace != nullptr ? *workspace : local;
  BuildSeedStart<V>(graph, seeds, options, ws);
  TopKTracker<V> tracker(graph, options, topk, base);
  const ResultT<V> result = RunScalarLoopObserved<V>(
      graph, options, ws, /*frontier_ready=*/true, tracker, context);
  if (result.abort_code != StatusCode::kOk) {
    // An uncertified partial ranking is not an answer — top-k aborts are
    // always errors (the dense path is the degradable one).
    return context->AbortStatus();
  }
  return tracker.Finalize(result);
}

template StatusOr<Cpi::ResultT<double>> Cpi::RunT<double>(
    const Graph&, const std::vector<NodeId>&, const CpiOptions&, Workspace*,
    QueryContext*);
template StatusOr<Cpi::ResultT<float>> Cpi::RunT<float>(
    const Graph&, const std::vector<NodeId>&, const CpiOptions&, Workspace*,
    QueryContext*);
template StatusOr<Cpi::ResultT<double>> Cpi::RunWithSeedVectorT<double>(
    const Graph&, const std::vector<double>&, const CpiOptions&, Workspace*);
template StatusOr<Cpi::ResultT<float>> Cpi::RunWithSeedVectorT<float>(
    const Graph&, const std::vector<float>&, const CpiOptions&, Workspace*);
template StatusOr<la::DenseBlockT<double>> Cpi::RunBatchT<double>(
    const Graph&, std::span<const NodeId>, const CpiOptions&, Workspace*,
    std::span<QueryContext* const>);
template StatusOr<la::DenseBlockT<float>> Cpi::RunBatchT<float>(
    const Graph&, std::span<const NodeId>, const CpiOptions&, Workspace*,
    std::span<QueryContext* const>);
template StatusOr<std::vector<std::vector<double>>> Cpi::RunWindowedT<double>(
    const Graph&, const std::vector<double>&, const std::vector<int>&,
    const CpiOptions&, Workspace*);
template StatusOr<std::vector<std::vector<float>>> Cpi::RunWindowedT<float>(
    const Graph&, const std::vector<float>&, const std::vector<int>&,
    const CpiOptions&, Workspace*);
template StatusOr<TopKQueryResult> Cpi::RunTopKT<double>(
    const Graph&, const std::vector<NodeId>&, const CpiOptions&,
    const TopKRunOptions&, const TopKBaseT<double>&, Workspace*,
    QueryContext*);
template StatusOr<TopKQueryResult> Cpi::RunTopKT<float>(
    const Graph&, const std::vector<NodeId>&, const CpiOptions&,
    const TopKRunOptions&, const TopKBaseT<float>&, Workspace*,
    QueryContext*);

}  // namespace tpa
