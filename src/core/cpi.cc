#include "core/cpi.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <optional>
#include <ranges>
#include <string>
#include <type_traits>

#include "la/vector_ops.h"
#include "la/width_dispatch.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/worker_team.h"

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

/// Fails on an empty seed list (InvalidArgument, naming `what`) or an
/// out-of-range seed (OutOfRange).
Status ValidateSeeds(const Graph& graph, std::span<const NodeId> seeds,
                     const char* what) {
  if (seeds.empty()) {
    return InvalidArgumentError(std::string(what) + " must be non-empty");
  }
  for (NodeId s : seeds) {
    if (s >= graph.num_nodes()) {
      return OutOfRangeError("seed node out of range");
    }
  }
  return OkStatus();
}

/// The blocked interim buffers of the workspace at tier V — the other
/// tier's buffers are never touched by a V-run.
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

/// The post-propagate phase of a sparse-head iteration — Scale(decay), Axpy
/// into the accumulator, NormL1 — fused into one pass over the sorted union
/// frontier (rows off it hold exact +0.0 in every column, so skipping them
/// is a bitwise no-op).  Per element: v = x·decay taken in fp64 and rounded
/// once to V, acc += v for the columns still accumulating.  norms[b] sums
/// |v| over the fixed kCpiNormChunkRows-row chunks: rows ascending within a
/// chunk, then the chunk sums in chunk order — the reduction of the dense
/// step (PartitionedStep), so the head and the dense tail stop at the same
/// iteration.  With decay == 1.0 it is the x(0) pass (v = x·1.0 is bitwise
/// x for the finite inputs the loop admits).  `acc` is an n × B row-major
/// accumulator with the block's stride.  Width-specialized like the kernels
/// so the per-column norms live in registers: through memory they would
/// serialize every row on a store-to-load round trip.
template <typename V>
void ScaleAccumulateAndNorms(double decay, const std::vector<NodeId>& frontier,
                             const std::vector<char>& accumulating,
                             la::DenseBlockT<V>& x, V* acc,
                             std::vector<double>& norms) {
  V* const xs = x.RowPtr(0);
  const size_t width = x.num_vectors();
  la::DispatchWidth(width, [&]<size_t kWidth>(size_t col, auto stride) {
    double totals[kWidth] = {};
    double sums[kWidth] = {};
    char accumulate[kWidth];
    std::copy_n(accumulating.begin() + col, kWidth, accumulate);
    const auto flush = [&] {
      for (size_t b = 0; b < kWidth; ++b) {
        totals[b] += sums[b];
        sums[b] = 0.0;
      }
    };
    // A chunk the frontier skips would add +0.0: a bitwise no-op.
    size_t chunk_end = 0;
    for (const size_t r : frontier) {
      if (r >= chunk_end) {
        flush();
        chunk_end = (r / kCpiNormChunkRows + 1) * kCpiNormChunkRows;
      }
      V* __restrict xr = xs + r * stride + col;
      V* __restrict ar = acc + r * stride + col;
      for (size_t b = 0; b < kWidth; ++b) {
        const V v = static_cast<V>(static_cast<double>(xr[b]) * decay);
        xr[b] = v;
        ar[b] = accumulate[b] ? static_cast<V>(ar[b] + static_cast<double>(v))
                              : ar[b];  // a select: the loop vectorizes
        sums[b] += std::abs(static_cast<double>(v));
      }
    }
    flush();
    std::copy_n(totals, kWidth, norms.begin() + col);
  });
}

/// The dense CPI step over B columns: the destination gather
/// (Graph::GatherRow) fused with the post-pass.  Between steps the interim
/// block holds p(u) = w(u)·x(u), the product the out-CSR scatter forms for
/// source row u, so a step gathers x(v) = Σ p(u) over v's in-neighbors in
/// ascending u: the values the scatter adds into v, in the order it adds
/// them (a zero row the scatter skips adds +0.0 here, a bitwise no-op).
/// Right after gathering row v it scales, accumulates and norms it with
/// the arithmetic of ScaleAccumulateAndNorms and leaves p(v) in its place,
/// so a step needs no third n × B block and no zeroing pass.
///
/// With a WorkerTeam (Tpa::Preprocess) each thread owns one contiguous
/// range of whole kCpiNormChunkRows-row chunks, cut once by one binary
/// search per boundary over the in-CSR offsets; without one (serving) the
/// calling thread runs the whole range.  Per-chunk norms summed in chunk
/// order give ‖x(i)‖₁ the bits of the sparse head's reduction at every team
/// size.
template <typename V>
class PartitionedStep {
 public:
  /// A team-run step.  Checks, on the team, the two properties the gather
  /// relies on: one weight per source row and ascending in-CSR rows.  A
  /// step without a team trusts them (see Graph::GatherRow): the check is
  /// O(nnz), too dear per query.
  static StatusOr<PartitionedStep> Create(const Graph& graph, size_t width,
                                          WorkerTeam& team) {
    PartitionedStep step(graph, width, &team);
    TPA_RETURN_IF_ERROR(step.CheckRows());
    return step;
  }

  PartitionedStep(const Graph& graph, size_t width, WorkerTeam* team)
      : graph_(&graph),
        width_(width),
        team_(team),
        out_offsets_(graph.OutOffsets().data()),
        in_offsets_(graph.InOffsets().data()),
        in_sources_(graph.InSources().data()) {
    const la::CsrMatrixT<V>& transition = graph.TransitionT<V>();
    if (transition.value_mode() == la::CsrValueMode::kExplicit) {
      values_ = transition.values().data();
    } else if (!transition.scales().empty()) {
      scales_ = transition.scales().data();
    }
    const NodeId n = graph.num_nodes();
    const size_t chunks = CpiNormChunks(n);
    chunk_norms_.assign(chunks * width, 0.0);
    const size_t parts = std::min<size_t>(team == nullptr ? 1 : team->size(),
                                          std::max<size_t>(chunks, 1));
    // Cost of the rows before chunk k: their in-edges plus the rows.
    const auto cost_before = [&](size_t k) {
      const NodeId v = static_cast<NodeId>(
          std::min<size_t>(k * kCpiNormChunkRows, n));
      return in_offsets_[v] + v;
    };
    const double total = static_cast<double>(cost_before(chunks));
    bounds_.assign(parts + 1, n);
    bounds_[0] = 0;
    for (size_t t = 1; t < parts; ++t) {
      const double target =
          total * static_cast<double>(t) / static_cast<double>(parts);
      const size_t chunk = *std::ranges::partition_point(
          std::views::iota(size_t{0}, chunks + 1), [&](size_t k) {
            return static_cast<double>(cost_before(k)) < target;
          });
      bounds_[t] = static_cast<NodeId>(
          std::min<size_t>(chunk * kCpiNormChunkRows, n));
    }
  }

  /// Iteration i: x(0) is read from `x` and p(0) left in its place
  /// (i == 0), or x(i) gathered from the p(i−1) in `x` and p(i) left in
  /// `next` (i > 0).  In between, x(i) is scaled by `decay` and accumulated
  /// into `acc` in the columns marked `accumulating`.  Leaves ‖x(i)‖₁ per
  /// column in `norms`.
  void Step(int i, double decay, const std::vector<char>& accumulating, V* x,
            V* next, V* acc, std::vector<double>& norms) {
    const auto pass = [&](int t) {
      if (static_cast<size_t>(t) + 1 >= bounds_.size()) return;
      la::DispatchWidth(width_, [&]<size_t kWidth>(size_t col, auto stride) {
        if (i == 0) {
          PostPass<kWidth, false>(t, col, stride, decay, accumulating, x, x,
                                  acc);
        } else {
          PostPass<kWidth, true>(t, col, stride, decay, accumulating, x, next,
                                 acc);
        }
      });
    };
    if (team_ != nullptr) {
      team_->Run(pass);
    } else {
      pass(0);
    }
    std::fill(norms.begin(), norms.end(), 0.0);
    for (size_t k = 0; k < chunk_norms_.size(); k += width_) {
      for (size_t b = 0; b < width_; ++b) norms[b] += chunk_norms_[k + b];
    }
  }

  /// The sparse head's hand-over: turns the block x(i) on `rows` into p(i)
  /// in place.  Off the head's frontier x(i) is +0.0, and so is p(i).
  void FormProducts(std::span<const NodeId> rows, V* x) const {
    for (const NodeId u : rows) {
      const V w = Weight(u);
      for (size_t b = 0; b < width_; ++b) x[u * width_ + b] *= w;
    }
  }

 private:
  Status CheckRows() {
    const NodeId n = bounds_.back();
    std::vector<NodeId> unequal(bounds_.size(), n);
    std::vector<NodeId> unsorted(bounds_.size(), n);
    team_->Run([&](int t) {
      if (static_cast<size_t>(t) + 1 >= bounds_.size()) return;
      for (NodeId v = bounds_[t]; v < bounds_[t + 1]; ++v) {
        if (unsorted[t] == n &&
            !std::is_sorted(in_sources_ + in_offsets_[v],
                            in_sources_ + in_offsets_[v + 1])) {
          unsorted[t] = v;
        }
        if (values_ == nullptr || unequal[t] != n) continue;
        const uint64_t begin = out_offsets_[v];
        for (uint64_t e = begin + 1; e < out_offsets_[v + 1]; ++e) {
          if (values_[e] != values_[begin]) unequal[t] = v;
        }
      }
    });
    const NodeId first_unequal = std::ranges::min(unequal);
    if (first_unequal != n) {
      return InvalidArgumentError(
          "explicit row " + std::to_string(first_unequal) +
          " holds unequal values; the team-run CPI needs one weight per "
          "source node");
    }
    const NodeId first_unsorted = std::ranges::min(unsorted);
    if (first_unsorted != n) {
      return InvalidArgumentError("in-CSR row " +
                                  std::to_string(first_unsorted) +
                                  " is not in ascending source order");
    }
    return OkStatus();
  }

  /// w(u): the one weight every edge of Ã's row u carries, by the exact
  /// expression the scatter kernels read or synthesize it with.
  V Weight(NodeId u) const {
    const uint64_t begin = out_offsets_[u];
    const uint64_t end = out_offsets_[u + 1];
    if (begin == end) return V{0};  // a dangling row is nobody's in-neighbor
    if (values_ != nullptr) return values_[begin];
    if (scales_ != nullptr) return scales_[u];
    return static_cast<V>(1.0 / static_cast<double>(end - begin));
  }

  /// Thread t's rows of one column slab (see la::DispatchWidth).
  template <size_t kWidth, bool kGather, typename Stride>
  void PostPass(int t, size_t col, Stride stride, double decay,
                const std::vector<char>& accumulating, const V* x, V* out,
                V* acc) {
    char accumulate[kWidth];
    std::copy_n(accumulating.begin() + col, kWidth, accumulate);
    for (NodeId c = bounds_[t]; c < bounds_[t + 1]; c += kCpiNormChunkRows) {
      const NodeId chunk_end =
          std::min<NodeId>(c + kCpiNormChunkRows, bounds_[t + 1]);
      double sums[kWidth] = {};
      for (NodeId v = c; v < chunk_end; ++v) {
        V y[kWidth] = {};
        if constexpr (kGather) {
          graph_->GatherRow<kWidth>(v, x + col, stride, y);
        } else {
          std::copy_n(x + v * stride + col, kWidth, y);
        }
        const V w = Weight(v);
        V* __restrict ar = acc + v * stride + col;
        V* pr = out + v * stride + col;
        for (size_t b = 0; b < kWidth; ++b) {
          const V scaled = static_cast<V>(static_cast<double>(y[b]) * decay);
          ar[b] = accumulate[b]
                      ? static_cast<V>(ar[b] + static_cast<double>(scaled))
                      : ar[b];
          sums[b] += std::abs(static_cast<double>(scaled));
          pr[b] = w * scaled;
        }
      }
      std::copy_n(sums, kWidth,
                  &chunk_norms_[c / kCpiNormChunkRows * width_ + col]);
    }
  }

  const Graph* graph_;
  size_t width_;
  WorkerTeam* team_;  // null: the calling thread runs the one range
  const uint64_t* out_offsets_;
  const uint64_t* in_offsets_;
  const NodeId* in_sources_;
  const V* values_ = nullptr;  // kExplicit: the per-edge values
  const V* scales_ = nullptr;  // scaled kRowConstant: one weight per row
  std::vector<NodeId> bounds_;  // thread t owns [bounds_[t], bounds_[t+1])
  std::vector<double> chunk_norms_;  // chunk k, column b at k·width + b
};

/// Scans column 0 of x for its support and leaves it, sorted, in
/// `frontier`.  Bails out (returns false) once the support exceeds the
/// density limit — the run starts dense and no frontier is needed.
template <typename V>
bool ScanInitialFrontier(const la::DenseBlockT<V>& x, double limit,
                         std::vector<NodeId>& frontier) {
  frontier.clear();
  for (NodeId i = 0; i < x.rows(); ++i) {
    if (x.At(i, 0) == V{0}) continue;
    frontier.push_back(i);
    if (static_cast<double>(frontier.size()) > limit) return false;
  }
  return true;
}

/// Leaves the sorted unique seeds — the support of x(0) — in `frontier`.
void SortedUniqueSeeds(std::span<const NodeId> seeds,
                       std::vector<NodeId>& frontier) {
  frontier.assign(seeds.begin(), seeds.end());
  std::sort(frontier.begin(), frontier.end());
  frontier.erase(std::unique(frontier.begin(), frontier.end()), frontier.end());
}

/// No-op iteration observer — the batch instantiation optimizes it out.
struct NullObserver {
  bool AfterIteration(int, bool, double, std::span<const NodeId>) {
    return false;
  }
};

/// The context poll after iteration `i`: when `context` asks to stop,
/// records the abort — with the certified bound over the iterations that
/// never ran — in both `column` and the context and returns true.  Null
/// context is one untaken branch.
template <typename V>
bool AbortAfterIteration(QueryContext* context, int i,
                         const CpiOptions& options, Cpi::ResultT<V>& column) {
  if (context == nullptr || i < context->min_iterations) return false;
  const StatusCode code = context->AbortNow();
  if (code == StatusCode::kOk) return false;
  const double bound = CpiRemainingMassBound<V>(
      column.last_interim_norm, options.restart_probability,
      options.tolerance, i, options.terminal_iteration);
  column.abort_code = code;
  column.remaining_mass_bound = bound;
  context->aborted = true;
  context->abort_code = code;
  context->aborted_at_iteration = i;
  context->error_bound = bound;
  return true;
}

/// The CPI loop (paper Algorithm 1) over B columns at once, sharing one
/// propagation sweep per iteration.  Preconditions: options validated; the
/// tier-V block x of the workspace holds x(0) (n × B, B = columns.size());
/// `acc` is a zeroed n × B row-major accumulator; when `sparse`,
/// ws.frontier holds the sorted union support of x(0); `contexts` is empty
/// or aligned with the columns (null entries allowed).
///
/// The first iterations run sparse, scattering from the union frontier
/// (CsrMatrixT::SpMmTransposeFrontier), until it holds more than the
/// density threshold's share of the rows; the tail runs the dense step
/// (`dense`, or a team-less one built here).  Column b stops accumulating
/// — and its ResultT fields freeze — at the first iteration where its
/// interim norm drops below ε, its context aborts, or (column 0 of a
/// width-1 run) the observer asks to stop; the frozen column keeps riding
/// the shared sweep (cheaper than compacting the block), so its
/// accumulator is bitwise the width-1 run of that column alone.  Per
/// column, convergence outranks the observer's stop, which outranks the
/// abort: a run stopped by its own tolerance is a complete answer even if
/// the deadline also just passed.
///
/// `observer.AfterIteration(i, sparse, norm, frontier)` runs once per
/// iteration, after the accumulation, with column 0's interim norm (when
/// `sparse`, `frontier` holds x(i)'s sorted union support); returning true
/// stops the run — the bound-driven top-k path's early termination.
template <typename V, typename Observer>
void RunLoop(const Graph& graph, const CpiOptions& options, Cpi::Workspace& ws,
             bool sparse, V* acc, std::span<Cpi::ResultT<V>> columns,
             Observer&& observer,
             std::span<QueryContext* const> contexts = {},
             PartitionedStep<V>* dense = nullptr) {
  const NodeId n = graph.num_nodes();
  const size_t width = columns.size();
  const double decay = 1.0 - options.restart_probability;
  const double limit =
      options.frontier_density_threshold * static_cast<double>(n);
  la::DenseBlockT<V>& x = WsBlockX<V>(ws);
  la::DenseBlockT<V>& next = WsBlockNext<V>(ws);
  std::optional<PartitionedStep<V>> serial;
  if (dense == nullptr) dense = &serial.emplace(graph, width, nullptr);

  if (sparse && static_cast<double>(ws.frontier.size()) > limit) {
    sparse = false;
  }
  next.Resize(n, width);
  if (sparse) next.SetZero();  // the recycled buffer starts fully zeroed
  ws.next_frontier.clear();

  std::vector<char> active(width, 1);
  size_t remaining = width;
  std::vector<char> accumulating(width, 0);
  std::vector<double> norms(width);
  for (int i = 0;; ++i) {
    const double step = i == 0 ? 1.0 : decay;
    if (i >= options.start_iteration) accumulating = active;
    // Propagation-site failpoint (no-op unless TPA_FAILPOINTS=ON): a delay
    // armed here makes a deadline expire mid-query deterministically.
    if (i > 0) TPA_FAILPOINT_HIT("cpi.iteration");
    if (sparse && i > 0 && static_cast<double>(ws.frontier.size()) > limit) {
      // The frontier outgrew the head (the kernel's own fall-through test,
      // so it is never taken): the run is dense from here on, and the
      // gather reads p(i−1).
      sparse = false;
      dense->FormProducts(ws.frontier, x.RowPtr(0));
    }
    if (sparse) {
      if (i > 0) {
        // Re-zero the stale support of the recycled buffer (the interim
        // block from two iterations ago), then scatter from the frontier.
        for (NodeId j : ws.next_frontier) {
          V* row = next.RowPtr(j);
          std::fill(row, row + width, V{0});
        }
        graph.TransitionT<V>().SpMmTransposeFrontier(
            x, ws.frontier, options.frontier_density_threshold, next,
            ws.next_frontier, ws.scratch);
        x.swap(next);
        ws.frontier.swap(ws.next_frontier);
      }
      ScaleAccumulateAndNorms<V>(step, ws.frontier, accumulating, x, acc,
                                 norms);
    } else {
      dense->Step(i, step, accumulating, x.RowPtr(0), next.RowPtr(0), acc,
                  norms);
      if (i > 0) x.swap(next);
    }
    const bool stop = observer.AfterIteration(i, sparse, norms[0], ws.frontier);
    for (size_t b = 0; b < width; ++b) {
      if (!active[b]) continue;
      Cpi::ResultT<V>& column = columns[b];
      QueryContext* context = contexts.empty() ? nullptr : contexts[b];
      column.last_iteration = i;
      column.last_interim_norm = norms[b];
      if (norms[b] < options.tolerance) {
        column.converged = true;
      } else if (!stop && !AbortAfterIteration(context, i, options, column)) {
        continue;
      }
      active[b] = 0;
      --remaining;
    }
    if (remaining == 0 || i >= options.terminal_iteration) break;
  }
}

/// Builds x(0) = c·q for a uniform seed set in column 0 of a width-1 block
/// — q[s] += share per seed, then the support scaled by c, bitwise what
/// materializing q and Scale(c, ·) gives (off-support entries are exact
/// +0.0 and 0·c is a bitwise no-op).  Leaves the sorted unique support in
/// ws.frontier.
template <typename V>
void BuildSeedStart(const Graph& graph, const std::vector<NodeId>& seeds,
                    const CpiOptions& options, Cpi::Workspace& ws) {
  la::DenseBlockT<V>& x = WsBlockX<V>(ws);
  x.Resize(graph.num_nodes(), 1);
  x.SetZero();
  const double share = 1.0 / static_cast<double>(seeds.size());
  for (NodeId s : seeds) x.At(s, 0) += share;
  SortedUniqueSeeds(seeds, ws.frontier);
  const double c = options.restart_probability;
  for (NodeId i : ws.frontier) x.At(i, 0) *= c;
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
  /// `scores` is the run's accumulator, read at each certification scan.
  TopKTracker(const Graph& graph, const CpiOptions& options,
              const Cpi::TopKRunOptions& topk, const Cpi::TopKBaseT<V>& base,
              const std::vector<V>& scores)
      : scores_(scores),
        n_(graph.num_nodes()),
        k_(std::min(static_cast<size_t>(topk.k), static_cast<size_t>(n_))),
        allow_early_(topk.allow_early_termination),
        decay_(1.0 - options.restart_probability),
        tolerance_(options.tolerance),
        terminal_(options.terminal_iteration),
        base_(base) {}

  bool AfterIteration(int i, bool sparse, double norm,
                      std::span<const NodeId> frontier) {
    if (support_known_) {
      if (sparse) {
        MergeTouched(frontier);
      } else {
        support_known_ = false;  // dense tail: support no longer enumerated
      }
    }
    if (!allow_early_ || k_ == 0) return false;
    if (norm < tolerance_) return false;  // converging naturally anyway
    const double slack = Slack(norm, i);
    if (slack >= scan_gate_) return false;
    SelectCandidates();
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
    if (!certified_) SelectCandidates();
    const auto held = selector_.entries();
    const size_t take = std::min(k_, held.size());
    out.top.assign(held.begin(), held.begin() + take);
    return out;
  }

 private:
  /// Most any node's merged score can still gain after iteration i with
  /// interim norm `norm`: the geometric tail over the iterations the window
  /// can still accumulate, through the merge's post-scale, plus
  /// kCpiRoundingSlop<V> covering the merge's own rounding.
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
    return base_.post_scale * la::GeometricTailMass(norm, decay_, left) +
           kCpiRoundingSlop<V>;
  }

  /// Merged value of a touched node — matches la::Scale(post_scale, ·) then
  /// la::Axpy(1.0, base, ·) bitwise: each product and sum computed in fp64,
  /// rounded to V once per step.
  double Merged(NodeId v) const {
    const V scaled =
        static_cast<V>(base_.post_scale * static_cast<double>(scores_[v]));
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
  void SelectCandidates() {
    selector_.Reset(k_ + 1);
    if (!support_known_) {
      for (NodeId v = 0; v < n_; ++v) selector_.Offer(v, Merged(v));
      return;
    }
    for (NodeId v : touched_) selector_.Offer(v, Merged(v));
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

  const std::vector<V>& scores_;
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

template <typename V>
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
  return la::GeometricTailMass(last_interim_norm, decay, left) +
         kCpiRoundingSlop<V>;
}

template double CpiRemainingMassBound<double>(double, double, double, int,
                                              int);
template double CpiRemainingMassBound<float>(double, double, double, int,
                                             int);

template <typename V>
StatusOr<Cpi::ResultT<V>> Cpi::RunT(const Graph& graph,
                                    const std::vector<NodeId>& seeds,
                                    const CpiOptions& options,
                                    Workspace* workspace,
                                    QueryContext* context) {
  TPA_RETURN_IF_ERROR(ValidateOptions(options));
  TPA_RETURN_IF_ERROR(ValidateSeeds(graph, seeds, "seed set"));
  Workspace local;
  Workspace& ws = workspace != nullptr ? *workspace : local;
  BuildSeedStart<V>(graph, seeds, options, ws);
  ResultT<V> result;
  result.scores.assign(graph.num_nodes(), V{0});
  const bool sparse = options.frontier_density_threshold > 0.0;
  RunLoop<V>(graph, options, ws, sparse, result.scores.data(), {&result, 1},
             NullObserver{}, {&context, 1});
  return result;
}

template <typename V>
StatusOr<Cpi::ResultT<V>> Cpi::RunWithSeedVectorT(const Graph& graph,
                                                  const std::vector<V>& q,
                                                  const CpiOptions& options,
                                                  Workspace* workspace,
                                                  WorkerTeam* team) {
  TPA_RETURN_IF_ERROR(ValidateOptions(options));
  const NodeId n = graph.num_nodes();
  if (q.size() != n) {
    return InvalidArgumentError("seed vector size must equal node count");
  }
  // A NaN entry would keep ‖x‖₁ from ever dropping below ε, and a negative
  // one would void the substochastic bounds the loop certifies.
  for (V v : q) {
    if (!(std::isfinite(v) && v >= V{0})) {
      return InvalidArgumentError(
          "seed vector entries must be finite and non-negative");
    }
  }
  Workspace local;
  Workspace& ws = workspace != nullptr ? *workspace : local;
  la::DenseBlockT<V>& x = WsBlockX<V>(ws);
  x.Resize(n, 1);
  for (NodeId i = 0; i < n; ++i) {
    x.At(i, 0) =
        static_cast<V>(static_cast<double>(q[i]) * options.restart_probability);
  }
  std::optional<PartitionedStep<V>> partitioned;
  if (team != nullptr) {
    TPA_ASSIGN_OR_RETURN(partitioned,
                         PartitionedStep<V>::Create(graph, 1, *team));
  }
  const bool sparse =
      !partitioned && options.frontier_density_threshold > 0.0 &&
      ScanInitialFrontier(
          x, options.frontier_density_threshold * static_cast<double>(n),
          ws.frontier);
  ResultT<V> result;
  result.scores.assign(n, V{0});
  RunLoop<V>(graph, options, ws, sparse, result.scores.data(), {&result, 1},
             NullObserver{}, {}, partitioned ? &*partitioned : nullptr);
  return result;
}

template <typename V>
StatusOr<la::DenseBlockT<V>> Cpi::RunBatchT(
    const Graph& graph, std::span<const NodeId> seeds,
    const CpiOptions& options, Workspace* workspace,
    std::span<QueryContext* const> contexts) {
  TPA_RETURN_IF_ERROR(ValidateOptions(options));
  TPA_RETURN_IF_ERROR(ValidateSeeds(graph, seeds, "seed batch"));
  if (!contexts.empty() && contexts.size() != seeds.size()) {
    return InvalidArgumentError(
        "contexts must be empty or align with the seed batch");
  }
  Workspace local;
  Workspace& ws = workspace != nullptr ? *workspace : local;

  // x(0) = c·e_s per column; 1.0·c == c bitwise, matching RunT's
  // q[s] = 1.0 followed by Scale(c, ·).
  const NodeId n = graph.num_nodes();
  const size_t num_vectors = seeds.size();
  la::DenseBlockT<V>& x = WsBlockX<V>(ws);
  x.Resize(n, num_vectors);
  x.SetZero();
  for (size_t b = 0; b < num_vectors; ++b) {
    x.At(seeds[b], b) = static_cast<V>(options.restart_probability);
  }
  SortedUniqueSeeds(seeds, ws.frontier);

  la::DenseBlockT<V> acc(n, num_vectors);
  std::vector<ResultT<V>> columns(num_vectors);
  RunLoop<V>(graph, options, ws, options.frontier_density_threshold > 0.0,
             acc.RowPtr(0), columns, NullObserver{}, contexts);
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
  TPA_RETURN_IF_ERROR(ValidateSeeds(graph, seeds, "seed set"));
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
  ResultT<V> result;
  result.scores.assign(graph.num_nodes(), V{0});
  TopKTracker<V> tracker(graph, options, topk, base, result.scores);
  const bool sparse = options.frontier_density_threshold > 0.0;
  RunLoop<V>(graph, options, ws, sparse, result.scores.data(), {&result, 1},
             tracker, {&context, 1});
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
    const Graph&, const std::vector<double>&, const CpiOptions&, Workspace*,
    WorkerTeam*);
template StatusOr<Cpi::ResultT<float>> Cpi::RunWithSeedVectorT<float>(
    const Graph&, const std::vector<float>&, const CpiOptions&, Workspace*,
    WorkerTeam*);
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
