#include "core/cpi.h"

#include <gtest/gtest.h>

#include "util/check.h"

#include <atomic>
#include <cmath>
#include <limits>
#include <string>

#include "graph/builder.h"
#include "graph/generators.h"
#include "la/vector_ops.h"

namespace tpa {
namespace {

Graph TestGraph() {
  DcsbmOptions options;
  options.nodes = 300;
  options.edges = 2400;
  options.blocks = 4;
  options.seed = 5;
  auto graph = GenerateDcsbm(options);
  TPA_CHECK(graph.ok());
  return std::move(graph).value();
}

TEST(CpiTest, ScoresSumToOneAtConvergence) {
  Graph graph = TestGraph();
  auto result = Cpi::Run(graph, {0}, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  // Σ‖x(i)‖₁ = Σ c(1-c)^i = 1 up to the truncated tail (≤ ε/c iterations).
  EXPECT_NEAR(la::NormL1(result->scores), 1.0, 1e-7);
}

TEST(CpiTest, SatisfiesFixedPointEquation) {
  // Theorem 1: r = (1-c)Ã^T r + c q.
  Graph graph = TestGraph();
  CpiOptions options;
  options.tolerance = 1e-12;
  auto result = Cpi::Run(graph, {17}, options);
  ASSERT_TRUE(result.ok());
  const auto& r = result->scores;

  std::vector<double> rhs;
  graph.MultiplyTranspose(r, rhs);
  la::Scale(1.0 - options.restart_probability, rhs);
  rhs[17] += options.restart_probability;
  EXPECT_LT(la::L1Distance(r, rhs), 1e-9);
}

TEST(CpiTest, InterimNormMatchesClosedForm) {
  // ‖x(i)‖₁ = c(1-c)^i on a stochastic graph (proof of Lemma 2).
  Graph graph = TestGraph();
  CpiOptions options;
  options.terminal_iteration = 10;
  auto result = Cpi::Run(graph, {3}, options);
  ASSERT_TRUE(result.ok());
  const double c = options.restart_probability;
  EXPECT_NEAR(result->last_interim_norm, c * std::pow(1.0 - c, 10), 1e-12);
}

TEST(CpiTest, WindowsPartitionTheFullSum) {
  // family + neighbor + stranger = full CPI result, exactly.
  Graph graph = TestGraph();
  std::vector<double> q(graph.num_nodes(), 0.0);
  q[42] = 1.0;

  CpiOptions options;
  options.tolerance = 1e-12;
  auto windows = Cpi::RunWindowed(graph, q, {0, 5, 10}, options);
  ASSERT_TRUE(windows.ok());
  ASSERT_EQ(windows->size(), 3u);

  auto full = Cpi::RunWithSeedVector(graph, q, options);
  ASSERT_TRUE(full.ok());

  std::vector<double> sum = (*windows)[0];
  la::Axpy(1.0, (*windows)[1], sum);
  la::Axpy(1.0, (*windows)[2], sum);
  EXPECT_LT(la::L1Distance(sum, full->scores), 1e-12);
}

TEST(CpiTest, WindowNormsMatchLemma2) {
  Graph graph = TestGraph();
  std::vector<double> q(graph.num_nodes(), 0.0);
  q[7] = 1.0;
  const int s = 5, t = 10;
  CpiOptions options;
  options.tolerance = 1e-12;
  auto windows = Cpi::RunWindowed(graph, q, {0, s, t}, options);
  ASSERT_TRUE(windows.ok());
  const double c = options.restart_probability;
  const double decay = 1.0 - c;
  EXPECT_NEAR(la::NormL1((*windows)[0]), 1.0 - std::pow(decay, s), 1e-9);
  EXPECT_NEAR(la::NormL1((*windows)[1]),
              std::pow(decay, s) - std::pow(decay, t), 1e-9);
  EXPECT_NEAR(la::NormL1((*windows)[2]), std::pow(decay, t), 1e-7);
}

TEST(CpiTest, PartialWindowMatchesManualSum) {
  // CPI(siter=2, titer=4) == x(2)+x(3)+x(4).
  Graph graph = TestGraph();
  std::vector<double> q(graph.num_nodes(), 0.0);
  q[0] = 1.0;
  CpiOptions window;
  window.start_iteration = 2;
  window.terminal_iteration = 4;
  auto part = Cpi::RunWithSeedVector(graph, q, window);
  ASSERT_TRUE(part.ok());

  // Manually: run single-iteration windows and add.
  std::vector<double> manual(graph.num_nodes(), 0.0);
  for (int i = 2; i <= 4; ++i) {
    CpiOptions one;
    one.start_iteration = i;
    one.terminal_iteration = i;
    auto x = Cpi::RunWithSeedVector(graph, q, one);
    ASSERT_TRUE(x.ok());
    la::Axpy(1.0, x->scores, manual);
  }
  EXPECT_LT(la::L1Distance(part->scores, manual), 1e-14);
}

TEST(CpiTest, PageRankIsSeedIndependentUniformRestart) {
  Graph graph = TestGraph();
  CpiOptions options;
  auto pagerank = Cpi::PageRank(graph, options);
  ASSERT_TRUE(pagerank.ok());
  EXPECT_NEAR(la::NormL1(*pagerank), 1.0, 1e-7);
  // PageRank must differ from any single-seed RWR on a non-trivial graph.
  auto rwr = Cpi::ExactRwr(graph, 0, options);
  ASSERT_TRUE(rwr.ok());
  EXPECT_GT(la::L1Distance(*pagerank, *rwr), 0.1);
}

TEST(CpiTest, MultiSeedDistributesUniformly) {
  Graph graph = TestGraph();
  auto multi = Cpi::Run(graph, {1, 2}, {});
  ASSERT_TRUE(multi.ok());
  auto a = Cpi::ExactRwr(graph, 1, {});
  auto b = Cpi::ExactRwr(graph, 2, {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Linearity: RWR({1,2}) = (RWR(1) + RWR(2)) / 2.
  std::vector<double> avg(graph.num_nodes(), 0.0);
  la::Axpy(0.5, *a, avg);
  la::Axpy(0.5, *b, avg);
  EXPECT_LT(la::L1Distance(multi->scores, avg), 1e-7);
}

TEST(CpiTest, IterationCountFormula) {
  // Lemma 4: iterations ≈ log_{1-c}(ε/c).
  const int iters = CpiIterationCount(0.15, 1e-9);
  EXPECT_GT(iters, 100);
  EXPECT_LT(iters, 130);
  Graph graph = TestGraph();
  auto result = Cpi::Run(graph, {0}, {});
  ASSERT_TRUE(result.ok());
  EXPECT_LE(std::abs(result->last_iteration - iters), 1);
}

TEST(CpiTest, ValidatesArguments) {
  Graph graph = TestGraph();
  EXPECT_FALSE(Cpi::Run(graph, {}, {}).ok());
  EXPECT_FALSE(Cpi::Run(graph, {graph.num_nodes()}, {}).ok());

  CpiOptions bad_c;
  bad_c.restart_probability = 1.5;
  EXPECT_FALSE(Cpi::Run(graph, {0}, bad_c).ok());

  CpiOptions bad_window;
  bad_window.start_iteration = 5;
  bad_window.terminal_iteration = 3;
  EXPECT_FALSE(Cpi::Run(graph, {0}, bad_window).ok());

  std::vector<double> wrong_size(graph.num_nodes() + 1, 0.0);
  EXPECT_FALSE(Cpi::RunWithSeedVector(graph, wrong_size, {}).ok());

  std::vector<double> q(graph.num_nodes(), 0.0);
  EXPECT_FALSE(Cpi::RunWindowed(graph, q, {1, 5}, {}).ok());   // must start 0
  EXPECT_FALSE(Cpi::RunWindowed(graph, q, {0, 5, 5}, {}).ok()); // increasing

  CpiOptions bad_threshold;
  bad_threshold.frontier_density_threshold = 1.5;
  EXPECT_FALSE(Cpi::Run(graph, {0}, bad_threshold).ok());
  bad_threshold.frontier_density_threshold = -0.1;
  EXPECT_FALSE(Cpi::RunWindowed(graph, q, {0, 5}, bad_threshold).ok());

  // Seed vector entries must be finite and non-negative: with a NaN entry
  // ‖x‖₁ is NaN, `norm < ε` never holds, and the run would spin to
  // terminal_iteration before returning NaN scores.
  CpiOptions long_run;
  long_run.terminal_iteration = 2'000'000;
  const Graph graph_f =
      RematerializeWithPrecision(graph, la::Precision::kFloat32);
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(), -0.5}) {
    std::vector<double> poisoned(graph.num_nodes(), 0.0);
    poisoned[0] = 1.0;
    poisoned[7] = bad;
    auto run = Cpi::RunWithSeedVector(graph, poisoned, long_run);
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument) << bad;
    auto windows = Cpi::RunWindowed(graph, poisoned, {0, 5}, {});
    EXPECT_EQ(windows.status().code(), StatusCode::kInvalidArgument) << bad;
    const std::vector<float> poisoned_f = la::ConvertVector<float>(poisoned);
    auto run_f = Cpi::RunWithSeedVectorT<float>(graph_f, poisoned_f, long_run);
    EXPECT_EQ(run_f.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

void ExpectResultBitwiseEq(const Cpi::Result& got, const Cpi::Result& expected,
                           const std::string& label) {
  EXPECT_EQ(got.last_iteration, expected.last_iteration) << label;
  EXPECT_EQ(got.converged, expected.converged) << label;
  EXPECT_EQ(got.last_interim_norm, expected.last_interim_norm) << label;
  ASSERT_EQ(got.scores.size(), expected.scores.size()) << label;
  for (size_t i = 0; i < expected.scores.size(); ++i) {
    ASSERT_EQ(got.scores[i], expected.scores[i]) << label << " node " << i;
  }
}

/// ExpectResultBitwiseEq plus the abort fields.
void ExpectEveryFieldBitwiseEq(const Cpi::Result& got,
                               const Cpi::Result& expected,
                               const std::string& label) {
  ExpectResultBitwiseEq(got, expected, label);
  EXPECT_EQ(got.abort_code, expected.abort_code) << label;
  EXPECT_EQ(got.remaining_mass_bound, expected.remaining_mass_bound) << label;
}

void ExpectBlockBitwiseEq(const la::DenseBlock& got,
                          const la::DenseBlock& expected,
                          const std::string& label) {
  ASSERT_EQ(got.rows(), expected.rows()) << label;
  ASSERT_EQ(got.num_vectors(), expected.num_vectors()) << label;
  for (size_t r = 0; r < expected.rows(); ++r) {
    for (size_t b = 0; b < expected.num_vectors(); ++b) {
      ASSERT_EQ(got.At(r, b), expected.At(r, b))
          << label << " row " << r << " vector " << b;
    }
  }
}

TEST(CpiAdaptiveTest, SparseHeadIsBitwiseIdenticalAtEveryThreshold) {
  // Threshold 0 = always dense, 1 = sparse to convergence; every setting in
  // between switches at a different iteration.  All must agree bitwise.
  Graph graph = TestGraph();
  CpiOptions dense_only;
  dense_only.frontier_density_threshold = 0.0;
  auto expected = Cpi::Run(graph, {7}, dense_only);
  ASSERT_TRUE(expected.ok());

  for (double threshold : {0.05, 0.125, 0.5, 1.0}) {
    CpiOptions adaptive;
    adaptive.frontier_density_threshold = threshold;
    auto result = Cpi::Run(graph, {7}, adaptive);
    ASSERT_TRUE(result.ok());
    ExpectResultBitwiseEq(*result, *expected,
                          "threshold " + std::to_string(threshold));
  }
}

TEST(CpiAdaptiveTest, MultiSeedAndWindowedAgreeAcrossThresholds) {
  Graph graph = TestGraph();
  CpiOptions dense_only;
  dense_only.frontier_density_threshold = 0.0;
  CpiOptions sparse_head;
  sparse_head.frontier_density_threshold = 1.0;

  auto dense_multi = Cpi::Run(graph, {3, 42, 42, 199}, dense_only);
  auto sparse_multi = Cpi::Run(graph, {3, 42, 42, 199}, sparse_head);
  ASSERT_TRUE(dense_multi.ok());
  ASSERT_TRUE(sparse_multi.ok());
  ExpectResultBitwiseEq(*sparse_multi, *dense_multi, "multi-seed");

  std::vector<double> q(graph.num_nodes(), 0.0);
  q[11] = 0.75;
  q[250] = 0.25;
  auto dense_windows = Cpi::RunWindowed(graph, q, {0, 5, 10}, dense_only);
  auto sparse_windows = Cpi::RunWindowed(graph, q, {0, 5, 10}, sparse_head);
  ASSERT_TRUE(dense_windows.ok());
  ASSERT_TRUE(sparse_windows.ok());
  ASSERT_EQ(sparse_windows->size(), dense_windows->size());
  for (size_t w = 0; w < dense_windows->size(); ++w) {
    for (size_t i = 0; i < (*dense_windows)[w].size(); ++i) {
      ASSERT_EQ((*sparse_windows)[w][i], (*dense_windows)[w][i])
          << "window " << w << " node " << i;
    }
  }
}

TEST(CpiAdaptiveTest, ReusedWorkspaceIsBitwiseStable) {
  // One workspace across a mixed sequence of queries must leave no residue:
  // every result matches a fresh-workspace run bitwise.
  Graph graph = TestGraph();
  Cpi::Workspace workspace;

  CpiOptions family_window;
  family_window.terminal_iteration = 4;

  const std::vector<std::vector<NodeId>> queries = {
      {0}, {299}, {5, 17}, {0}, {123}};
  for (const auto& seeds : queries) {
    auto reused = Cpi::Run(graph, seeds, family_window, &workspace);
    auto fresh = Cpi::Run(graph, seeds, family_window);
    ASSERT_TRUE(reused.ok());
    ASSERT_TRUE(fresh.ok());
    ExpectResultBitwiseEq(*reused, *fresh,
                          "seed " + std::to_string(seeds[0]));
  }

  // Interleave an unbounded run and a windowed run through the same
  // workspace; both must still match fresh runs.
  auto reused_full = Cpi::Run(graph, {42}, {}, &workspace);
  auto fresh_full = Cpi::Run(graph, {42}, {});
  ASSERT_TRUE(reused_full.ok());
  ASSERT_TRUE(fresh_full.ok());
  ExpectResultBitwiseEq(*reused_full, *fresh_full, "unbounded");

  std::vector<double> q(graph.num_nodes(), 0.0);
  q[9] = 1.0;
  auto reused_win = Cpi::RunWindowed(graph, q, {0, 5}, {}, &workspace);
  auto fresh_win = Cpi::RunWindowed(graph, q, {0, 5}, {});
  ASSERT_TRUE(reused_win.ok());
  ASSERT_TRUE(fresh_win.ok());
  for (size_t w = 0; w < fresh_win->size(); ++w) {
    for (size_t i = 0; i < (*fresh_win)[w].size(); ++i) {
      ASSERT_EQ((*reused_win)[w][i], (*fresh_win)[w][i])
          << "window " << w << " node " << i;
    }
  }

  // Single-seed and batched calls share the workspace's block buffers (Tpa's
  // WorkspacePool mixes them in production): a width-16 batch, then a
  // width-1 call of every kind, then a width-3 batch — each bitwise a
  // fresh-workspace call, every result field included.
  std::vector<NodeId> wide;
  for (NodeId i = 0; i < 16; ++i) wide.push_back((i * 37 + 2) % 300);
  auto reused_16 = Cpi::RunBatch(graph, wide, {}, &workspace);
  auto fresh_16 = Cpi::RunBatch(graph, wide, {});
  ASSERT_TRUE(reused_16.ok());
  ASSERT_TRUE(fresh_16.ok());
  ExpectBlockBitwiseEq(*reused_16, *fresh_16, "width-16 batch");

  // An aborted run sets abort_code and remaining_mass_bound too.
  std::atomic<bool> cancelled{true};
  QueryContext reused_context;
  reused_context.cancel = &cancelled;
  reused_context.min_iterations = 3;
  QueryContext fresh_context = reused_context;
  auto reused_abort = Cpi::Run(graph, {77}, {}, &workspace, &reused_context);
  auto fresh_abort = Cpi::Run(graph, {77}, {}, nullptr, &fresh_context);
  ASSERT_TRUE(reused_abort.ok());
  ASSERT_TRUE(fresh_abort.ok());
  EXPECT_EQ(reused_abort->abort_code, StatusCode::kCancelled);
  EXPECT_GT(reused_abort->remaining_mass_bound, 0.0);
  ExpectEveryFieldBitwiseEq(*reused_abort, *fresh_abort, "aborted run");
  auto reused_run = Cpi::Run(graph, {77}, family_window, &workspace);
  auto fresh_run = Cpi::Run(graph, {77}, family_window);
  ASSERT_TRUE(reused_run.ok());
  ASSERT_TRUE(fresh_run.ok());
  ExpectEveryFieldBitwiseEq(*reused_run, *fresh_run, "run after batch");

  Cpi::TopKRunOptions topk;
  topk.k = 10;
  auto reused_k = Cpi::RunTopKT<double>(graph, {5}, {}, topk, {}, &workspace);
  auto fresh_k = Cpi::RunTopKT<double>(graph, {5}, {}, topk);
  ASSERT_TRUE(reused_k.ok());
  ASSERT_TRUE(fresh_k.ok());
  EXPECT_EQ(reused_k->last_iteration, fresh_k->last_iteration);
  EXPECT_EQ(reused_k->converged, fresh_k->converged);
  EXPECT_EQ(reused_k->early_terminated, fresh_k->early_terminated);
  ASSERT_EQ(reused_k->top.size(), fresh_k->top.size());
  for (size_t i = 0; i < fresh_k->top.size(); ++i) {
    EXPECT_EQ(reused_k->top[i].node, fresh_k->top[i].node) << i;
    EXPECT_EQ(reused_k->top[i].score, fresh_k->top[i].score) << i;
  }

  std::vector<double> spread(graph.num_nodes(), 0.0);
  spread[13] = 0.5;
  spread[200] = 0.5;
  auto reused_q = Cpi::RunWithSeedVector(graph, spread, {}, &workspace);
  auto fresh_q = Cpi::RunWithSeedVector(graph, spread, {});
  ASSERT_TRUE(reused_q.ok());
  ASSERT_TRUE(fresh_q.ok());
  ExpectEveryFieldBitwiseEq(*reused_q, *fresh_q, "seed vector");

  const std::vector<NodeId> narrow = {250, 3, 250};
  auto reused_3 = Cpi::RunBatch(graph, narrow, {}, &workspace);
  auto fresh_3 = Cpi::RunBatch(graph, narrow, {});
  ASSERT_TRUE(reused_3.ok());
  ASSERT_TRUE(fresh_3.ok());
  ExpectBlockBitwiseEq(*reused_3, *fresh_3, "width-3 batch");
}

// ---------------------------------------------------------------------------
// Cooperative aborts: a context-stopped run is not "roughly" the prefix of
// the computation — it is *exactly* the run a fresh terminal_iteration
// bound would have produced, and its certified bound really covers the
// truncated tail.  Both properties hold in every build (no failpoints
// involved).

/// A context that aborts (kCancelled) at the first poll after
/// `min_iterations` — the pre-set cancel flag makes the abort land at a
/// deterministic iteration.
struct AbortPlan {
  std::atomic<bool> cancel{true};
  QueryContext context;
  explicit AbortPlan(int at_iteration) {
    context.cancel = &cancel;
    context.min_iterations = at_iteration;
  }
};

TEST(CpiAbortTest, AbortedIterateIsBitwiseTheFreshTerminalRun) {
  Graph graph = TestGraph();
  CpiOptions options;
  options.tolerance = 1e-12;

  for (int i : {0, 1, 3, 7}) {
    AbortPlan plan(i);
    auto aborted = Cpi::Run(graph, {11}, options, nullptr, &plan.context);
    ASSERT_TRUE(aborted.ok());
    EXPECT_EQ(aborted->abort_code, StatusCode::kCancelled);
    EXPECT_FALSE(aborted->converged);
    EXPECT_TRUE(plan.context.aborted);
    EXPECT_EQ(plan.context.abort_code, StatusCode::kCancelled);
    EXPECT_EQ(plan.context.aborted_at_iteration, i);

    CpiOptions fresh = options;
    fresh.terminal_iteration = i;
    auto reference = Cpi::Run(graph, {11}, fresh);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(aborted->last_iteration, reference->last_iteration);
    EXPECT_EQ(aborted->last_interim_norm, reference->last_interim_norm);
    ASSERT_EQ(aborted->scores.size(), reference->scores.size());
    for (size_t j = 0; j < reference->scores.size(); ++j) {
      ASSERT_EQ(aborted->scores[j], reference->scores[j])
          << "iteration " << i << " node " << j;
    }
  }
}

TEST(CpiAbortTest, ErrorBoundCoversTrueGapToConvergedOracle) {
  Graph graph = TestGraph();
  CpiOptions options;
  options.tolerance = 1e-10;
  auto oracle = Cpi::Run(graph, {42}, options);
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(oracle->converged);

  for (int i : {0, 2, 5, 10}) {
    AbortPlan plan(i);
    auto aborted = Cpi::Run(graph, {42}, options, nullptr, &plan.context);
    ASSERT_TRUE(aborted.ok());
    ASSERT_EQ(aborted->abort_code, StatusCode::kCancelled);
    const double gap = la::L1Distance(aborted->scores, oracle->scores);
    EXPECT_GT(aborted->remaining_mass_bound, 0.0);
    EXPECT_LE(gap, aborted->remaining_mass_bound)
        << "bound does not cover the truncated tail at iteration " << i;
    EXPECT_EQ(aborted->remaining_mass_bound, plan.context.error_bound);
    // The bound stays honest, not vacuous: geometric, so within a decay
    // factor of the mass actually left on the table.
    EXPECT_LT(aborted->remaining_mass_bound, 1.0);
  }
}

TEST(CpiAbortTest, BatchAbortMatchesScalarAbortBitwise) {
  Graph graph = TestGraph();
  CpiOptions options;
  options.tolerance = 1e-12;
  const std::vector<NodeId> seeds = {7, 23, 99, 150};

  // Seeds 1 and 3 abort at different iterations; 0 and 2 run to
  // convergence inside the same shared-SpMM batch.
  AbortPlan plan1(2);
  AbortPlan plan3(5);
  const std::vector<QueryContext*> contexts = {nullptr, &plan1.context,
                                               nullptr, &plan3.context};
  auto block = Cpi::RunBatch(graph, seeds, options, nullptr, contexts);
  ASSERT_TRUE(block.ok());
  EXPECT_TRUE(plan1.context.aborted);
  EXPECT_EQ(plan1.context.aborted_at_iteration, 2);
  EXPECT_TRUE(plan3.context.aborted);
  EXPECT_EQ(plan3.context.aborted_at_iteration, 5);

  for (size_t b = 0; b < seeds.size(); ++b) {
    AbortPlan scalar_plan(b == 1 ? 2 : 5);
    QueryContext* scalar_context =
        (b == 1 || b == 3) ? &scalar_plan.context : nullptr;
    auto scalar =
        Cpi::Run(graph, {seeds[b]}, options, nullptr, scalar_context);
    ASSERT_TRUE(scalar.ok());
    for (NodeId r = 0; r < graph.num_nodes(); ++r) {
      ASSERT_EQ(block->At(r, b), scalar->scores[r])
          << "seed " << seeds[b] << " node " << r;
    }
  }
  // The batch records per-seed bounds identical to the scalar runs'.
  AbortPlan scalar1(2);
  auto scalar = Cpi::Run(graph, {seeds[1]}, options, nullptr,
                         &scalar1.context);
  ASSERT_TRUE(scalar.ok());
  EXPECT_EQ(plan1.context.error_bound, scalar1.context.error_bound);
}

TEST(CpiAbortTest, ConvergenceOutranksAbort) {
  // A pre-expired deadline on a run that converges at iteration 0 (seed
  // with tolerance above c) still yields the converged answer, unaborted.
  Graph graph = TestGraph();
  CpiOptions options;
  options.tolerance = 0.5;  // x(0) norm is c = 0.15 < 0.5: instant converge
  QueryContext context;
  context.deadline = std::chrono::steady_clock::time_point{};  // long past
  auto result = Cpi::Run(graph, {3}, options, nullptr, &context);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_EQ(result->abort_code, StatusCode::kOk);
  EXPECT_FALSE(context.aborted);
}

}  // namespace
}  // namespace tpa
