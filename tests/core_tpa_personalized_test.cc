#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/cpi.h"
#include "core/tpa.h"
#include "graph/generators.h"
#include "la/vector_ops.h"
#include "util/check.h"

namespace tpa {
namespace {

Graph CommunityGraph() {
  DcsbmOptions options;
  options.nodes = 350;
  options.edges = 3200;
  options.blocks = 7;
  options.intra_fraction = 0.9;
  options.seed = 23;
  auto graph = GenerateDcsbm(options);
  TPA_CHECK(graph.ok());
  return std::move(graph).value();
}

TEST(TpaPersonalizedTest, SingleSeedMatchesQuery) {
  Graph graph = CommunityGraph();
  auto tpa = Tpa::Preprocess(graph, {});
  ASSERT_TRUE(tpa.ok());
  auto multi = tpa->QueryPersonalized({42});
  ASSERT_TRUE(multi.ok());
  std::vector<double> single = tpa->Query(42);
  EXPECT_LT(la::L1Distance(*multi, single), 1e-12);
}

TEST(TpaPersonalizedTest, LinearInSeedSet) {
  // RWR is linear in q, and both TPA approximations preserve linearity:
  // TPA({a,b}) == (TPA(a) + TPA(b) + stranger corrections) — concretely,
  // family and neighbor parts average, the stranger part is shared, so
  // TPA({a,b}) = (TPA(a)+TPA(b))/2 + stranger/2·... verify via direct
  // algebra: (Q(a)+Q(b))/2 has one full stranger vector, as does Q({a,b}).
  Graph graph = CommunityGraph();
  auto tpa = Tpa::Preprocess(graph, {});
  ASSERT_TRUE(tpa.ok());
  auto multi = tpa->QueryPersonalized({10, 200});
  ASSERT_TRUE(multi.ok());

  std::vector<double> expected(graph.num_nodes(), 0.0);
  la::Axpy(0.5, tpa->Query(10), expected);
  la::Axpy(0.5, tpa->Query(200), expected);
  EXPECT_LT(la::L1Distance(*multi, expected), 1e-10);
}

TEST(TpaPersonalizedTest, WithinTheorem2BoundAgainstExactPpr) {
  Graph graph = CommunityGraph();
  TpaOptions options;
  options.family_window = 5;
  options.stranger_start = 10;
  auto tpa = Tpa::Preprocess(graph, options);
  ASSERT_TRUE(tpa.ok());

  const std::vector<NodeId> seeds = {3, 77, 150, 340};
  auto approx = tpa->QueryPersonalized(seeds);
  ASSERT_TRUE(approx.ok());

  CpiOptions exact_options;
  exact_options.tolerance = 1e-12;
  auto exact = Cpi::Run(graph, seeds, exact_options);
  ASSERT_TRUE(exact.ok());
  EXPECT_LE(la::L1Distance(*approx, exact->scores),
            TotalErrorBound(options.restart_probability, 5) + 1e-9);
}

TEST(TpaPersonalizedTest, MassApproximatelyOne) {
  Graph graph = CommunityGraph();
  auto tpa = Tpa::Preprocess(graph, {});
  ASSERT_TRUE(tpa.ok());
  auto scores = tpa->QueryPersonalized({1, 2, 3});
  ASSERT_TRUE(scores.ok());
  EXPECT_NEAR(la::NormL1(*scores), 1.0, 1e-6);
}

TEST(TpaPersonalizedTest, ValidatesSeeds) {
  Graph graph = CommunityGraph();
  auto tpa = Tpa::Preprocess(graph, {});
  ASSERT_TRUE(tpa.ok());
  EXPECT_FALSE(tpa->QueryPersonalized({}).ok());
  EXPECT_FALSE(tpa->QueryPersonalized({graph.num_nodes()}).ok());
}

/// A degrade-to-partial context whose preset cancel flag aborts the run
/// right after iteration `iteration`.
struct AbortAt {
  explicit AbortAt(int iteration) {
    context.cancel = &cancel;
    context.degrade_to_partial = true;
    context.min_iterations = iteration;
  }
  std::atomic<bool> cancel{true};
  QueryContext context;
};

/// Every degraded answer's error_bound must certify its L1 gap to the
/// converged query at the graph's tier, on both the per-seed and the
/// grouped path; every run that did not abort stays bitwise the query.
template <typename V>
void CheckAbortCertificates(const Graph& graph) {
  constexpr bool kF32 = std::is_same_v<V, float>;
  TpaOptions options;
  auto tpa = Tpa::Preprocess(graph, options);
  ASSERT_TRUE(tpa.ok());
  const auto converged = [&](NodeId seed) {
    if constexpr (kF32) {
      return tpa->QueryF(seed);
    } else {
      return tpa->Query(seed);
    }
  };
  const auto check = [&](NodeId seed, const QueryContext& context,
                         const std::vector<V>& answer) {
    const std::vector<V> exact = converged(seed);
    if (context.aborted) {
      EXPECT_LE(la::L1Distance(answer, exact), context.error_bound)
          << "seed " << seed << " aborted at " << context.aborted_at_iteration;
    } else {
      EXPECT_EQ(answer, exact) << "seed " << seed;
    }
  };

  std::vector<NodeId> seeds;
  for (NodeId seed = 0; seed < graph.num_nodes(); seed += 7) {
    seeds.push_back(seed);
  }
  for (int iteration = 0; iteration <= options.family_window - 2;
       ++iteration) {
    for (NodeId seed : seeds) {
      AbortAt abort(iteration);
      StatusOr<std::vector<V>> answer = [&] {
        if constexpr (kF32) {
          return tpa->QueryPersonalizedF({seed}, &abort.context);
        } else {
          return tpa->QueryPersonalized({seed}, &abort.context);
        }
      }();
      ASSERT_TRUE(answer.ok());
      EXPECT_TRUE(abort.context.aborted) << "seed " << seed;
      check(seed, abort.context, *answer);
    }
  }

  // Groups of 8 with per-seed contexts: seed k aborts after iteration
  // k % 5 (0..3) or, every fifth seed, runs without a context.
  constexpr size_t kGroup = 8;
  for (size_t begin = 0; begin < seeds.size(); begin += kGroup) {
    const std::vector<NodeId> group(
        seeds.begin() + static_cast<long>(begin),
        seeds.begin() + static_cast<long>(std::min(begin + kGroup,
                                                   seeds.size())));
    std::vector<std::unique_ptr<AbortAt>> aborts;
    std::vector<QueryContext*> contexts;
    for (size_t k = 0; k < group.size(); ++k) {
      const int iteration = static_cast<int>((begin + k) % 5);
      aborts.push_back(std::make_unique<AbortAt>(iteration));
      contexts.push_back(iteration == 4 ? nullptr : &aborts.back()->context);
    }
    auto block = [&] {
      if constexpr (kF32) {
        return tpa->QueryBatchF(group, contexts);
      } else {
        return tpa->QueryBatch(group, contexts);
      }
    }();
    ASSERT_TRUE(block.ok());
    for (size_t k = 0; k < group.size(); ++k) {
      std::vector<V> answer(graph.num_nodes());
      for (NodeId r = 0; r < graph.num_nodes(); ++r) {
        answer[r] = block->At(r, k);
      }
      check(group[k], aborts[k]->context, answer);
    }
  }
}

TEST(TpaPersonalizedTest, AbortErrorBoundCertifiesEveryTier) {
  for (uint64_t generator_seed : {77u, 78u, 79u}) {
    DcsbmOptions options;
    options.nodes = 500;
    options.edges = 5000;
    options.blocks = 10;
    options.seed = generator_seed;
    auto graph = GenerateDcsbm(options);
    ASSERT_TRUE(graph.ok());
    SCOPED_TRACE(generator_seed);
    CheckAbortCertificates<double>(*graph);
    CheckAbortCertificates<float>(
        RematerializeWithPrecision(*graph, la::Precision::kFloat32));
  }
}

}  // namespace
}  // namespace tpa
