#ifndef TPA_BENCH_SERVING_TRAFFIC_H_
#define TPA_BENCH_SERVING_TRAFFIC_H_

/// Inputs of the serving benchmark: the fixed R-MAT edge lists and the
/// seeded traffic (query seeds, Zipf popularity, Poisson gaps).  The graph
/// never depends on the workload seed; only the traffic does.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/random.h"

namespace tpa::bench {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

/// The R-MAT draw sequence of GenerateRmat with (a, b, c) = (.57, .19, .19):
/// feeding these edges to GraphBuilder::Build yields exactly the graph
/// GenerateRmat builds from the same scale, draw count and seed.  The
/// benchmark needs the raw list because rebuilding from an in-memory edge
/// list is one of the costs it measures.
inline EdgeList RmatEdges(uint32_t scale, uint64_t draws, uint64_t seed) {
  constexpr double kA = 0.57, kB = 0.19, kC = 0.19;
  Rng rng(seed);
  EdgeList edges;
  edges.reserve(draws);
  for (uint64_t e = 0; e < draws; ++e) {
    NodeId u = 0, v = 0;
    for (uint32_t bit = scale; bit-- > 0;) {
      const double p = rng.NextDouble();
      if (p < kA) {
        // top-left quadrant: both bits 0
      } else if (p < kA + kB) {
        v |= NodeId{1} << bit;
      } else if (p < kA + kB + kC) {
        u |= NodeId{1} << bit;
      } else {
        u |= NodeId{1} << bit;
        v |= NodeId{1} << bit;
      }
    }
    edges.emplace_back(u, v);
  }
  return edges;
}

/// Draws query seeds in proportion to out-degree — the source of a
/// uniformly drawn edge — so busy nodes ask more often, as active users do.
class ActiveUserSampler {
 public:
  explicit ActiveUserSampler(const Graph& graph)
      : offsets_(graph.OutOffsets()), edges_(graph.num_edges()) {}

  NodeId Sample(Rng& rng) const {
    const uint64_t edge = rng.NextBounded(edges_);
    const auto it = std::upper_bound(offsets_.begin(), offsets_.end(), edge);
    return static_cast<NodeId>(it - offsets_.begin() - 1);
  }

  std::vector<NodeId> Sample(Rng& rng, size_t count) const {
    std::vector<NodeId> seeds(count);
    for (NodeId& seed : seeds) seed = Sample(rng);
    return seeds;
  }

 private:
  std::span<const uint64_t> offsets_;
  uint64_t edges_;
};

/// Zipf(alpha) popularity over a fixed population of active-user seeds:
/// rank r is asked with probability proportional to (r + 1)^-alpha.
class ZipfSeeds {
 public:
  ZipfSeeds(const ActiveUserSampler& users, Rng& rng, size_t population,
            double alpha)
      : seeds_(users.Sample(rng, population)),
        ranks_(ZipfWeights(population, alpha)) {}

  NodeId Next(Rng& rng) const { return seeds_[ranks_.Sample(rng)]; }

 private:
  static std::vector<double> ZipfWeights(size_t population, double alpha) {
    std::vector<double> weights(population);
    for (size_t r = 0; r < population; ++r) {
      weights[r] = std::pow(static_cast<double>(r + 1), -alpha);
    }
    return weights;
  }

  std::vector<NodeId> seeds_;
  AliasSampler ranks_;
};

/// Inter-arrival gap of a Poisson process with `rate` arrivals per second.
inline double ExponentialGapSeconds(Rng& rng, double rate) {
  return -std::log1p(-rng.NextDouble()) / rate;
}

}  // namespace tpa::bench

#endif  // TPA_BENCH_SERVING_TRAFFIC_H_
