#ifndef TPA_GRAPH_GENERATORS_H_
#define TPA_GRAPH_GENERATORS_H_

#include <cstdint>

#include "graph/builder.h"
#include "graph/graph.h"
#include "graph/out_of_core.h"
#include "util/status.h"

namespace tpa {

/// Synthetic graph generators.
///
/// The paper evaluates on seven public graphs (up to 2.6B edges) that are not
/// redistributable here and exceed a CI machine anyway.  The generators below
/// produce scaled-down graphs with the two structural properties TPA's
/// approximations depend on: block-wise community structure (neighbor
/// approximation, Section III-B) and heavy-tailed degrees (stranger
/// approximation's density argument, Section III-A).  All generators are
/// deterministic functions of their seed.

struct ErdosRenyiOptions {
  NodeId nodes = 0;
  uint64_t edges = 0;   // exact count of distinct directed non-loop edges
  uint64_t seed = 1;
};

/// G(n, m) with exactly `edges` distinct directed edges (no self-loops).
/// This is the "random graph" twin used by the Figure 6 experiment.
/// Fails if edges exceeds n*(n-1) or nodes == 0.
StatusOr<Graph> GenerateErdosRenyi(const ErdosRenyiOptions& options);

struct RmatOptions {
  uint32_t scale = 10;   // n = 2^scale
  uint64_t edges = 0;    // number of edge draws (duplicates collapse)
  double a = 0.57, b = 0.19, c = 0.19;  // quadrant probabilities; d = 1-a-b-c
  uint64_t seed = 1;
};

/// Recursive-matrix (R-MAT) generator: heavy-tailed, self-similar graphs of
/// the kind common in the graph-mining literature.  Fails on invalid
/// probabilities (each in (0,1), a+b+c < 1) or edges == 0.
/// `build_options` selects the finalized graph's precision tier and value
/// storage (tpa_snapshot's build path).
StatusOr<Graph> GenerateRmat(const RmatOptions& options,
                             const BuildOptions& build_options = {});

/// The same R-MAT draw sequence streamed through OutOfCoreGraphBuilder:
/// edges spill to disk in bounded chunks instead of accumulating on the
/// heap, and the result is a Graph served off a file-backed CSR.  Identical
/// options and seed yield a graph bitwise-identical to GenerateRmat's (both
/// generators share one edge-draw routine, so they consume the Rng
/// identically), at a resident footprint set by
/// `ooc_options.memory_budget_bytes` instead of by the edge count.
/// `ooc_options.build` plays the role of `build_options` above.
StatusOr<OutOfCoreGraph> GenerateRmatOutOfCore(const RmatOptions& options,
                                               OutOfCoreOptions ooc_options);

struct DcsbmOptions {
  NodeId nodes = 0;
  uint64_t edges = 0;      // number of edge draws (duplicates collapse)
  uint32_t blocks = 16;    // planted communities
  double intra_fraction = 0.85;  // probability an edge stays in-community
  double zipf_theta = 0.75;      // degree-weight exponent (0 = uniform)
  /// Inter-community edges draw both endpoints ∝ weight^γ — long-range
  /// links concentrate on hubs, the core-periphery trait of real networks
  /// (and the reason SlashBurn separates real communities: removing hubs
  /// cuts almost every inter-community edge).  1.0 = same skew as
  /// intra-community traffic.
  double inter_weight_exponent = 2.0;
  uint64_t seed = 1;
};

/// Degree-corrected stochastic block model: nodes carry Zipf weights and are
/// split into contiguous equal blocks; each edge draw keeps its endpoints in
/// one community with probability `intra_fraction`.  This is the generator
/// behind every `*-sim` dataset preset.
StatusOr<Graph> GenerateDcsbm(const DcsbmOptions& options);

}  // namespace tpa

#endif  // TPA_GRAPH_GENERATORS_H_
