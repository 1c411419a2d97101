#ifndef TPA_GRAPH_BUILDER_H_
#define TPA_GRAPH_BUILDER_H_

#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace tpa {

/// Policy for out-degree-zero nodes at build time.
enum class DanglingPolicy {
  /// Keep dangling nodes as-is; propagation loses their mass (CPI treats the
  /// transition matrix as column-substochastic).
  kKeep,
  /// Add a self-loop to every dangling node, making Ã^T exactly column
  /// stochastic (the setting assumed by the paper's lemmas).
  kAddSelfLoop,
};

struct BuildOptions {
  /// Drop u→u edges present in the input (self-loops added by the dangling
  /// policy are exempt).
  bool remove_self_loops = true;
  /// Collapse duplicate (u, v) pairs to a single edge.
  bool deduplicate = true;
  DanglingPolicy dangling_policy = DanglingPolicy::kAddSelfLoop;
  /// Storage tier of the normalized edge values (see la::Precision):
  /// kFloat64 feeds the historical all-double pipeline bitwise-unchanged;
  /// kFloat32 materializes the CSR values at 4 bytes/edge for the fp32
  /// propagation stack.
  la::Precision value_precision = la::Precision::kFloat64;
  /// Whether the normalized values are materialized per edge (kExplicit)
  /// or dropped entirely and synthesized by the kernels (kRowConstant —
  /// index-only ≈4 bytes/nnz hot loops, bitwise-identical results).  See
  /// ValueStorage; applies at every precision tier.
  ValueStorage value_storage = ValueStorage::kExplicit;
};

/// Bounds the CSR representation can actually hold: node ids are NodeId
/// (uint32) and Graph::OutDegree narrows each row's offset difference to
/// uint32, so a node count above 2^32 or a single row with 2^32 or more
/// edges cannot round-trip the arrays.  These checks turn such counts into
/// a clean InvalidArgument naming the offending node/count instead of a
/// silent truncation; both builders call them, and the streaming
/// (out-of-core) builder feeds them aggregates it never materializes as
/// vectors — which is why they take plain integers, not arrays.
Status ValidateNodeCount(uint64_t num_nodes);
Status ValidateRowDegree(uint64_t node, uint64_t degree);
/// Total edges must leave room for up to one dangling self-loop per node
/// without wrapping the uint64 offset arithmetic.
Status ValidateEdgeCount(uint64_t num_nodes, uint64_t num_edges);

/// Accumulates an edge list and finalizes it into an immutable CSR Graph.
///
/// Build is O(m log m) (sort-based) and produces neighbor lists sorted by id,
/// which downstream code relies on for binary-searchable adjacency.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {}

  /// Adds the directed edge u → v.  Fails fast (CHECK) on out-of-range ids.
  void AddEdge(NodeId u, NodeId v);

  /// Bulk variant of AddEdge.
  void AddEdges(const std::vector<std::pair<NodeId, NodeId>>& edges);

  size_t PendingEdges() const { return edges_.size(); }
  NodeId num_nodes() const { return num_nodes_; }

  /// Finalizes into a Graph; the builder is left empty.
  /// Fails if num_nodes is 0.
  StatusOr<Graph> Build(const BuildOptions& options = {});

 private:
  NodeId num_nodes_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

}  // namespace tpa

#endif  // TPA_GRAPH_BUILDER_H_
