#include "graph/builder.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace tpa {

namespace {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

/// Converts a cleaned (sorted, deduplicated, dangling-resolved) edge list
/// into the CSR Graph.  `edges` must be sorted by (u, v).
StatusOr<Graph> FinalizeCsr(NodeId num_nodes, const EdgeList& edges,
                            la::Precision precision,
                            ValueStorage value_storage) {
  const size_t m = edges.size();
  TPA_RETURN_IF_ERROR(ValidateEdgeCount(num_nodes, m));
  std::vector<uint64_t> out_offsets(static_cast<size_t>(num_nodes) + 1, 0);
  std::vector<NodeId> out_targets(m);
  for (const auto& [u, v] : edges) ++out_offsets[u + 1];
  for (size_t i = 1; i < out_offsets.size(); ++i) {
    out_offsets[i] += out_offsets[i - 1];
  }
  {
    std::vector<uint64_t> cursor(out_offsets.begin(), out_offsets.end() - 1);
    for (const auto& [u, v] : edges) out_targets[cursor[u]++] = v;
  }
  for (NodeId u = 0; u < num_nodes; ++u) {
    TPA_RETURN_IF_ERROR(
        ValidateRowDegree(u, out_offsets[u + 1] - out_offsets[u]));
  }

  // Transpose (counting sort by target); sources end up sorted within each
  // in-list because `edges` is sorted by (u, v).
  std::vector<uint64_t> in_offsets(static_cast<size_t>(num_nodes) + 1, 0);
  std::vector<NodeId> in_sources(m);
  for (const auto& [u, v] : edges) ++in_offsets[v + 1];
  for (size_t i = 1; i < in_offsets.size(); ++i) {
    in_offsets[i] += in_offsets[i - 1];
  }
  {
    std::vector<uint64_t> cursor(in_offsets.begin(), in_offsets.end() - 1);
    for (const auto& [u, v] : edges) in_sources[cursor[v]++] = u;
  }
  for (NodeId v = 0; v < num_nodes; ++v) {
    TPA_RETURN_IF_ERROR(
        ValidateRowDegree(v, in_offsets[v + 1] - in_offsets[v]));
  }

  return Graph(num_nodes, std::move(out_offsets), std::move(out_targets),
               std::move(in_offsets), std::move(in_sources), precision,
               value_storage);
}

}  // namespace

Status ValidateNodeCount(uint64_t num_nodes) {
  if (num_nodes == 0) {
    return InvalidArgumentError("graph must have at least one node");
  }
  // NodeId is uint32 and the offset arrays hold num_nodes + 1 entries, so
  // the largest representable node count is 2^32 - 1.
  constexpr uint64_t kMaxNodes = uint64_t{0xFFFFFFFF};
  if (num_nodes > kMaxNodes) {
    return InvalidArgumentError("node count " + std::to_string(num_nodes) +
                                " exceeds the uint32 node-id limit " +
                                std::to_string(kMaxNodes));
  }
  return OkStatus();
}

Status ValidateRowDegree(uint64_t node, uint64_t degree) {
  constexpr uint64_t kMaxDegree = uint64_t{0xFFFFFFFF};
  if (degree > kMaxDegree) {
    return InvalidArgumentError(
        "node " + std::to_string(node) + " has degree " +
        std::to_string(degree) +
        ", which exceeds the uint32 per-row limit " +
        std::to_string(kMaxDegree));
  }
  return OkStatus();
}

Status ValidateEdgeCount(uint64_t num_nodes, uint64_t num_edges) {
  TPA_RETURN_IF_ERROR(ValidateNodeCount(num_nodes));
  // Leave headroom for one dangling self-loop per node so the uint64 nnz
  // arithmetic (and the final offsets entry) cannot wrap mid-build.
  const uint64_t limit = UINT64_MAX - num_nodes;
  if (num_edges > limit) {
    return InvalidArgumentError(
        "edge count " + std::to_string(num_edges) + " with " +
        std::to_string(num_nodes) +
        " nodes overflows the uint64 offset arithmetic (limit " +
        std::to_string(limit) + ")");
  }
  return OkStatus();
}

void GraphBuilder::AddEdge(NodeId u, NodeId v) {
  TPA_CHECK_LT(u, num_nodes_);
  TPA_CHECK_LT(v, num_nodes_);
  edges_.emplace_back(u, v);
}

void GraphBuilder::AddEdges(
    const std::vector<std::pair<NodeId, NodeId>>& edges) {
  edges_.reserve(edges_.size() + edges.size());
  for (const auto& [u, v] : edges) AddEdge(u, v);
}

StatusOr<Graph> GraphBuilder::Build(const BuildOptions& options) {
  if (num_nodes_ == 0) {
    return InvalidArgumentError("graph must have at least one node");
  }
  EdgeList edges = std::move(edges_);
  edges_.clear();

  if (options.remove_self_loops) {
    std::erase_if(edges, [](const auto& e) { return e.first == e.second; });
  }
  std::sort(edges.begin(), edges.end());
  if (options.deduplicate) {
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  }

  if (options.dangling_policy == DanglingPolicy::kAddSelfLoop) {
    // Find nodes with no out-edge and append self-loops, keeping sort order
    // by a final merge.
    std::vector<bool> has_out(num_nodes_, false);
    for (const auto& [u, v] : edges) has_out[u] = true;
    EdgeList loops;
    for (NodeId u = 0; u < num_nodes_; ++u) {
      if (!has_out[u]) loops.emplace_back(u, u);
    }
    if (!loops.empty()) {
      const size_t mid = edges.size();
      edges.insert(edges.end(), loops.begin(), loops.end());
      std::inplace_merge(edges.begin(),
                         edges.begin() + static_cast<long>(mid), edges.end());
    }
  }

  return FinalizeCsr(num_nodes_, edges, options.value_precision,
                     options.value_storage);
}

}  // namespace tpa
