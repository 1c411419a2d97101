#include "graph/builder.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <ranges>
#include <span>
#include <thread>
#include <utility>

#include "util/check.h"
#include "util/worker_team.h"

namespace tpa {

namespace {

/// Edges per member of the team Build makes for itself.
constexpr size_t kEdgesPerMember = size_t{1} << 16;

/// Item i of part t when `count` items are cut into `parts` even parts.
size_t Cut(size_t count, size_t parts, size_t t) { return count * t / parts; }

/// Turns the counts hist[k·n + r] of member k and row r into start
/// positions in (row, member) order, so a scatter that walks each member's
/// items in order is stable.  Writes row r's first position to
/// row_start[r] when given; returns the total count.
uint64_t CountsToPositions(uint64_t* hist, size_t n, size_t members,
                           uint64_t* row_start) {
  uint64_t pos = 0;
  for (size_t r = 0; r < n; ++r) {
    if (row_start != nullptr) row_start[r] = pos;
    for (size_t k = 0; k < members; ++k) {
      pos += std::exchange(hist[k * n + r], pos);
    }
  }
  return pos;
}

/// Cuts rows [0, n) into one range per member, each holding about the same
/// number of rows plus entries; row r's entries end at row_end[r].
std::vector<size_t> BalancedRows(const uint64_t* row_end, size_t n,
                                 size_t members) {
  std::vector<size_t> bounds(members + 1, n);
  bounds[0] = 0;
  const uint64_t total = n + row_end[n - 1];
  for (size_t t = 1; t < members; ++t) {
    const uint64_t target = Cut(total, members, t);
    bounds[t] = *std::ranges::partition_point(
        std::views::iota(size_t{0}, n),
        [&](size_t r) { return r + 1 + row_end[r] <= target; });
  }
  return bounds;
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

StatusOr<Graph> GraphBuilder::Build(const BuildOptions& options,
                                    WorkerTeam* team) {
  if (num_nodes_ == 0) {
    return InvalidArgumentError("graph must have at least one node");
  }
  EdgeList edges = std::move(edges_);
  edges_.clear();
  std::unique_ptr<WorkerTeam> own_team;
  if (team == nullptr) {
    const size_t hardware = std::max(1u, std::thread::hardware_concurrency());
    const size_t slices =
        (edges.size() + kEdgesPerMember - 1) / kEdgesPerMember;
    own_team = std::make_unique<WorkerTeam>(
        static_cast<int>(std::clamp<size_t>(slices, 1, hardware)));
    team = own_team.get();
  }
  const size_t n = num_nodes_;
  const size_t members = team->size();
  const bool drop_loops = options.remove_self_loops;

  // Scatter the targets into row buckets: each member counts the sources
  // of one edge slice, and the positions keep every bucket in input order.
  la::PageVector<uint64_t> hist(members * n);
  const auto slice = [&](int t) {
    return std::span(edges.data() + Cut(edges.size(), members, t),
                     edges.data() + Cut(edges.size(), members, t + 1));
  };
  team->Run([&](int t) {
    uint64_t* counts = hist.data() + t * n;
    for (const auto& [u, v] : slice(t)) counts[u] += !(drop_loops && u == v);
  });
  const uint64_t kept = CountsToPositions(hist.data(), n, members, nullptr);
  la::PageVector<NodeId> buckets(kept);
  team->Run([&](int t) {
    uint64_t* next = hist.data() + t * n;
    for (const auto& [u, v] : slice(t)) {
      if (!(drop_loops && u == v)) buckets[next[u]++] = v;
    }
  });
  EdgeList().swap(edges);

  // Each member cleans a range of whole rows: sort, dedup, and a self-loop
  // for a row left empty.  The last member's positions now end each row.
  const uint64_t* row_end = hist.data() + (members - 1) * n;
  const auto row_begin = [&](size_t r) { return r == 0 ? 0 : row_end[r - 1]; };
  const std::vector<size_t> rows = BalancedRows(row_end, n, members);
  const bool add_loops =
      options.dangling_policy == DanglingPolicy::kAddSelfLoop;
  la::PageVector<uint64_t> out_offsets(n + 1);
  team->Run([&](int t) {
    for (size_t r = rows[t]; r < rows[t + 1]; ++r) {
      NodeId* first = buckets.data() + row_begin(r);
      NodeId* last = buckets.data() + row_end[r];
      std::sort(first, last);
      if (options.deduplicate) last = std::unique(first, last);
      out_offsets[r + 1] = first == last && add_loops ? 1 : last - first;
    }
  });
  std::partial_sum(out_offsets.begin(), out_offsets.end(), out_offsets.begin());
  const uint64_t m = out_offsets[n];
  TPA_RETURN_IF_ERROR(ValidateEdgeCount(n, m));
  la::PageVector<NodeId> out_targets(m);
  team->Run([&](int t) {
    for (size_t r = rows[t]; r < rows[t + 1]; ++r) {
      const uint64_t degree = out_offsets[r + 1] - out_offsets[r];
      if (row_begin(r) == row_end[r]) {
        if (degree == 1) out_targets[out_offsets[r]] = static_cast<NodeId>(r);
      } else {
        std::copy_n(buckets.data() + row_begin(r), degree,
                    out_targets.data() + out_offsets[r]);
      }
    }
  });
  la::PageVector<NodeId>().swap(buckets);
  for (size_t u = 0; u < n; ++u) {
    TPA_RETURN_IF_ERROR(
        ValidateRowDegree(u, out_offsets[u + 1] - out_offsets[u]));
  }

  // Counting transpose over the same row ranges: members hold ascending
  // source ranges, so (target, member) order lists each in-row by source.
  team->Run([&](int t) {
    uint64_t* counts = hist.data() + t * n;
    std::fill_n(counts, n, 0);
    for (uint64_t e = out_offsets[rows[t]]; e < out_offsets[rows[t + 1]];
         ++e) {
      ++counts[out_targets[e]];
    }
  });
  la::PageVector<uint64_t> in_offsets(n + 1);
  in_offsets[n] = CountsToPositions(hist.data(), n, members, in_offsets.data());
  la::PageVector<NodeId> in_sources(m);
  team->Run([&](int t) {
    uint64_t* next = hist.data() + t * n;
    for (size_t u = rows[t]; u < rows[t + 1]; ++u) {
      for (uint64_t e = out_offsets[u]; e < out_offsets[u + 1]; ++e) {
        in_sources[next[out_targets[e]]++] = static_cast<NodeId>(u);
      }
    }
  });
  la::PageVector<uint64_t>().swap(hist);
  for (size_t v = 0; v < n; ++v) {
    TPA_RETURN_IF_ERROR(
        ValidateRowDegree(v, in_offsets[v + 1] - in_offsets[v]));
  }

  return Graph(num_nodes_, std::move(out_offsets), std::move(out_targets),
               std::move(in_offsets), std::move(in_sources),
               options.value_precision, options.value_storage);
}

}  // namespace tpa
