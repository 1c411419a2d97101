#include "reorder/slashburn.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "util/check.h"

namespace tpa {

namespace {

/// Union-find over node ids, path halving + union by size.
class DisjointSets {
 public:
  explicit DisjointSets(NodeId n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), NodeId{0});
  }

  NodeId Find(NodeId x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Union(NodeId a, NodeId b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

  NodeId ComponentSize(NodeId x) { return size_[Find(x)]; }

 private:
  std::vector<NodeId> parent_;
  std::vector<NodeId> size_;
};

enum class NodeState : uint8_t { kActive, kSpoke, kHub };

}  // namespace

StatusOr<HubSpokeOrdering> SlashBurn(const Graph& graph,
                                     const SlashBurnOptions& options) {
  const std::span<const uint64_t> out_offsets = graph.OutOffsets();
  const std::span<const NodeId> out_targets = graph.OutTargets();
  // The adjacency walk the whole algorithm is built from.
  const auto out_neighbors = [&](NodeId u) {
    return out_targets.subspan(out_offsets[u],
                               out_offsets[u + 1] - out_offsets[u]);
  };
  if (options.hub_fraction_per_round <= 0.0 ||
      options.hub_fraction_per_round > 1.0) {
    return InvalidArgumentError("hub_fraction_per_round must be in (0,1]");
  }
  if (options.max_spoke_size == 0) {
    return InvalidArgumentError("max_spoke_size must be positive");
  }
  if (options.max_hub_fraction <= 0.0 || options.max_hub_fraction > 1.0) {
    return InvalidArgumentError("max_hub_fraction must be in (0,1]");
  }

  const NodeId n = graph.num_nodes();
  const NodeId hubs_per_round = std::max<NodeId>(
      1, static_cast<NodeId>(std::ceil(options.hub_fraction_per_round *
                                       static_cast<double>(n))));
  const NodeId max_hubs = std::max<NodeId>(
      1, static_cast<NodeId>(std::ceil(options.max_hub_fraction *
                                       static_cast<double>(n))));

  std::vector<NodeState> state(n, NodeState::kActive);
  std::vector<NodeId> hubs;                       // in removal order
  std::vector<std::vector<NodeId>> spoke_blocks;  // finalized blocks
  NodeId num_active = n;

  std::vector<NodeId> degree(n);
  std::vector<NodeId> order(n);

  while (num_active > 0) {
    // Finalize small leftovers in one block.
    if (num_active <= options.max_spoke_size) {
      std::vector<NodeId> block;
      block.reserve(num_active);
      for (NodeId u = 0; u < n; ++u) {
        if (state[u] == NodeState::kActive) {
          state[u] = NodeState::kSpoke;
          block.push_back(u);
        }
      }
      spoke_blocks.push_back(std::move(block));
      break;
    }

    // Hub budget exhausted: everything unresolved becomes a hub.
    if (hubs.size() + hubs_per_round > max_hubs) {
      for (NodeId u = 0; u < n; ++u) {
        if (state[u] == NodeState::kActive) {
          state[u] = NodeState::kHub;
          hubs.push_back(u);
        }
      }
      break;
    }

    // Undirected degree within the active subgraph.
    std::fill(degree.begin(), degree.end(), NodeId{0});
    for (NodeId u = 0; u < n; ++u) {
      if (state[u] != NodeState::kActive) continue;
      for (NodeId v : out_neighbors(u)) {
        if (u == v || state[v] != NodeState::kActive) continue;
        ++degree[u];
        ++degree[v];
      }
    }

    // Remove the top-k active nodes by degree.
    std::vector<NodeId>& cand = order;
    cand.clear();
    for (NodeId u = 0; u < n; ++u) {
      if (state[u] == NodeState::kActive) cand.push_back(u);
    }
    const size_t k = std::min<size_t>(hubs_per_round, cand.size());
    std::partial_sort(cand.begin(), cand.begin() + static_cast<long>(k),
                      cand.end(), [&degree](NodeId a, NodeId b) {
                        if (degree[a] != degree[b]) {
                          return degree[a] > degree[b];
                        }
                        return a < b;
                      });
    for (size_t i = 0; i < k; ++i) {
      state[cand[i]] = NodeState::kHub;
      hubs.push_back(cand[i]);
      --num_active;
    }

    // Undirected connected components of what remains active.
    DisjointSets dsu(n);
    for (NodeId u = 0; u < n; ++u) {
      if (state[u] != NodeState::kActive) continue;
      for (NodeId v : out_neighbors(u)) {
        if (u == v || state[v] != NodeState::kActive) continue;
        dsu.Union(u, v);
      }
    }

    // Group active nodes by root; finalize components <= max_spoke_size.
    std::vector<std::vector<NodeId>> members_by_root(n);
    for (NodeId u = 0; u < n; ++u) {
      if (state[u] == NodeState::kActive) {
        members_by_root[dsu.Find(u)].push_back(u);
      }
    }
    for (NodeId root = 0; root < n; ++root) {
      auto& members = members_by_root[root];
      if (members.empty()) continue;
      if (members.size() <= options.max_spoke_size) {
        for (NodeId u : members) state[u] = NodeState::kSpoke;
        num_active -= static_cast<NodeId>(members.size());
        spoke_blocks.push_back(std::move(members));
      }
      // Larger components stay active and get burned again.
    }
  }

  // Emit the ordering: spoke blocks first, hubs last.
  HubSpokeOrdering result;
  result.old_of_new.reserve(n);
  result.blocks.reserve(spoke_blocks.size());
  for (const auto& block : spoke_blocks) {
    const NodeId begin = static_cast<NodeId>(result.old_of_new.size());
    result.old_of_new.insert(result.old_of_new.end(), block.begin(),
                             block.end());
    result.blocks.emplace_back(begin,
                               static_cast<NodeId>(result.old_of_new.size()));
  }
  result.num_spokes = static_cast<NodeId>(result.old_of_new.size());
  result.old_of_new.insert(result.old_of_new.end(), hubs.begin(), hubs.end());
  TPA_CHECK_EQ(result.old_of_new.size(), static_cast<size_t>(n));

  result.new_of_old.assign(n, 0);
  for (NodeId p = 0; p < n; ++p) {
    result.new_of_old[result.old_of_new[p]] = p;
  }
  return result;
}

}  // namespace tpa
