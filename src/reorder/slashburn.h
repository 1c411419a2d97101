#ifndef TPA_REORDER_SLASHBURN_H_
#define TPA_REORDER_SLASHBURN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace tpa {

/// Options for the hub-and-spoke reordering.
struct SlashBurnOptions {
  /// Nodes removed as hubs per round, as a fraction of total nodes
  /// (SlashBurn's k parameter).
  double hub_fraction_per_round = 0.005;
  /// Connected components no larger than this are finalized as spoke blocks;
  /// larger ones are burned again next round.
  NodeId max_spoke_size = 512;
  /// Safety cap: when the hub set would exceed this fraction of all nodes,
  /// every still-unresolved node is moved into the hub part.  Graphs without
  /// hub structure therefore surface as a large hub block — which is exactly
  /// when the block-elimination methods blow up, as in the paper.
  double max_hub_fraction = 0.25;
};

/// Result of SlashBurn: a permutation placing spoke blocks first and hubs
/// last, so that the reordered H = I − (1-c)Ã^T has block-diagonal H11.
///
/// Positions [0, num_spokes) in the new ordering are spokes, grouped into
/// contiguous connected-component blocks (no edges, in either direction,
/// connect two different spoke blocks); positions [num_spokes, n) are hubs.
struct HubSpokeOrdering {
  /// old_of_new[p] = original node id placed at new position p.
  std::vector<NodeId> old_of_new;
  /// new_of_old[u] = new position of original node u.
  std::vector<NodeId> new_of_old;
  /// Half-open [begin, end) position ranges of the spoke blocks.
  std::vector<std::pair<NodeId, NodeId>> blocks;
  NodeId num_spokes = 0;

  NodeId num_hubs() const {
    return static_cast<NodeId>(old_of_new.size()) - num_spokes;
  }
};

/// Runs SlashBurn-style iterative hub removal on the undirected view of
/// `graph`.  Deterministic.  Fails on invalid options.
StatusOr<HubSpokeOrdering> SlashBurn(const Graph& graph,
                                     const SlashBurnOptions& options);

}  // namespace tpa

#endif  // TPA_REORDER_SLASHBURN_H_
