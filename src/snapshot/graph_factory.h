#ifndef TPA_SNAPSHOT_GRAPH_FACTORY_H_
#define TPA_SNAPSHOT_GRAPH_FACTORY_H_

#include <memory>
#include <utility>

#include "graph/graph.h"
#include "la/csr_matrix.h"
#include "la/shared_array.h"

namespace tpa::snapshot {

/// The one friend of Graph: wires pre-built (possibly mmap-backed)
/// structures and value layers directly into Graph's private fields, and
/// exposes the private in-direction structure for the snapshot writer.
/// Everything passed to Make must already be validated — the factory only
/// assembles.  Two producers use it: the snapshot loader (arrays are
/// SharedArray views into the mapped snapshot) and the out-of-core builder
/// (arrays are views into the file-backed CSR it just wrote) — both get a
/// Graph whose kernels stream straight off the mapping, no heap copy.
class GraphFactory {
 public:
  struct Parts {
    NodeId num_nodes = 0;
    la::Precision precision = la::Precision::kFloat64;
    ValueStorage value_storage = ValueStorage::kExplicit;
    la::CsrStructure out_structure;
    la::CsrStructure in_structure;
    bool has_fp64 = false;
    bool has_fp32 = false;
    // Out-CSR value layers per materialized tier.  kExplicit: one value
    // per edge.
    la::SharedArray<double> out_values64;
    la::SharedArray<float> out_values32;
    // kRowConstant: the n-length 1/out-degree per-row scale.
    la::SharedArray<double> scales64;
    la::SharedArray<float> scales32;
  };

  static std::unique_ptr<Graph> Make(Parts parts) {
    auto graph = std::unique_ptr<Graph>(new Graph());
    graph->num_nodes_ = parts.num_nodes;
    graph->precision_ = parts.precision;
    graph->value_storage_ = parts.value_storage;
    graph->out_structure_ = parts.out_structure;
    graph->in_structure_ = parts.in_structure;
    graph->has_fp64_ = parts.has_fp64;
    graph->has_fp32_ = parts.has_fp32;
    const bool explicit_values =
        parts.value_storage == ValueStorage::kExplicit;
    if (parts.has_fp64) {
      if (explicit_values) {
        graph->out_csr_ = la::CsrMatrix(parts.out_structure,
                                        std::move(parts.out_values64));
      } else {
        graph->out_csr_ = la::CsrMatrix(
            parts.out_structure, la::CsrValueMode::kRowConstant,
            parts.scales64);
      }
    }
    if (parts.has_fp32) {
      if (explicit_values) {
        graph->out_csr_f_ = la::CsrMatrixF(parts.out_structure,
                                           std::move(parts.out_values32));
      } else {
        graph->out_csr_f_ = la::CsrMatrixF(
            parts.out_structure, la::CsrValueMode::kRowConstant,
            parts.scales32);
      }
    }
    return graph;
  }

  static const la::CsrStructure& OutStructure(const Graph& graph) {
    return graph.out_structure_;
  }
  static const la::CsrStructure& InStructure(const Graph& graph) {
    return graph.in_structure_;
  }
};

}  // namespace tpa::snapshot

#endif  // TPA_SNAPSHOT_GRAPH_FACTORY_H_
