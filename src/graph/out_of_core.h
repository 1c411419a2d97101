#ifndef TPA_GRAPH_OUT_OF_CORE_H_
#define TPA_GRAPH_OUT_OF_CORE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "graph/builder.h"
#include "graph/graph.h"
#include "util/mem_stats.h"
#include "util/serial.h"
#include "util/status.h"

namespace tpa {

/// Out-of-core CSR construction: build a Graph whose arrays live in a
/// mapped file, from an edge stream that never sits in RAM.
///
/// The in-RAM GraphBuilder holds the full edge list (16 bytes/edge), sorts
/// it, and counting-sorts into heap CSR arrays — ~3x the final graph in
/// transient heap.  This builder instead spills the edges to disk in two
/// sorted orders ((u,v) for the out-CSR, (v,u) for its transpose) through
/// bounded ExternalU64Sorter chunks, then streams the k-way merges straight
/// into a file-backed CSR laid out with MappedFile::Create: one counting
/// pass to size the file, one sequential write pass per direction.  Heap
/// use is the sorter buffers (sized from the memory budget) plus an n-bit
/// dangling set; the O(nnz) arrays only ever exist as mapped pages, which a
/// ResidentSteward can drop at will.
///
/// Cleaning semantics replicate GraphBuilder::Build exactly — self-loop
/// removal at Add, duplicate collapse on the sorted stream, dangling
/// self-loops merged in id order, values/scales computed with the same
/// fp64-reciprocal-rounded-once expression — so the resulting Graph (and
/// any snapshot written from it) is bitwise-identical to the in-RAM build
/// of the same edge sequence.
struct OutOfCoreOptions {
  /// The file-backed CSR this build produces ("TPACSR1" format).  Required.
  /// Reopenable later with OpenOutOfCoreGraph — the build is also a
  /// persistence step.  The build writes a sibling temp file and renames it
  /// over this path when it finishes, so rebuilding a path that another
  /// process maps leaves that process reading the old file.
  std::string csr_path;
  /// Directory for the two spill files (deleted when the builder dies).
  /// Empty: alongside csr_path.
  std::string spill_dir;
  /// Target resident budget.  Sizes the sorter chunk buffers (the
  /// builder's dominant heap use) to a fraction of it; the mapped-page
  /// traffic on top is what a ResidentSteward bounds.  0 = defaults.
  size_t memory_budget_bytes = 0;
  /// Cleaning/value configuration, as for GraphBuilder::Build.
  BuildOptions build;
  /// msync the finished CSR before assembling the Graph (durability; the
  /// mapping itself is valid either way).
  bool sync_on_finish = true;
  /// When set, the freshly created mapping is registered here so the
  /// steward can drop streamed pages during the build passes.  Borrowed;
  /// must outlive Build().
  ResidentSteward* steward = nullptr;
};

/// A Graph served straight off its mapped CSR file, plus the mapping handle
/// callers need for paging control (ResidentSteward::RegisterRegion,
/// MappedFile::Advise).  The graph's arrays alias the mapping; `file` is
/// also the SharedArray owner, so the mapping outlives the last view either
/// way.
struct OutOfCoreGraph {
  std::unique_ptr<Graph> graph;
  std::shared_ptr<MappedFile> file;
  uint64_t file_bytes = 0;
};

class OutOfCoreGraphBuilder {
 public:
  /// Validates options (paths) and opens the spill files.
  static StatusOr<OutOfCoreGraphBuilder> Create(NodeId num_nodes,
                                                OutOfCoreOptions options);

  OutOfCoreGraphBuilder(OutOfCoreGraphBuilder&&) = default;
  OutOfCoreGraphBuilder& operator=(OutOfCoreGraphBuilder&&) = default;

  /// Streams the directed edge u → v to the spill chunks.  Out-of-range
  /// endpoints surface as InvalidArgument (the streaming twin of
  /// GraphBuilder::AddEdge's CHECK).
  Status AddEdge(NodeId u, NodeId v);

  /// Edge draws accepted so far (before cleaning).
  uint64_t added_edges() const { return added_edges_; }
  NodeId num_nodes() const { return num_nodes_; }

  /// Bytes currently spilled across both sort orders.
  uint64_t spilled_bytes() const;

  /// Seals the spills, sizes and writes the file-backed CSR, and assembles
  /// the Graph over the mapping.  One-shot: the builder is consumed.
  StatusOr<OutOfCoreGraph> Build();

 private:
  OutOfCoreGraphBuilder() = default;

  NodeId num_nodes_ = 0;
  OutOfCoreOptions options_;
  uint64_t added_edges_ = 0;
  // Two sort orders over the same edges: records (u<<32)|v and (v<<32)|u.
  std::unique_ptr<ExternalU64Sorter> fwd_;
  std::unique_ptr<ExternalU64Sorter> rev_;
};

/// Reopens a CSR file written by OutOfCoreGraphBuilder (read-only mapping).
StatusOr<OutOfCoreGraph> OpenOutOfCoreGraph(const std::string& csr_path);

}  // namespace tpa

#endif  // TPA_GRAPH_OUT_OF_CORE_H_
