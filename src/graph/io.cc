#include "graph/io.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

namespace tpa {

namespace {

/// Parses "u v" from a line; returns false for malformed content, including
/// anything but whitespace after the second id ("1 2junk", "1 2 3").
bool ParseEdgeLine(std::string_view line, uint64_t& u, uint64_t& v) {
  const char* ptr = line.data();
  const char* end = line.data() + line.size();
  auto skip_ws = [&]() {
    while (ptr != end && (*ptr == ' ' || *ptr == '\t' || *ptr == '\r')) ++ptr;
  };
  skip_ws();
  auto r1 = std::from_chars(ptr, end, u);
  if (r1.ec != std::errc()) return false;
  ptr = r1.ptr;
  skip_ws();
  auto r2 = std::from_chars(ptr, end, v);
  if (r2.ec != std::errc()) return false;
  ptr = r2.ptr;
  skip_ws();
  return ptr == end;
}

/// Recognizes the node-count header SaveEdgeList writes
/// ("# directed edge list: <N> nodes, ...").  Returns false for any other
/// comment line.
bool ParseNodeCountHeader(std::string_view line, uint64_t& nodes) {
  constexpr std::string_view kPrefix = "# directed edge list: ";
  if (line.substr(0, kPrefix.size()) != kPrefix) return false;
  const char* ptr = line.data() + kPrefix.size();
  const char* end = line.data() + line.size();
  auto result = std::from_chars(ptr, end, nodes);
  return result.ec == std::errc();
}

}  // namespace

StatusOr<Graph> LoadEdgeList(const std::string& path, NodeId num_nodes,
                             const BuildOptions& options) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError("cannot open edge list: " + path);
  }
  std::vector<std::pair<NodeId, NodeId>> edges;
  uint64_t max_id = 0;
  uint64_t header_nodes = 0;
  bool have_header = false;
  bool have_edges = false;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') {
      if (!have_header && ParseNodeCountHeader(line, header_nodes)) {
        have_header = true;
      }
      continue;
    }
    uint64_t u = 0, v = 0;
    if (!ParseEdgeLine(line, u, v)) {
      std::ostringstream oss;
      oss << "malformed edge at " << path << ":" << line_no;
      return InvalidArgumentError(oss.str());
    }
    if (num_nodes != 0 && (u >= num_nodes || v >= num_nodes)) {
      std::ostringstream oss;
      oss << "node id out of range at " << path << ":" << line_no;
      return OutOfRangeError(oss.str());
    }
    // Ids are cast to uint32 NodeId below; 2^32 - 1 itself is out too, as
    // max_id + 1 must still be a representable node count.
    if (u >= UINT32_MAX || v >= UINT32_MAX) {
      std::ostringstream oss;
      oss << "node id exceeds the uint32 node-id limit at " << path << ":"
          << line_no;
      return InvalidArgumentError(oss.str());
    }
    max_id = std::max({max_id, u, v});
    have_edges = true;
    edges.emplace_back(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  NodeId n = num_nodes;
  if (n == 0 && have_header) {
    // SaveEdgeList's header carries the exact node count, so graphs whose
    // trailing nodes are isolated (never named by an edge) round-trip at
    // full size instead of shrinking to max id + 1.
    if (header_nodes == 0 || header_nodes > UINT32_MAX) {
      std::ostringstream oss;
      oss << "header node count out of range in " << path;
      return InvalidArgumentError(oss.str());
    }
    if (have_edges && max_id >= header_nodes) {
      std::ostringstream oss;
      oss << "edge references node " << max_id
          << " beyond the header node count " << header_nodes << " in "
          << path;
      return InvalidArgumentError(oss.str());
    }
    n = static_cast<NodeId>(header_nodes);
  } else if (n == 0) {
    if (!have_edges) {
      // No count was given, the file declares none, and there are no edges
      // to infer one from — fabricating a 1-node graph here would silently
      // hand the caller a graph that matches nothing they loaded.
      return InvalidArgumentError(
          "cannot infer a node count from an empty edge list: " + path);
    }
    n = static_cast<NodeId>(max_id + 1);
  }
  GraphBuilder builder(n);
  builder.AddEdges(edges);
  return builder.Build(options);
}

Status SaveEdgeList(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return InvalidArgumentError("cannot open for writing: " + path);
  }
  out << "# directed edge list: " << graph.num_nodes() << " nodes, "
      << graph.num_edges() << " edges\n";
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (NodeId v : graph.OutNeighbors(u)) {
      out << u << ' ' << v << '\n';
    }
  }
  if (!out) {
    return InternalError("write failed: " + path);
  }
  return OkStatus();
}

}  // namespace tpa
