#include "graph/out_of_core.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "la/csr_matrix.h"
#include "la/precision.h"
#include "la/shared_array.h"
#include "snapshot/graph_factory.h"

namespace tpa {

namespace {

/// Removes `path` on scope exit unless it was cleared: the build's temp
/// file on every early return.
struct RemoveOnExit {
  std::string path;
  ~RemoveOnExit() {
    if (!path.empty()) std::remove(path.c_str());
  }
};

constexpr char kOocMagic[8] = {'T', 'P', 'A', 'C', 'S', 'R', '1', '\0'};
constexpr uint32_t kOocEndianTag = 0x01020304u;
// Version 2 dropped the per-edge in-CSR values (version 1's second value
// array); version-1 files are rejected by the version check.
constexpr uint32_t kOocVersion = 2;
constexpr uint64_t kOocAlignment = 64;

/// Self-describing header of the file-backed CSR, so a previously built
/// file can be reopened (OpenOutOfCoreGraph) without re-running the build.
struct OocHeader {
  char magic[8];
  uint32_t endian_tag;
  uint32_t version;
  uint64_t num_nodes;
  uint64_t num_edges;
  uint32_t precision;      // la::Precision
  uint32_t value_storage;  // ValueStorage
  uint64_t file_bytes;
  uint8_t reserved[16];
};
static_assert(sizeof(OocHeader) == 64, "OOC CSR header is exactly 64 bytes");

uint64_t AlignUp(uint64_t offset, uint64_t alignment) {
  return (offset + alignment - 1) / alignment * alignment;
}

/// Byte offsets of every array in the CSR file — a pure function of the
/// graph dimensions and the value configuration, shared by the writer and
/// the reopen path.
struct OocLayout {
  uint64_t out_offsets = 0;
  uint64_t out_indices = 0;
  uint64_t in_offsets = 0;
  uint64_t in_indices = 0;
  /// Out-CSR values.  kExplicit: one per edge.  kRowConstant: one n-length
  /// scales array.
  uint64_t values = 0;
  uint64_t total = 0;
};

OocLayout ComputeLayout(uint64_t n, uint64_t m, la::Precision precision,
                        ValueStorage storage) {
  const uint64_t value_bytes = la::PrecisionValueBytes(precision);
  OocLayout layout;
  uint64_t offset = sizeof(OocHeader);
  auto place = [&offset](uint64_t size) {
    offset = AlignUp(offset, kOocAlignment);
    const uint64_t at = offset;
    offset += size;
    return at;
  };
  layout.out_offsets = place((n + 1) * sizeof(uint64_t));
  layout.out_indices = place(m * sizeof(uint32_t));
  layout.in_offsets = place((n + 1) * sizeof(uint64_t));
  layout.in_indices = place(m * sizeof(uint32_t));
  layout.values =
      place((storage == ValueStorage::kExplicit ? m : n) * value_bytes);
  layout.total = offset;
  return layout;
}

uint32_t EdgeHigh(uint64_t record) {
  return static_cast<uint32_t>(record >> 32);
}
uint32_t EdgeLow(uint64_t record) { return static_cast<uint32_t>(record); }

/// Explicit out-CSR values: every edge of row u carries 1/out-degree(u),
/// the fp64 reciprocal rounded once to V — Graph's OutWeights expression,
/// swept sequentially over the mapped arrays.
template <typename V>
void WriteOutValues(const uint64_t* out_offsets, uint64_t n, V* values) {
  for (uint64_t u = 0; u < n; ++u) {
    const uint64_t begin = out_offsets[u];
    const uint64_t end = out_offsets[u + 1];
    if (begin == end) continue;
    const V w = static_cast<V>(1.0 / static_cast<double>(end - begin));
    for (uint64_t e = begin; e < end; ++e) values[e] = w;
  }
}

/// Value-free scales: Graph's OutDegreeReciprocals expression (dangling
/// nodes 0).
template <typename V>
void WriteScales(const uint64_t* out_offsets, uint64_t n, V* scales) {
  for (uint64_t u = 0; u < n; ++u) {
    const uint64_t degree = out_offsets[u + 1] - out_offsets[u];
    scales[u] = degree == 0
                    ? V{0}
                    : static_cast<V>(1.0 / static_cast<double>(degree));
  }
}

/// Assembles the Graph over a mapped CSR file whose header has already been
/// validated.  `base` may be the writable or the read-only mapping.
StatusOr<OutOfCoreGraph> AssembleGraph(std::shared_ptr<MappedFile> file,
                                       const uint8_t* base) {
  const OocHeader* header = reinterpret_cast<const OocHeader*>(base);
  const uint64_t n = header->num_nodes;
  const uint64_t m = header->num_edges;
  const la::Precision precision =
      static_cast<la::Precision>(header->precision);
  const ValueStorage storage =
      static_cast<ValueStorage>(header->value_storage);
  const OocLayout layout = ComputeLayout(n, m, precision, storage);

  auto view_u64 = [&](uint64_t offset, uint64_t count) {
    return la::SharedArray<uint64_t>::View(
        file, reinterpret_cast<const uint64_t*>(base + offset), count);
  };
  auto view_u32 = [&](uint64_t offset, uint64_t count) {
    return la::SharedArray<uint32_t>::View(
        file, reinterpret_cast<const uint32_t*>(base + offset), count);
  };

  snapshot::GraphFactory::Parts parts;
  parts.num_nodes = static_cast<NodeId>(n);
  parts.precision = precision;
  parts.value_storage = storage;
  parts.has_fp64 = precision == la::Precision::kFloat64;
  parts.has_fp32 = precision == la::Precision::kFloat32;
  parts.out_structure.rows = static_cast<uint32_t>(n);
  parts.out_structure.cols = static_cast<uint32_t>(n);
  parts.out_structure.row_offsets = view_u64(layout.out_offsets, n + 1);
  parts.out_structure.col_indices = view_u32(layout.out_indices, m);
  parts.in_structure.rows = static_cast<uint32_t>(n);
  parts.in_structure.cols = static_cast<uint32_t>(n);
  parts.in_structure.row_offsets = view_u64(layout.in_offsets, n + 1);
  parts.in_structure.col_indices = view_u32(layout.in_indices, m);

  const auto* values64 = reinterpret_cast<const double*>(base + layout.values);
  const auto* values32 = reinterpret_cast<const float*>(base + layout.values);
  if (storage == ValueStorage::kExplicit) {
    if (parts.has_fp64) {
      parts.out_values64 = la::SharedArray<double>::View(file, values64, m);
    } else {
      parts.out_values32 = la::SharedArray<float>::View(file, values32, m);
    }
  } else {
    if (parts.has_fp64) {
      parts.scales64 = la::SharedArray<double>::View(file, values64, n);
    } else {
      parts.scales32 = la::SharedArray<float>::View(file, values32, n);
    }
  }

  OutOfCoreGraph result;
  result.graph = snapshot::GraphFactory::Make(std::move(parts));
  result.file_bytes = layout.total;
  result.file = std::move(file);
  return result;
}

/// Everything OpenOutOfCoreGraph trusts before mapping arrays into a Graph:
/// the header fields, then both directions' CSR structure.  TPACSR carries
/// no checksum, so the structure is checked on every open.
Status ValidateOocFile(const uint8_t* base, uint64_t mapped_bytes,
                       const std::string& path) {
  const OocHeader& header = *reinterpret_cast<const OocHeader*>(base);
  if (std::memcmp(header.magic, kOocMagic, sizeof(kOocMagic)) != 0) {
    return InvalidArgumentError("'" + path + "' is not a TPACSR1 file");
  }
  if (header.endian_tag != kOocEndianTag) {
    return InvalidArgumentError("'" + path +
                                "' was written on a different endianness");
  }
  if (header.version != kOocVersion) {
    return InvalidArgumentError("'" + path + "' has unsupported version " +
                                std::to_string(header.version));
  }
  TPA_RETURN_IF_ERROR(ValidateNodeCount(header.num_nodes));
  constexpr auto kMaxPrecision = static_cast<uint32_t>(la::Precision::kFloat32);
  constexpr auto kMaxStorage =
      static_cast<uint32_t>(ValueStorage::kRowConstant);
  if (header.precision > kMaxPrecision || header.value_storage > kMaxStorage) {
    return InvalidArgumentError("'" + path + "' has an unknown precision " +
                                std::to_string(header.precision) +
                                " or value storage " +
                                std::to_string(header.value_storage));
  }
  // Every edge takes an out-index and an in-index in the file; bounding the
  // count first keeps the layout sizes below from wrapping modulo 2^64.
  if (header.num_edges > mapped_bytes / (2 * sizeof(uint32_t))) {
    return InvalidArgumentError("'" + path + "' claims an edge count of " +
                                std::to_string(header.num_edges) +
                                " that the file cannot hold");
  }
  const OocLayout layout = ComputeLayout(
      header.num_nodes, header.num_edges,
      static_cast<la::Precision>(header.precision),
      static_cast<ValueStorage>(header.value_storage));
  if (header.file_bytes != layout.total || mapped_bytes < layout.total) {
    return InvalidArgumentError("'" + path + "' is truncated: header says " +
                                std::to_string(header.file_bytes) +
                                " bytes, layout needs " +
                                std::to_string(layout.total) + ", file has " +
                                std::to_string(mapped_bytes));
  }
  const uint64_t n = header.num_nodes;
  const uint64_t m = header.num_edges;
  auto check_direction = [&](const std::string& which, uint64_t offsets_at,
                             uint64_t indices_at) {
    const Status valid = la::CheckCsrArrays(
        n, n, {reinterpret_cast<const uint64_t*>(base + offsets_at), n + 1},
        {reinterpret_cast<const uint32_t*>(base + indices_at), m});
    if (valid.ok()) return valid;
    return InvalidArgumentError("'" + path + "' " + which + ": " +
                                valid.message());
  };
  TPA_RETURN_IF_ERROR(
      check_direction("out-CSR", layout.out_offsets, layout.out_indices));
  return check_direction("in-CSR", layout.in_offsets, layout.in_indices);
}

}  // namespace

StatusOr<OutOfCoreGraphBuilder> OutOfCoreGraphBuilder::Create(
    NodeId num_nodes, OutOfCoreOptions options) {
  TPA_RETURN_IF_ERROR(ValidateNodeCount(num_nodes));
  if (options.csr_path.empty()) {
    return InvalidArgumentError("OutOfCoreOptions.csr_path is required");
  }

  // The two chunk buffers are the builder's dominant heap use; give each
  // 1/8 of the budget so the merge buffers, the dangling bitset, and the
  // mapped-page working set fit comfortably in the rest.
  ExternalU64Sorter::Options sorter_options;
  if (options.memory_budget_bytes > 0) {
    const size_t chunk_bytes =
        std::max<size_t>(options.memory_budget_bytes / 8, size_t{1} << 20);
    sorter_options.chunk_records = chunk_bytes / sizeof(uint64_t);
  }
  const std::string spill_prefix =
      options.spill_dir.empty() ? options.csr_path
                                : options.spill_dir + "/tpa-ooc";

  OutOfCoreGraphBuilder builder;
  builder.num_nodes_ = num_nodes;

  sorter_options.spill_path = spill_prefix + ".spill-out";
  TPA_ASSIGN_OR_RETURN(ExternalU64Sorter fwd,
                       ExternalU64Sorter::Create(sorter_options));
  builder.fwd_ = std::make_unique<ExternalU64Sorter>(std::move(fwd));

  sorter_options.spill_path = spill_prefix + ".spill-in";
  TPA_ASSIGN_OR_RETURN(ExternalU64Sorter rev,
                       ExternalU64Sorter::Create(sorter_options));
  builder.rev_ = std::make_unique<ExternalU64Sorter>(std::move(rev));

  builder.options_ = std::move(options);
  return builder;
}

Status OutOfCoreGraphBuilder::AddEdge(NodeId u, NodeId v) {
  if (u >= num_nodes_ || v >= num_nodes_) {
    return InvalidArgumentError(
        "edge (" + std::to_string(u) + ", " + std::to_string(v) +
        ") out of range for " + std::to_string(num_nodes_) + " nodes");
  }
  if (options_.build.remove_self_loops && u == v) return OkStatus();
  TPA_RETURN_IF_ERROR(
      fwd_->Add((static_cast<uint64_t>(u) << 32) | v));
  TPA_RETURN_IF_ERROR(
      rev_->Add((static_cast<uint64_t>(v) << 32) | u));
  ++added_edges_;
  return OkStatus();
}

uint64_t OutOfCoreGraphBuilder::spilled_bytes() const {
  return (fwd_ ? fwd_->spilled_bytes() : 0) +
         (rev_ ? rev_->spilled_bytes() : 0);
}

StatusOr<OutOfCoreGraph> OutOfCoreGraphBuilder::Build() {
  const uint64_t n = num_nodes_;
  const bool dedupe = options_.build.deduplicate;
  const bool add_self_loops =
      options_.build.dangling_policy == DanglingPolicy::kAddSelfLoop;
  TPA_RETURN_IF_ERROR(fwd_->Seal());
  TPA_RETURN_IF_ERROR(rev_->Seal());
  TPA_RETURN_IF_ERROR(ValidateEdgeCount(n, fwd_->record_count()));

  // Counting pass: one streamed merge determines the cleaned edge count
  // (duplicates collapsed, dangling self-loops added), which sizes the
  // file before a single CSR byte is written.
  uint64_t kept = 0;
  uint64_t nodes_with_out = 0;
  {
    TPA_ASSIGN_OR_RETURN(ExternalU64Sorter::MergeStream stream,
                         fwd_->Merge());
    uint64_t record = 0, prev = 0;
    bool has_prev = false;
    while (stream.Next(&record)) {
      if (!has_prev || EdgeHigh(record) != EdgeHigh(prev)) ++nodes_with_out;
      if (!(dedupe && has_prev && record == prev)) ++kept;
      prev = record;
      has_prev = true;
    }
    TPA_RETURN_IF_ERROR(stream.status());
  }
  const uint64_t dangling = add_self_loops ? n - nodes_with_out : 0;
  const uint64_t m = kept + dangling;
  TPA_RETURN_IF_ERROR(ValidateEdgeCount(n, m));

  const la::Precision precision = options_.build.value_precision;
  const ValueStorage storage = options_.build.value_storage;
  const OocLayout layout = ComputeLayout(n, m, precision, storage);
  // Built in a sibling temp file and renamed over csr_path once complete,
  // as BinaryFileWriter does: a process still serving an older file at
  // csr_path from a mapping keeps reading the old inode, never a
  // truncated one.
  RemoveOnExit temp{SiblingTempPath(options_.csr_path)};
  TPA_ASSIGN_OR_RETURN(MappedFile mapped,
                       MappedFile::Create(temp.path, layout.total));
  auto file = std::make_shared<MappedFile>(std::move(mapped));
  uint8_t* base = file->mutable_data();
  if (options_.steward != nullptr) {
    options_.steward->RegisterRegion(file, base, file->size());
  }

  uint64_t* out_offsets =
      reinterpret_cast<uint64_t*>(base + layout.out_offsets);
  uint32_t* out_indices =
      reinterpret_cast<uint32_t*>(base + layout.out_indices);
  uint64_t* in_offsets = reinterpret_cast<uint64_t*>(base + layout.in_offsets);
  uint32_t* in_indices = reinterpret_cast<uint32_t*>(base + layout.in_indices);

  // One bit per node: which rows received a dangling self-loop in the out
  // pass (the transpose pass must merge the same loops in).  The only O(n)
  // heap the build keeps.
  std::vector<uint64_t> dangling_bits;
  if (add_self_loops) dangling_bits.assign((n + 63) / 64, 0);
  auto mark_dangling = [&dangling_bits](uint64_t u) {
    dangling_bits[u >> 6] |= uint64_t{1} << (u & 63);
  };
  auto is_dangling = [&dangling_bits](uint64_t u) {
    return (dangling_bits[u >> 6] >> (u & 63)) & 1;
  };

  // Out pass: sequential write of offsets and indices off the (u, v)-sorted
  // stream, collapsing duplicates and appending a self-loop to every row
  // that would otherwise stay empty — the streaming equivalent of the
  // in-RAM builder's erase/unique/inplace_merge cleaning.
  {
    TPA_ASSIGN_OR_RETURN(ExternalU64Sorter::MergeStream stream,
                         fwd_->Merge());
    uint64_t record = 0;
    bool have = stream.Next(&record);
    uint64_t pos = 0;
    out_offsets[0] = 0;
    for (uint64_t u = 0; u < n; ++u) {
      uint64_t row_begin = pos;
      uint64_t prev = 0;
      bool has_prev = false;
      while (have && EdgeHigh(record) == u) {
        if (!(dedupe && has_prev && record == prev)) {
          out_indices[pos++] = EdgeLow(record);
        }
        prev = record;
        has_prev = true;
        have = stream.Next(&record);
      }
      if (pos == row_begin && add_self_loops) {
        out_indices[pos++] = static_cast<uint32_t>(u);
        mark_dangling(u);
      }
      TPA_RETURN_IF_ERROR(ValidateRowDegree(u, pos - row_begin));
      out_offsets[u + 1] = pos;
    }
    TPA_RETURN_IF_ERROR(stream.status());
    if (have || pos != m) {
      return InternalError(
          "out-of-core out pass wrote " + std::to_string(pos) +
          " edges, counting pass said " + std::to_string(m));
    }
  }

  // In pass: same streaming cleanup off the (v, u)-sorted transpose order,
  // with each dangling row's self-loop inserted at its sorted position
  // among the sources.
  {
    TPA_ASSIGN_OR_RETURN(ExternalU64Sorter::MergeStream stream,
                         rev_->Merge());
    uint64_t record = 0;
    bool have = stream.Next(&record);
    uint64_t pos = 0;
    in_offsets[0] = 0;
    for (uint64_t v = 0; v < n; ++v) {
      const uint64_t row_begin = pos;
      bool inserted = !(add_self_loops && is_dangling(v));
      uint64_t prev = 0;
      bool has_prev = false;
      while (have && EdgeHigh(record) == v) {
        const uint32_t u = EdgeLow(record);
        if (!(dedupe && has_prev && record == prev)) {
          if (!inserted && u > v) {
            in_indices[pos++] = static_cast<uint32_t>(v);
            inserted = true;
          }
          in_indices[pos++] = u;
        }
        prev = record;
        has_prev = true;
        have = stream.Next(&record);
      }
      if (!inserted) in_indices[pos++] = static_cast<uint32_t>(v);
      TPA_RETURN_IF_ERROR(ValidateRowDegree(v, pos - row_begin));
      in_offsets[v + 1] = pos;
    }
    TPA_RETURN_IF_ERROR(stream.status());
    if (have || pos != m) {
      return InternalError(
          "out-of-core in pass wrote " + std::to_string(pos) +
          " edges, counting pass said " + std::to_string(m));
    }
  }

  // Value passes, same expressions as the in-RAM Graph's tier
  // materialization.
  auto* values64 = reinterpret_cast<double*>(base + layout.values);
  auto* values32 = reinterpret_cast<float*>(base + layout.values);
  if (storage == ValueStorage::kExplicit) {
    if (precision == la::Precision::kFloat64) {
      WriteOutValues(out_offsets, n, values64);
    } else {
      WriteOutValues(out_offsets, n, values32);
    }
  } else {
    if (precision == la::Precision::kFloat64) {
      WriteScales(out_offsets, n, values64);
    } else {
      WriteScales(out_offsets, n, values32);
    }
  }

  OocHeader header = {};
  std::memcpy(header.magic, kOocMagic, sizeof(kOocMagic));
  header.endian_tag = kOocEndianTag;
  header.version = kOocVersion;
  header.num_nodes = n;
  header.num_edges = m;
  header.precision = static_cast<uint32_t>(precision);
  header.value_storage = static_cast<uint32_t>(storage);
  header.file_bytes = layout.total;
  std::memcpy(base, &header, sizeof(header));

  if (options_.sync_on_finish) TPA_RETURN_IF_ERROR(file->Sync());
  if (std::rename(temp.path.c_str(), options_.csr_path.c_str()) != 0) {
    return InternalError("cannot rename the built CSR over '" +
                         options_.csr_path + "': " + std::strerror(errno));
  }
  temp.path.clear();

  // The spill files are no longer needed; drop them before the graph goes
  // to work so the disk footprint is just the CSR.
  fwd_.reset();
  rev_.reset();

  return AssembleGraph(std::move(file), base);
}

StatusOr<OutOfCoreGraph> OpenOutOfCoreGraph(const std::string& csr_path) {
  TPA_ASSIGN_OR_RETURN(MappedFile mapped, MappedFile::Open(csr_path));
  if (mapped.size() < sizeof(OocHeader)) {
    return InvalidArgumentError("'" + csr_path +
                                "' is too small to be a TPACSR1 file");
  }
  auto file = std::make_shared<MappedFile>(std::move(mapped));
  const uint8_t* base = file->data();
  TPA_RETURN_IF_ERROR(ValidateOocFile(base, file->size(), csr_path));
  return AssembleGraph(std::move(file), base);
}

}  // namespace tpa
