#include "snapshot/snapshot.h"

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "graph/permutation.h"
#include "la/shared_array.h"
#include "snapshot/format.h"
#include "snapshot/graph_factory.h"
#include "util/failpoint.h"
#include "util/mem_stats.h"
#include "util/serial.h"

namespace tpa::snapshot {

namespace {

/// A section queued for writing: id plus a borrowed byte range.
struct PendingSection {
  SectionId id;
  const void* data;
  uint64_t size_bytes;
};

uint64_t AlignUp(uint64_t offset, uint64_t alignment) {
  return (offset + alignment - 1) / alignment * alignment;
}

template <typename T>
void PushArraySection(std::vector<PendingSection>& sections, SectionId id,
                      const T* data, size_t count) {
  sections.push_back({id, data, count * sizeof(T)});
}

/// A snapshot file parsed, bounds-checked, and (optionally) payload-
/// verified.  Section payload pointers index into `file`'s mapping.
struct ParsedSnapshot {
  std::shared_ptr<const MappedFile> file;
  SnapshotHeader header;
  std::vector<SectionDesc> table;
  MetaSection meta;

  const SectionDesc* Find(SectionId id) const {
    for (const SectionDesc& desc : table) {
      if (desc.id == static_cast<uint32_t>(id)) return &desc;
    }
    return nullptr;
  }
  const uint8_t* Payload(const SectionDesc& desc) const {
    return file->data() + desc.offset;
  }
};

Status CorruptError(const std::string& path, const std::string& what) {
  return InvalidArgumentError("snapshot '" + path + "': " + what);
}

/// The exact sections (and byte sizes) a file with this meta must carry —
/// presence and sizes are always enforced, so the typed readers below can
/// index payloads without further bounds checks.  The caller bounds
/// meta.num_edges by the file size first, so no size product can wrap.
std::vector<SectionDesc> ExpectedSections(const MetaSection& meta) {
  const uint64_t n = meta.num_nodes;
  const uint64_t m = meta.num_edges;
  std::vector<SectionDesc> expected;
  auto expect = [&expected](SectionId id, uint64_t size_bytes) {
    expected.push_back({static_cast<uint32_t>(id), 0, 0, size_bytes, 0, 0});
  };
  expect(SectionId::kMeta, sizeof(MetaSection));
  expect(SectionId::kOutOffsets, (n + 1) * sizeof(uint64_t));
  expect(SectionId::kOutIndices, m * sizeof(uint32_t));
  expect(SectionId::kInOffsets, (n + 1) * sizeof(uint64_t));
  expect(SectionId::kInIndices, m * sizeof(uint32_t));
  const bool explicit_values =
      meta.value_storage == static_cast<uint32_t>(ValueStorage::kExplicit);
  if (meta.has_fp64) {
    if (explicit_values) {
      expect(SectionId::kOutValuesF64, m * sizeof(double));
    } else {
      expect(SectionId::kScalesF64, n * sizeof(double));
    }
  }
  if (meta.has_fp32) {
    if (explicit_values) {
      expect(SectionId::kOutValuesF32, m * sizeof(float));
    } else {
      expect(SectionId::kScalesF32, n * sizeof(float));
    }
  }
  const bool fp64_precision =
      meta.precision == static_cast<uint32_t>(la::Precision::kFloat64);
  expect(fp64_precision ? SectionId::kStrangerF64 : SectionId::kStrangerF32,
         n * (fp64_precision ? sizeof(double) : sizeof(float)));
  expect(SectionId::kStrangerOrder, n * sizeof(NodeId));
  if (meta.has_permutation) {
    expect(SectionId::kPermutation, n * sizeof(NodeId));
  }
  return expected;
}

/// la::CheckCsrArrays over one mapped direction, so a corrupt file can never
/// reach the CHECK-ing constructors or the kernels' unchecked indexing.
Status CheckCsrDirection(const uint64_t* offsets, uint64_t n,
                         const uint32_t* indices, uint64_t m,
                         const std::string& path, const std::string& which) {
  const Status valid = la::CheckCsrArrays(n, n, {offsets, n + 1}, {indices, m});
  if (!valid.ok()) return CorruptError(path, which + ": " + valid.message());
  return OkStatus();
}

/// Ranks/permutations must be bijections over [0, n).
Status CheckNodePermutation(const uint32_t* nodes, uint64_t n,
                            const std::string& path,
                            const std::string& which) {
  std::vector<bool> seen(n, false);
  for (uint64_t i = 0; i < n; ++i) {
    if (nodes[i] >= n || seen[nodes[i]]) {
      return CorruptError(path, which + " is not a permutation of [0, n)");
    }
    seen[nodes[i]] = true;
  }
  return OkStatus();
}

/// Opens and parses `path`: header, section table, meta, section presence
/// and exact sizes — always; payload checksums and structural invariants
/// when `verify_payload`.
StatusOr<ParsedSnapshot> ParseSnapshot(const std::string& path,
                                       bool verify_payload,
                                       ResidentSteward* steward = nullptr) {
  ParsedSnapshot parsed;
  {
    TPA_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
    parsed.file = std::make_shared<const MappedFile>(std::move(file));
  }
  if (steward != nullptr) {
    // Register before the verification sweep below pages the payload in,
    // so a snapshot larger than the budget can still be verified inside it.
    steward->RegisterRegion(parsed.file, parsed.file->data(),
                            parsed.file->size());
  }
  const MappedFile& file = *parsed.file;
  if (file.size() < sizeof(SnapshotHeader)) {
    return CorruptError(path, "smaller than the 64-byte header");
  }
  std::memcpy(&parsed.header, file.data(), sizeof(SnapshotHeader));
  const SnapshotHeader& header = parsed.header;
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return CorruptError(path, "bad magic (not a TPA snapshot)");
  }
  if (header.endian_tag != kEndianTag) {
    if (header.endian_tag == 0x04030201u) {
      return CorruptError(path,
                          "written on the opposite-endianness architecture");
    }
    return CorruptError(path, "bad endianness tag");
  }
  if (header.format_version != kFormatVersion) {
    return CorruptError(
        path, "unsupported format version " +
                  std::to_string(header.format_version) + " (reader supports " +
                  std::to_string(kFormatVersion) + ")");
  }
  if (header.file_bytes != file.size()) {
    return CorruptError(path, "truncated (header records " +
                                  std::to_string(header.file_bytes) +
                                  " bytes, file has " +
                                  std::to_string(file.size()) + ")");
  }
  if (header.section_table_offset != sizeof(SnapshotHeader)) {
    return CorruptError(path, "section table is not at offset 64");
  }
  if (header.section_count == 0 || header.section_count > 64) {
    return CorruptError(path, "implausible section count");
  }
  const uint64_t table_bytes =
      static_cast<uint64_t>(header.section_count) * sizeof(SectionDesc);
  if (header.section_table_offset + table_bytes > file.size()) {
    return CorruptError(path, "section table extends past end of file");
  }
  const uint8_t* table_start = file.data() + header.section_table_offset;
  if (Crc32(table_start, table_bytes) != header.section_table_crc) {
    return CorruptError(path, "section table checksum mismatch");
  }
  parsed.table.resize(header.section_count);
  std::memcpy(parsed.table.data(), table_start, table_bytes);
  for (const SectionDesc& desc : parsed.table) {
    if (desc.offset % kSectionAlignment != 0) {
      return CorruptError(path, "misaligned section payload");
    }
    if (desc.offset > file.size() ||
        desc.size_bytes > file.size() - desc.offset) {
      return CorruptError(path, "section payload extends past end of file");
    }
  }

  const SectionDesc* meta_desc = parsed.Find(SectionId::kMeta);
  if (meta_desc == nullptr || meta_desc->size_bytes != sizeof(MetaSection)) {
    return CorruptError(path, "missing or malformed meta section");
  }
  std::memcpy(&parsed.meta, parsed.Payload(*meta_desc), sizeof(MetaSection));
  const MetaSection& meta = parsed.meta;
  if (meta.precision > static_cast<uint32_t>(la::Precision::kFloat32) ||
      meta.value_storage >
          static_cast<uint32_t>(ValueStorage::kRowConstant)) {
    return CorruptError(path, "meta enum field out of range");
  }
  if (meta.num_nodes == 0 || meta.num_nodes > UINT32_MAX) {
    return CorruptError(path, "node count out of the NodeId range");
  }
  // Bounds the edge count before ExpectedSections forms m·4 and m·8: a
  // count the file cannot hold could otherwise wrap those products back
  // onto plausible section sizes.
  if (meta.num_edges > file.size() / sizeof(uint32_t)) {
    return CorruptError(path, "edge count " + std::to_string(meta.num_edges) +
                                  " exceeds what a " +
                                  std::to_string(file.size()) +
                                  "-byte file can hold");
  }
  const bool fp64_precision =
      meta.precision == static_cast<uint32_t>(la::Precision::kFloat64);
  if (fp64_precision ? !meta.has_fp64 : !meta.has_fp32) {
    return CorruptError(path,
                        "primary precision tier is not marked materialized");
  }

  const std::vector<SectionDesc> expected = ExpectedSections(meta);
  if (expected.size() != parsed.table.size()) {
    return CorruptError(path, "section table does not match configuration");
  }
  for (const SectionDesc& want : expected) {
    const SectionDesc* have =
        parsed.Find(static_cast<SectionId>(want.id));
    if (have == nullptr || have->size_bytes != want.size_bytes) {
      return CorruptError(
          path, "missing or mis-sized section id " + std::to_string(want.id));
    }
  }

  if (!verify_payload) return parsed;

  for (const SectionDesc& desc : parsed.table) {
    if (Crc32(parsed.Payload(desc), desc.size_bytes) != desc.crc) {
      return CorruptError(path, "payload checksum mismatch in section id " +
                                    std::to_string(desc.id));
    }
  }
  const uint64_t n = meta.num_nodes;
  const uint64_t m = meta.num_edges;
  const auto* out_offsets = reinterpret_cast<const uint64_t*>(
      parsed.Payload(*parsed.Find(SectionId::kOutOffsets)));
  const auto* out_indices = reinterpret_cast<const uint32_t*>(
      parsed.Payload(*parsed.Find(SectionId::kOutIndices)));
  const auto* in_offsets = reinterpret_cast<const uint64_t*>(
      parsed.Payload(*parsed.Find(SectionId::kInOffsets)));
  const auto* in_indices = reinterpret_cast<const uint32_t*>(
      parsed.Payload(*parsed.Find(SectionId::kInIndices)));
  TPA_RETURN_IF_ERROR(
      CheckCsrDirection(out_offsets, n, out_indices, m, path, "out-CSR"));
  TPA_RETURN_IF_ERROR(
      CheckCsrDirection(in_offsets, n, in_indices, m, path, "in-CSR"));
  TPA_RETURN_IF_ERROR(CheckNodePermutation(
      reinterpret_cast<const uint32_t*>(
          parsed.Payload(*parsed.Find(SectionId::kStrangerOrder))),
      n, path, "stranger order"));
  if (meta.has_permutation) {
    TPA_RETURN_IF_ERROR(CheckNodePermutation(
        reinterpret_cast<const uint32_t*>(
            parsed.Payload(*parsed.Find(SectionId::kPermutation))),
        n, path, "permutation"));
  }
  return parsed;
}

SnapshotInfo InfoFromParsed(const ParsedSnapshot& parsed) {
  const MetaSection& meta = parsed.meta;
  SnapshotInfo info;
  info.num_nodes = meta.num_nodes;
  info.num_edges = meta.num_edges;
  info.precision = static_cast<la::Precision>(meta.precision);
  info.value_storage = static_cast<ValueStorage>(meta.value_storage);
  info.has_fp64 = meta.has_fp64 != 0;
  info.has_fp32 = meta.has_fp32 != 0;
  info.has_permutation = meta.has_permutation != 0;
  info.options.restart_probability = meta.restart_probability;
  info.options.tolerance = meta.tolerance;
  info.options.family_window = meta.family_window;
  info.options.stranger_start = meta.stranger_start;
  info.options.frontier_density_threshold = meta.frontier_density_threshold;
  info.options.topk_frontier_density_threshold =
      meta.topk_frontier_density_threshold;
  info.file_bytes = parsed.header.file_bytes;
  info.section_count = parsed.header.section_count;
  return info;
}

/// A section payload as a SharedArray at the chosen materialization: a
/// non-owning view pinning the mapping (kMap) or an owned heap copy
/// (kCopy).
template <typename T>
la::SharedArray<T> SectionArray(const ParsedSnapshot& parsed, SectionId id,
                                LoadMode mode) {
  const SectionDesc& desc = *parsed.Find(id);
  const T* data = reinterpret_cast<const T*>(parsed.Payload(desc));
  const size_t count = desc.size_bytes / sizeof(T);
  if (mode == LoadMode::kMap) {
    return la::SharedArray<T>::View(parsed.file, data, count);
  }
  return la::SharedArray<T>(std::vector<T>(data, data + count));
}

/// A section payload copied into a vector (the O(n) arrays Tpa and
/// Permutation keep as plain vectors regardless of load mode).
template <typename T>
std::vector<T> SectionVector(const ParsedSnapshot& parsed, SectionId id) {
  const SectionDesc& desc = *parsed.Find(id);
  const T* data = reinterpret_cast<const T*>(parsed.Payload(desc));
  return std::vector<T>(data, data + desc.size_bytes / sizeof(T));
}

}  // namespace

Status WriteSnapshot(const Tpa& tpa, const std::string& path) {
  const Graph& graph = tpa.graph();
  const la::CsrStructure& out_structure = GraphFactory::OutStructure(graph);
  const la::CsrStructure& in_structure = GraphFactory::InStructure(graph);
  const uint64_t n = graph.num_nodes();
  const uint64_t m = graph.num_edges();
  const bool explicit_values =
      graph.value_storage() == ValueStorage::kExplicit;
  const bool has_fp64 = graph.HasTier(la::Precision::kFloat64);
  const bool has_fp32 = graph.HasTier(la::Precision::kFloat32);

  MetaSection meta = {};
  meta.num_nodes = n;
  meta.num_edges = m;
  meta.precision = static_cast<uint32_t>(graph.value_precision());
  meta.value_storage = static_cast<uint32_t>(graph.value_storage());
  meta.has_fp64 = has_fp64 ? 1 : 0;
  meta.has_fp32 = has_fp32 ? 1 : 0;
  meta.has_permutation = graph.permutation() != nullptr ? 1 : 0;
  const TpaOptions& options = tpa.options();
  meta.restart_probability = options.restart_probability;
  meta.tolerance = options.tolerance;
  meta.family_window = options.family_window;
  meta.stranger_start = options.stranger_start;
  meta.frontier_density_threshold = options.frontier_density_threshold;
  meta.topk_frontier_density_threshold =
      options.topk_frontier_density_threshold;

  std::vector<PendingSection> sections;
  sections.push_back({SectionId::kMeta, &meta, sizeof(meta)});
  PushArraySection(sections, SectionId::kOutOffsets,
                   out_structure.row_offsets.data(), n + 1);
  PushArraySection(sections, SectionId::kOutIndices,
                   out_structure.col_indices.data(), m);
  PushArraySection(sections, SectionId::kInOffsets,
                   in_structure.row_offsets.data(), n + 1);
  PushArraySection(sections, SectionId::kInIndices,
                   in_structure.col_indices.data(), m);
  if (has_fp64) {
    if (explicit_values) {
      PushArraySection(sections, SectionId::kOutValuesF64,
                       graph.Transition().values().data(), m);
    } else {
      PushArraySection(sections, SectionId::kScalesF64,
                       graph.Transition().scales().data(), n);
    }
  }
  if (has_fp32) {
    if (explicit_values) {
      PushArraySection(sections, SectionId::kOutValuesF32,
                       graph.TransitionF().values().data(), m);
    } else {
      PushArraySection(sections, SectionId::kScalesF32,
                       graph.TransitionF().scales().data(), n);
    }
  }
  if (tpa.precision() == la::Precision::kFloat64) {
    PushArraySection(sections, SectionId::kStrangerF64,
                     tpa.stranger_scores().data(), n);
  } else {
    PushArraySection(sections, SectionId::kStrangerF32,
                     tpa.stranger_scores_f32().data(), n);
  }
  PushArraySection(sections, SectionId::kStrangerOrder,
                   tpa.stranger_order().data(), n);
  if (graph.permutation() != nullptr) {
    PushArraySection(sections, SectionId::kPermutation,
                     graph.permutation()->external_of_internal().data(), n);
  }

  // Lay out the file and checksum every payload before the first write, so
  // the header and table land in one forward pass.
  std::vector<SectionDesc> table(sections.size());
  uint64_t offset = AlignUp(
      sizeof(SnapshotHeader) + sections.size() * sizeof(SectionDesc),
      kSectionAlignment);
  for (size_t i = 0; i < sections.size(); ++i) {
    table[i] = {};
    table[i].id = static_cast<uint32_t>(sections[i].id);
    table[i].offset = offset;
    table[i].size_bytes = sections[i].size_bytes;
    table[i].crc = Crc32(sections[i].data, sections[i].size_bytes);
    offset = AlignUp(offset + sections[i].size_bytes, kSectionAlignment);
  }
  const uint64_t last = table.back().offset + table.back().size_bytes;

  SnapshotHeader header = {};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.endian_tag = kEndianTag;
  header.format_version = kFormatVersion;
  header.file_bytes = last;
  header.section_table_offset = sizeof(SnapshotHeader);
  header.section_count = static_cast<uint32_t>(table.size());
  header.section_table_crc =
      Crc32(table.data(), table.size() * sizeof(SectionDesc));

  TPA_ASSIGN_OR_RETURN(BinaryFileWriter writer,
                       BinaryFileWriter::Create(path));
  TPA_RETURN_IF_ERROR(writer.WriteBytes(&header, sizeof(header)));
  TPA_RETURN_IF_ERROR(
      writer.WriteBytes(table.data(), table.size() * sizeof(SectionDesc)));
  for (size_t i = 0; i < sections.size(); ++i) {
    TPA_RETURN_IF_ERROR(writer.AlignTo(kSectionAlignment));
    TPA_RETURN_IF_ERROR(
        writer.WriteBytes(sections[i].data, sections[i].size_bytes));
  }
  return writer.Close();
}

StatusOr<LoadedSnapshot> LoadSnapshot(const std::string& path,
                                      const LoadOptions& options) {
  TPA_FAILPOINT("snapshot.load");
  const LoadMode mode = options.mode;
  TPA_ASSIGN_OR_RETURN(
      ParsedSnapshot parsed,
      ParseSnapshot(path, options.verify, options.steward));
  const MetaSection& meta = parsed.meta;
  const uint64_t n = meta.num_nodes;
  if (mode == LoadMode::kMap && options.advice != MappedAdvice::kNormal) {
    (void)parsed.file->Advise(options.advice);  // best-effort
  }

  GraphFactory::Parts parts;
  parts.num_nodes = static_cast<NodeId>(n);
  parts.precision = static_cast<la::Precision>(meta.precision);
  parts.value_storage = static_cast<ValueStorage>(meta.value_storage);
  parts.has_fp64 = meta.has_fp64 != 0;
  parts.has_fp32 = meta.has_fp32 != 0;
  parts.out_structure.rows = static_cast<uint32_t>(n);
  parts.out_structure.cols = static_cast<uint32_t>(n);
  parts.out_structure.row_offsets =
      SectionArray<uint64_t>(parsed, SectionId::kOutOffsets, mode);
  parts.out_structure.col_indices =
      SectionArray<uint32_t>(parsed, SectionId::kOutIndices, mode);
  parts.in_structure.rows = static_cast<uint32_t>(n);
  parts.in_structure.cols = static_cast<uint32_t>(n);
  parts.in_structure.row_offsets =
      SectionArray<uint64_t>(parsed, SectionId::kInOffsets, mode);
  parts.in_structure.col_indices =
      SectionArray<uint32_t>(parsed, SectionId::kInIndices, mode);
  const bool explicit_values =
      parts.value_storage == ValueStorage::kExplicit;
  if (parts.has_fp64) {
    if (explicit_values) {
      parts.out_values64 =
          SectionArray<double>(parsed, SectionId::kOutValuesF64, mode);
    } else {
      parts.scales64 =
          SectionArray<double>(parsed, SectionId::kScalesF64, mode);
    }
  }
  if (parts.has_fp32) {
    if (explicit_values) {
      parts.out_values32 =
          SectionArray<float>(parsed, SectionId::kOutValuesF32, mode);
    } else {
      parts.scales32 =
          SectionArray<float>(parsed, SectionId::kScalesF32, mode);
    }
  }
  if (meta.has_permutation) {
    TPA_ASSIGN_OR_RETURN(
        Permutation permutation,
        Permutation::FromInternalOrder(
            SectionVector<NodeId>(parsed, SectionId::kPermutation)));
    parts.permutation =
        std::make_shared<const Permutation>(std::move(permutation));
  }

  LoadedSnapshot loaded;
  loaded.info = InfoFromParsed(parsed);
  loaded.graph = GraphFactory::Make(std::move(parts));

  std::vector<double> stranger;
  std::vector<float> stranger_f;
  if (meta.precision == static_cast<uint32_t>(la::Precision::kFloat64)) {
    stranger = SectionVector<double>(parsed, SectionId::kStrangerF64);
  } else {
    stranger_f = SectionVector<float>(parsed, SectionId::kStrangerF32);
  }
  TPA_ASSIGN_OR_RETURN(
      Tpa tpa,
      Tpa::FromPreprocessedState(
          *loaded.graph, loaded.info.options, std::move(stranger),
          std::move(stranger_f),
          SectionVector<NodeId>(parsed, SectionId::kStrangerOrder)));
  loaded.tpa = std::make_unique<Tpa>(std::move(tpa));
  if (mode == LoadMode::kMap) loaded.mapped_file = parsed.file;
  return loaded;
}

StatusOr<SnapshotInfo> ReadSnapshotInfo(const std::string& path) {
  TPA_ASSIGN_OR_RETURN(ParsedSnapshot parsed, ParseSnapshot(path, false));
  return InfoFromParsed(parsed);
}

Status VerifySnapshot(const std::string& path) {
  TPA_ASSIGN_OR_RETURN(ParsedSnapshot parsed, ParseSnapshot(path, true));
  (void)parsed;
  return OkStatus();
}

}  // namespace tpa::snapshot

namespace tpa {

Status Tpa::SaveSnapshot(const std::string& path) const {
  return snapshot::WriteSnapshot(*this, path);
}

StatusOr<snapshot::LoadedSnapshot> Tpa::LoadSnapshot(
    const std::string& path) {
  return snapshot::LoadSnapshot(path);
}

StatusOr<snapshot::LoadedSnapshot> Tpa::LoadSnapshot(
    const std::string& path, const snapshot::LoadOptions& options) {
  return snapshot::LoadSnapshot(path, options);
}

}  // namespace tpa
