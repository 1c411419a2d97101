#include "snapshot/snapshot.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "la/shared_array.h"
#include "snapshot/format.h"
#include "snapshot/graph_factory.h"
#include "util/failpoint.h"
#include "util/mem_stats.h"
#include "util/serial.h"
#include "util/worker_team.h"

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

Status ChecksumError(const std::string& path, const std::string& what) {
  return DataLossError("snapshot '" + path + "': " + what);
}

/// A team to checksum `ranges` on: one member per hardware thread, but no
/// more members than the ranges have 1 MiB pieces.
std::unique_ptr<WorkerTeam> TeamFor(std::span<const ByteRange> ranges) {
  const size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  return std::make_unique<WorkerTeam>(static_cast<int>(
      std::clamp<size_t>(Crc32PieceCount(ranges), 1, hardware)));
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

/// The stranger order must be a bijection over [0, n).
Status CheckStrangerOrder(const uint32_t* nodes, uint64_t n,
                          const std::string& path) {
  std::vector<bool> seen(n, false);
  for (uint64_t i = 0; i < n; ++i) {
    if (nodes[i] >= n || seen[nodes[i]]) {
      return CorruptError(path,
                          "stranger order is not a permutation of [0, n)");
    }
    seen[nodes[i]] = true;
  }
  return OkStatus();
}

/// The CSR invariants of a checksummed file, on `team`: a branch-free
/// pre-pass over both directions in row and edge chunks.  A direction the
/// pre-pass faults is rechecked by the serial CheckCsrDirection for its
/// message, and faults are reported in a fixed order (out-CSR, then
/// in-CSR), so the Status does not depend on the team size.  The stranger
/// order is checked once per path after this: by VerifySnapshot, or by
/// Tpa::FromPreprocessedState on a load.
Status CheckStructure(const ParsedSnapshot& parsed, WorkerTeam& team,
                      const std::string& path) {
  const uint64_t n = parsed.meta.num_nodes;
  const uint64_t m = parsed.meta.num_edges;
  const auto payload = [&parsed](SectionId id) {
    return parsed.Payload(*parsed.Find(id));
  };
  const uint64_t* offsets[2] = {
      reinterpret_cast<const uint64_t*>(payload(SectionId::kOutOffsets)),
      reinterpret_cast<const uint64_t*>(payload(SectionId::kInOffsets))};
  const uint32_t* indices[2] = {
      reinterpret_cast<const uint32_t*>(payload(SectionId::kOutIndices)),
      reinterpret_cast<const uint32_t*>(payload(SectionId::kInIndices))};
  // Per direction: the row chunks, then the edge chunks, 1 MiB each.
  constexpr uint64_t kRowChunk = kCrc32PieceBytes / sizeof(uint64_t);
  constexpr uint64_t kEdgeChunk = kCrc32PieceBytes / sizeof(uint32_t);
  const uint64_t row_chunks = (n + kRowChunk - 1) / kRowChunk;
  const uint64_t chunks = row_chunks + (m + kEdgeChunk - 1) / kEdgeChunk;
  std::atomic<bool> faulty[2] = {false, false};
  std::atomic<uint64_t> next{0};
  team.Run([&](int) {
    for (uint64_t i = next++; i < 2 * chunks; i = next++) {
      const uint64_t d = i / chunks;
      const uint64_t k = i % chunks;
      uint32_t bad = 0;
      if (k < row_chunks) {
        const uint64_t end = std::min(n, (k + 1) * kRowChunk);
        for (uint64_t r = k * kRowChunk; r < end; ++r) {
          bad |= static_cast<uint32_t>(offsets[d][r] > offsets[d][r + 1]);
        }
      } else {
        const uint64_t begin = (k - row_chunks) * kEdgeChunk;
        const uint64_t end = std::min(m, begin + kEdgeChunk);
        for (uint64_t e = begin; e < end; ++e) {
          bad |= static_cast<uint32_t>(indices[d][e] >= n);
        }
      }
      if (bad != 0) faulty[d] = true;
    }
  });
  for (int d = 0; d < 2; ++d) {
    if (faulty[d] || offsets[d][0] != 0 || offsets[d][n] != m) {
      TPA_RETURN_IF_ERROR(CheckCsrDirection(offsets[d], n, indices[d], m, path,
                                            d == 0 ? "out-CSR" : "in-CSR"));
    }
  }
  return OkStatus();
}

/// Opens and parses `path`: header, section table, the meta checksum and
/// fields, section presence and exact sizes — always; payload checksums
/// and the CSR invariants when `verify_payload`, on `team` (null: a team
/// sized to the host and the file).
StatusOr<ParsedSnapshot> ParseSnapshot(const std::string& path,
                                       bool verify_payload,
                                       ResidentSteward* steward = nullptr,
                                       WorkerTeam* team = nullptr) {
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
  if (std::any_of(std::begin(header.reserved), std::end(header.reserved),
                  [](uint8_t byte) { return byte != 0; })) {
    return CorruptError(path, "header reserved bytes are not zero");
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
    return ChecksumError(path, "section table checksum mismatch");
  }
  parsed.table.resize(header.section_count);
  std::memcpy(parsed.table.data(), table_start, table_bytes);
  for (const SectionDesc& desc : parsed.table) {
    if (desc.reserved0 != 0 || desc.reserved1 != 0) {
      return CorruptError(path, "section table reserved field is not zero");
    }
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
  // Every field below sizes or types the file, so its checksum comes first:
  // a flipped meta byte is data loss, not the structural fault it causes.
  if (Crc32(parsed.Payload(*meta_desc), sizeof(MetaSection)) !=
      meta_desc->crc) {
    return ChecksumError(path, "payload checksum mismatch in section id " +
                                   std::to_string(meta_desc->id));
  }
  std::memcpy(&parsed.meta, parsed.Payload(*meta_desc), sizeof(MetaSection));
  const MetaSection& meta = parsed.meta;
  if (meta.precision > static_cast<uint32_t>(la::Precision::kFloat32) ||
      meta.value_storage >
          static_cast<uint32_t>(ValueStorage::kRowConstant)) {
    return CorruptError(path, "meta enum field out of range");
  }
  if (meta.pad0 != 0 || meta.reserved0 != 0 || meta.pad1 != 0) {
    return CorruptError(path, "meta reserved field is not zero");
  }
  if (meta.retired_permutation != 0) {
    return CorruptError(path,
                        "stores a node permutation, which is retired (nodes "
                        "keep their input ids); rebuild the snapshot");
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

  std::vector<ByteRange> payloads;
  for (const SectionDesc& desc : parsed.table) {
    payloads.push_back({parsed.Payload(desc), desc.size_bytes});
  }
  std::unique_ptr<WorkerTeam> own_team;
  if (team == nullptr) {
    own_team = TeamFor(payloads);
    team = own_team.get();
  }
  const std::vector<uint32_t> crcs = Crc32OnTeam(payloads, *team);
  for (size_t i = 0; i < parsed.table.size(); ++i) {
    if (crcs[i] != parsed.table[i].crc) {
      return ChecksumError(path, "payload checksum mismatch in section id " +
                                     std::to_string(parsed.table[i].id));
    }
  }
  TPA_RETURN_IF_ERROR(CheckStructure(parsed, *team, path));
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

/// A section payload copied into a vector (the O(n) arrays Tpa keeps as
/// plain vectors regardless of load mode).
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

  // Lay out the file and checksum every payload before the first write, so
  // the header and table land in one forward pass.
  std::vector<ByteRange> payloads;
  for (const PendingSection& section : sections) {
    payloads.push_back({section.data, section.size_bytes});
  }
  const std::vector<uint32_t> crcs = Crc32OnTeam(payloads, *TeamFor(payloads));
  std::vector<SectionDesc> table(sections.size());
  uint64_t offset = AlignUp(
      sizeof(SnapshotHeader) + sections.size() * sizeof(SectionDesc),
      kSectionAlignment);
  for (size_t i = 0; i < sections.size(); ++i) {
    table[i] = {};
    table[i].id = static_cast<uint32_t>(sections[i].id);
    table[i].offset = offset;
    table[i].size_bytes = sections[i].size_bytes;
    table[i].crc = crcs[i];
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

Status VerifySnapshot(const std::string& path, WorkerTeam* team) {
  TPA_ASSIGN_OR_RETURN(ParsedSnapshot parsed,
                       ParseSnapshot(path, true, nullptr, team));
  return CheckStrangerOrder(
      reinterpret_cast<const uint32_t*>(
          parsed.Payload(*parsed.Find(SectionId::kStrangerOrder))),
      parsed.meta.num_nodes, path);
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
