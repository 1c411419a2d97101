#ifndef TPA_SNAPSHOT_FORMAT_H_
#define TPA_SNAPSHOT_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace tpa::snapshot {

/// On-disk snapshot format, version 2.  Version 1 also stored a weighted
/// in-CSR (section ids 7 and 9, retired) for a gather propagation flavor
/// that no longer exists; readers reject it through the version check.
/// Version 2 files could also carry a build-time node permutation (section
/// 15, flagged by the meta word now named retired_permutation); readers
/// reject such a file by that word.
///
/// Layout:
///   [SnapshotHeader: 64 bytes]
///   [SectionDesc × section_count]        (the section table)
///   [section payloads, each 64-byte aligned, in table order]
///
/// All multi-byte fields are host-endian; the header's endian_tag detects a
/// file written on the other endianness (rejected — snapshots are a
/// same-architecture serving format, not an interchange format).  Sections
/// are raw little arrays of the in-memory element types, so a mapped file
/// can be served zero-copy: 64-byte section alignment satisfies (with room
/// to spare) every element type's alignment requirement and keeps each
/// section cacheline-clean.

inline constexpr char kMagic[8] = {'T', 'P', 'A', 'S', 'N', 'A', 'P', '1'};
inline constexpr uint32_t kEndianTag = 0x01020304u;
inline constexpr uint32_t kFormatVersion = 2;
inline constexpr size_t kSectionAlignment = 64;

/// Section identifiers.  A file carries the subset its graph configuration
/// needs (e.g. no value sections under value-free storage, no fp32 sections
/// when only the fp64 tier is materialized); readers locate sections by id,
/// never by position.  Values belong to the out-CSR only; the in-CSR is
/// topology.
enum class SectionId : uint32_t {
  kMeta = 1,          // MetaSection
  kOutOffsets = 2,    // uint64 × (num_nodes + 1)
  kOutIndices = 3,    // uint32 × num_edges
  kInOffsets = 4,     // uint64 × (num_nodes + 1)
  kInIndices = 5,     // uint32 × num_edges
  kOutValuesF64 = 6,  // double × num_edges   (kExplicit, fp64 tier)
  kOutValuesF32 = 8,  // float × num_edges    (kExplicit, fp32 tier)
  kScalesF64 = 10,    // double × num_nodes   (kRowConstant, fp64 tier)
  kScalesF32 = 11,    // float × num_nodes    (kRowConstant, fp32 tier)
  kStrangerF64 = 12,  // double × num_nodes   (fp64-precision preprocess)
  kStrangerF32 = 13,  // float × num_nodes    (fp32-precision preprocess)
  kStrangerOrder = 14,  // uint32 × num_nodes
  // 15 is retired: it held a build-time node permutation.  Not reused.
};

struct SnapshotHeader {
  char magic[8];                 // kMagic
  uint32_t endian_tag;           // kEndianTag as written by the producer
  uint32_t format_version;       // kFormatVersion
  uint64_t file_bytes;           // total file size, truncation tripwire
  uint64_t section_table_offset; // == sizeof(SnapshotHeader)
  uint32_t section_count;
  uint32_t section_table_crc;    // Crc32 of the whole section table
  uint8_t reserved[24];
};
static_assert(sizeof(SnapshotHeader) == 64, "header is exactly 64 bytes");

struct SectionDesc {
  uint32_t id;          // SectionId
  uint32_t reserved0;
  uint64_t offset;      // absolute file offset, kSectionAlignment-aligned
  uint64_t size_bytes;  // payload bytes (excludes alignment padding)
  uint32_t crc;         // Crc32 of the payload bytes
  uint32_t reserved1;
};
static_assert(sizeof(SectionDesc) == 32, "section descriptor is 32 bytes");

/// Payload of SectionId::kMeta: everything needed to interpret the other
/// sections and to reconstruct the Graph configuration and TpaOptions.
struct MetaSection {
  uint64_t num_nodes;
  uint64_t num_edges;
  uint32_t precision;       // la::Precision: 0 = fp64, 1 = fp32
  uint32_t value_storage;   // ValueStorage: 0 = kExplicit, 1 = kRowConstant
  uint32_t has_fp64;        // which tiers carry materialized value layers
  uint32_t has_fp32;
  uint32_t retired_permutation;  // zero; nonzero marked a node permutation
  uint32_t pad0;
  // TpaOptions of the preprocessed state.
  double restart_probability;
  double tolerance;
  int32_t family_window;
  int32_t stranger_start;
  uint32_t reserved0;  // zero (version 1 stored a propagation flavor here)
  uint32_t pad1;
  double frontier_density_threshold;
  double topk_frontier_density_threshold;
};
static_assert(sizeof(MetaSection) == 88, "meta section is 88 bytes");

}  // namespace tpa::snapshot

#endif  // TPA_SNAPSHOT_FORMAT_H_
