#ifndef TPA_SNAPSHOT_SNAPSHOT_H_
#define TPA_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/tpa.h"
#include "graph/graph.h"
#include "util/serial.h"
#include "util/status.h"

namespace tpa {
class ResidentSteward;
class WorkerTeam;
}  // namespace tpa

namespace tpa::snapshot {

/// How LoadSnapshot materializes the O(nnz) arrays.
enum class LoadMode {
  /// mmap the file and serve the CSR index/value arrays as non-owning views
  /// straight out of the mapping (the MappedFile is the SharedArray owner,
  /// pinned until the last view dies).  Pages fault in lazily; nothing
  /// O(nnz) is copied.  The warm-start default.
  kMap,
  /// Copy every section into heap vectors and close the mapping before
  /// returning — for files some external writer may modify or truncate in
  /// place.  Replacing the file through SaveSnapshot/WriteSnapshot is safe
  /// under kMap: the write lands in a new inode that is renamed over the
  /// path, and the existing mapping keeps the old one.
  kCopy,
};

struct LoadOptions {
  LoadMode mode = LoadMode::kMap;
  /// Verify per-section checksums and structural invariants (offset
  /// monotonicity, index ranges) before trusting the file, on one thread
  /// per core (see VerifySnapshot).  The default;
  /// turning it off skips the O(file) verification passes and is only safe
  /// for a file this host just wrote.  WriteSnapshot does not fsync, so a
  /// file that lived through a crash, a copy or another disk needs verify.
  /// Header, section-table and meta sanity (magic, version, endianness,
  /// bounds, sizes, the meta checksum) and the stranger order are always
  /// checked either way — a corrupt file yields a Status, never a crash.
  bool verify = true;
  /// Paging-pattern hint applied to the whole mapping after a kMap load
  /// (ignored under kCopy).  kSequential suits the propagation sweeps of a
  /// preprocess/benchmark run (aggressive readahead, eager reclaim behind
  /// the sweep); kWillNeed prefetches the file for a serving process about
  /// to be hit; kRandom suits sparse single-seed query traffic (no wasted
  /// readahead on the gathers).  Best-effort — advice failures don't fail
  /// the load.
  MappedAdvice advice = MappedAdvice::kNormal;
  /// When set (and running), the mapping is registered with this steward
  /// immediately after mmap — before the verification sweep touches the
  /// payload — so even the load's own O(file) passes stay inside the
  /// steward's resident budget.  The registration persists for the
  /// mapping's lifetime; the caller must keep the steward alive at least
  /// as long as it stays started.  No effect under kCopy beyond the load
  /// itself (the mapping closes when the load returns).
  ResidentSteward* steward = nullptr;
};

/// What a snapshot file says about itself (header + meta section only —
/// reading it never touches the O(nnz) payload bytes).
struct SnapshotInfo {
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  la::Precision precision = la::Precision::kFloat64;
  ValueStorage value_storage = ValueStorage::kExplicit;
  bool has_fp64 = false;
  bool has_fp32 = false;
  TpaOptions options;
  uint64_t file_bytes = 0;
  uint32_t section_count = 0;
};

/// A warm-started serving state: the Graph (address-stable behind
/// unique_ptr — the Tpa borrows it) plus the preprocessed Tpa, ready for
/// QueryEngine::Create with a preloaded TpaMethod.  Under LoadMode::kMap
/// the graph's index/value arrays alias the mapped file, which stays mapped
/// for as long as any of them (or any structure-sharing sibling) lives.
struct LoadedSnapshot {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<Tpa> tpa;
  SnapshotInfo info;
  /// The backing mapping under LoadMode::kMap (null under kCopy) — the
  /// handle a bounded-RSS server hands to ResidentSteward::RegisterRegion
  /// so query sweeps over a snapshot larger than the budget stay
  /// droppable, and to MappedFile::Advise for per-phase paging hints.
  /// The graph's views share ownership; holding or dropping this pointer
  /// does not affect their lifetime.
  std::shared_ptr<const MappedFile> mapped_file;
};

/// Serializes the Tpa's full preprocessed state — graph topology, value
/// layers of every materialized tier, stranger tail + order, and
/// TpaOptions — into a versioned, checksummed snapshot at `path`.
/// The file is written beside `path` and renamed over it on success, so a
/// process serving the old file from a kMap load keeps its old bytes, and
/// a failed write leaves `path` untouched (see BinaryFileWriter).
Status WriteSnapshot(const Tpa& tpa, const std::string& path);

/// Opens a snapshot and reassembles the serving state.  A query against the
/// loaded state is bitwise-identical to one against the freshly preprocessed
/// original: the stored bytes are exactly the preprocessed arrays.
StatusOr<LoadedSnapshot> LoadSnapshot(const std::string& path,
                                      const LoadOptions& options = {});

/// Header + meta only (no payload verification).
StatusOr<SnapshotInfo> ReadSnapshotInfo(const std::string& path);

/// Full integrity check — header, section table, per-section checksums, and
/// structural invariants — without building the serving state.  The
/// payload passes run on `team`; null means a team sized to the host, as
/// every LoadSnapshot with `verify` uses.  The Status is the same at every
/// team size: a checksum mismatch is kDataLoss (the first in section-table
/// order), a structural fault kInvalidArgument.
Status VerifySnapshot(const std::string& path, WorkerTeam* team = nullptr);

}  // namespace tpa::snapshot

#endif  // TPA_SNAPSHOT_SNAPSHOT_H_
