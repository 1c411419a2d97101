#ifndef TPA_UTIL_SERIAL_H_
#define TPA_UTIL_SERIAL_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace tpa {

class WorkerTeam;

/// CRC-32 (IEEE 802.3, the zlib polynomial) of `size` bytes.  Chain calls by
/// feeding the previous return value as `seed` (0 starts a fresh checksum).
/// Software slice-by-16: 16 table lookups fold 16 bytes per step (about
/// 4.6 GB/s on one AMD EPYC core, 7x the byte-at-a-time loop), with no
/// library dependency.  Words are assembled from bytes in little-endian
/// order, so the value does not depend on the host's byte order.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

/// Crc32 of A followed by B, from crc_a = Crc32(A), crc_b = Crc32(B) and
/// len_b = |B| bytes, without touching the data: crc_a is shifted through
/// len_b zero bytes by multiplying it with x^(8·len_b) mod the polynomial
/// in GF(2) (zlib's crc32_combine method), then xored with crc_b.
/// O(log len_b) carry-less multiplies.
uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b);

/// A borrowed byte range to checksum.
struct ByteRange {
  const void* data;
  size_t size;
};

/// Crc32OnTeam's unit of work.
inline constexpr size_t kCrc32PieceBytes = size_t{1} << 20;

/// How many kCrc32PieceBytes pieces Crc32OnTeam cuts `ranges` into (an
/// empty range has none): the most members a team can keep busy on them.
size_t Crc32PieceCount(std::span<const ByteRange> ranges);

/// Crc32 of every range, on all of `team`'s members: each range is cut into
/// kCrc32PieceBytes pieces, members take pieces from a shared counter, and
/// each range's piece CRCs are combined in order after the join, so entry
/// i equals Crc32(ranges[i].data, ranges[i].size) at every team size.
std::vector<uint32_t> Crc32OnTeam(std::span<const ByteRange> ranges,
                                  WorkerTeam& team);

/// Paging-pattern hints forwarded to madvise on a mapped range.  The
/// out-of-core pipeline applies kSequential ahead of propagation sweeps
/// (aggressive readahead, early reclaim behind the sweep), kWillNeed to
/// warm a section about to be served, kRandom on gather-indexed sections
/// (no wasted readahead), and kDontNeed to drop a phase's streamed pages
/// from the resident set (file-backed pages re-fault with identical
/// contents — see ResidentSteward).
enum class MappedAdvice : uint8_t {
  kNormal,
  kSequential,
  kRandom,
  kWillNeed,
  kDontNeed,
};

/// Memory-mapped file (RAII over mmap/munmap).
///
/// Open() maps read-only — the snapshot reader hands non-owning SharedArray
/// views into the mapping, with a shared_ptr<MappedFile> as the keep-alive
/// owner; the file pages in lazily and is never copied.
///
/// Create() maps read-write (O_CREAT + ftruncate + MAP_SHARED): the
/// out-of-core CSR builder streams arrays straight into the mapping, so
/// the built graph never exists on the heap.  Writes reach the file via
/// the page cache; Sync() (msync) makes them durable.  MAP_SHARED also
/// means madvise(MADV_DONTNEED) never discards dirty data — it only
/// unmaps the pages from this process, which is what lets the resident
/// steward bound RSS during a build.
class MappedFile {
 public:
  static StatusOr<MappedFile> Open(const std::string& path);

  /// Creates (or truncates) `path` at exactly `size` bytes and maps it
  /// read-write.  `size` must be positive.  Truncating a file that another
  /// process maps faults that process, so a writer that replaces such a
  /// file creates at SiblingTempPath(path) and renames when done.
  static StatusOr<MappedFile> Create(const std::string& path, size_t size);

  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  const uint8_t* data() const { return static_cast<const uint8_t*>(addr_); }
  size_t size() const { return size_; }

  /// Writable view of the mapping; null unless Create()'d.
  uint8_t* mutable_data() {
    return writable_ ? static_cast<uint8_t*>(addr_) : nullptr;
  }
  bool writable() const { return writable_; }

  /// Flushes dirty pages to the file (msync MS_SYNC).  Only valid on a
  /// writable mapping.  Failpoint site "serial.msync" — a simulated
  /// disk-full surfaces here as a Status.
  Status Sync();

  /// Applies `advice` to [offset, offset + length) — length 0 means "to the
  /// end of the mapping".  Offsets are aligned down to page boundaries.
  /// Advice is best-effort: an madvise error (e.g. an unsupported hint) is
  /// reported but safe to ignore.
  Status Advise(MappedAdvice advice, size_t offset = 0,
                size_t length = 0) const;

 private:
  MappedFile() = default;

  void* addr_ = nullptr;  // null for an empty file
  size_t size_ = 0;
  bool writable_ = false;
};

/// A fresh sibling of `path` to build its replacement in: `path` +
/// ".tmp.<pid>.<n>", with n from a process-wide counter.  A writer that
/// renames the finished file over `path` switches readers from the old
/// file to the complete new one in one step; a process serving the old
/// file from a mapping keeps reading the old inode.
std::string SiblingTempPath(const std::string& path);

/// Sequential binary file writer with explicit alignment control: the
/// snapshot writer lays sections on 64-byte boundaries (AlignTo pads with
/// zeros) so the mapped file satisfies every element type's alignment.
/// All errors surface as Status; Close() flushes and reports the final
/// write errors that a destructor would have to swallow.
///
/// The bytes go to a unique sibling temp file (`path` + ".tmp.<pid>.<n>",
/// created O_EXCL with mode 0666 under the umask), and only a successful
/// Close() renames it over `path`.  So `path` switches from the old file
/// to the complete new one in one step: a process serving the old file
/// from a mapping keeps reading the old inode, never a truncated or
/// half-written one.  A failed Close(), or a writer destroyed without
/// one, removes the temp file and leaves `path` as it was.  The new file
/// replaces a symlink at `path` rather than writing through it, and takes
/// a fresh mode rather than the old file's.
class BinaryFileWriter {
 public:
  static StatusOr<BinaryFileWriter> Create(const std::string& path);

  BinaryFileWriter(BinaryFileWriter&& other) noexcept {
    *this = std::move(other);
  }
  BinaryFileWriter& operator=(BinaryFileWriter&& other) noexcept;
  BinaryFileWriter(const BinaryFileWriter&) = delete;
  BinaryFileWriter& operator=(const BinaryFileWriter&) = delete;
  ~BinaryFileWriter();

  Status WriteBytes(const void* data, size_t size);

  /// Pads with zero bytes until offset() is a multiple of `alignment`
  /// (a power of two).
  Status AlignTo(size_t alignment);

  /// Bytes written so far == the file offset the next write lands at.
  uint64_t offset() const { return offset_; }

  Status Close();

 private:
  BinaryFileWriter() = default;

  /// Closes and removes the temp file of an unfinished write.
  void Discard();

  std::FILE* file_ = nullptr;
  uint64_t offset_ = 0;
  std::string path_;
  std::string temp_path_;
};

/// Streams the globally sorted order of a uint64 sequence too large for
/// RAM: Add() buffers records up to `chunk_records`, sorts each full buffer
/// and spills it to a temp file; after Seal(), Merge() opens a k-way merge
/// over the spilled chunks that yields the records in ascending order using
/// only the bounded per-chunk read buffers.  Merge() may be called any
/// number of times — the out-of-core CSR build replays the same sorted
/// stream once to count degrees and once per direction to write indices.
///
/// Records are opaque uint64s ordered by value; the graph pipeline packs an
/// edge as (u << 32) | v so value order is (u, v) lexicographic order.
/// Duplicate records are preserved — deduplication is the consumer's
/// policy, applied trivially on a sorted stream.
///
/// The spill file is unlinked on destruction.  Failpoint sites:
/// "builder.spill" before each chunk write, "builder.merge" before each
/// merge-buffer refill — the fault suite turns them into simulated
/// disk-full / short-read errors.
class ExternalU64Sorter {
 public:
  struct Options {
    /// Backing file for the spilled chunks (created/truncated).
    std::string spill_path;
    /// In-RAM buffer capacity in records; this is the sorter's dominant
    /// memory use (8 bytes per record).  Must be positive.
    size_t chunk_records = size_t{1} << 22;  // 32 MB
    /// Per-chunk read buffer during merge, in records.
    size_t merge_buffer_records = size_t{1} << 15;  // 256 KB per chunk
  };

  /// A pull cursor over the merged, ascending record stream.  Errors during
  /// refills end the stream early; callers must check status() after the
  /// final Next().
  class MergeStream {
   public:
    /// True: *record is the next value in ascending order.  False: end of
    /// stream, or an I/O error (status() distinguishes).
    bool Next(uint64_t* record);

    const Status& status() const { return status_; }

   private:
    friend class ExternalU64Sorter;
    struct Source {
      uint64_t next_offset_records = 0;  // into the spill file
      uint64_t remaining_records = 0;
      std::vector<uint64_t> buffer;
      size_t cursor = 0;
    };

    bool Refill(size_t source_index);

    int fd_ = -1;  // borrowed from the sorter
    size_t buffer_records_ = 0;
    std::vector<Source> sources_;
    /// Min-heap of (value, source) pairs, one per non-exhausted source.
    std::vector<std::pair<uint64_t, uint32_t>> heap_;
    Status status_;
  };

  static StatusOr<ExternalU64Sorter> Create(Options options);

  ExternalU64Sorter(ExternalU64Sorter&& other) noexcept {
    *this = std::move(other);
  }
  ExternalU64Sorter& operator=(ExternalU64Sorter&& other) noexcept;
  ExternalU64Sorter(const ExternalU64Sorter&) = delete;
  ExternalU64Sorter& operator=(const ExternalU64Sorter&) = delete;
  ~ExternalU64Sorter();

  Status Add(uint64_t record);

  /// Spills the tail chunk and freezes the sorter; Add() afterwards is an
  /// error, Merge() becomes available.  Idempotent.
  Status Seal();

  StatusOr<MergeStream> Merge() const;

  uint64_t record_count() const { return record_count_; }
  size_t chunk_count() const { return chunks_.size(); }
  uint64_t spilled_bytes() const { return record_count_ * sizeof(uint64_t); }

 private:
  struct Chunk {
    uint64_t offset_records;
    uint64_t count;
  };

  ExternalU64Sorter() = default;

  Status SpillBuffer();

  Options options_;
  int fd_ = -1;
  std::string path_;
  std::vector<uint64_t> buffer_;
  std::vector<Chunk> chunks_;
  uint64_t record_count_ = 0;
  uint64_t file_records_ = 0;
  bool sealed_ = false;
};

}  // namespace tpa

#endif  // TPA_UTIL_SERIAL_H_
