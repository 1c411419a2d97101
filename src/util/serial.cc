#include "util/serial.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <functional>
#include <string>
#include <utility>

#include "util/failpoint.h"
#include "util/worker_team.h"

namespace tpa {

namespace {

/// The slice-by-16 CRC-32 tables for the reflected IEEE polynomial
/// 0xEDB88320, built once at first use.  tables[0] is the classic byte
/// table; tables[k][b] is the CRC contribution of byte b followed by k zero
/// bytes, so one lookup per byte folds 16 bytes at a time.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 16>;

Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables;
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

/// a(x)·b(x) mod the CRC polynomial, in the reflected bit order Crc32 uses
/// (bit 31 is x^0).  `a` must be nonzero; every power of x is.
uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31;; m >>= 1) {
    if (a & m) {
      product ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    b = (b >> 1) ^ ((b & 1u) ? 0xEDB88320u : 0u);
  }
  return product;
}

/// x^(8·bytes) mod the polynomial: the operator that shifts a CRC through
/// `bytes` zero bytes.  Squares x^(2^k) for k = 0..31 are tabled once; the
/// powers cycle with period 32 because x^(2^32 - 1) = 1 mod the polynomial.
uint32_t XPow8nModP(uint64_t bytes) {
  static const std::array<uint32_t, 32> squares = [] {
    std::array<uint32_t, 32> table;
    table[0] = 1u << 30;  // x^1
    for (size_t k = 1; k < table.size(); ++k) {
      table[k] = MultModP(table[k - 1], table[k - 1]);
    }
    return table;
  }();
  uint32_t power = 1u << 31;  // x^0
  for (unsigned k = 3; bytes != 0; bytes >>= 1, ++k) {
    if (bytes & 1) power = MultModP(squares[k & 31], power);
  }
  return power;
}

/// Little-endian 32-bit word at `p`, independent of the host byte order
/// (compilers fold this into one load on little-endian targets).
uint32_t LoadLe32(const uint8_t* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

Status ErrnoError(const std::string& action, const std::string& path) {
  if (errno == ENOSPC || errno == EDQUOT) {
    return ResourceExhaustedError(action + " '" + path +
                                  "': " + std::strerror(errno));
  }
  return InternalError(action + " '" + path + "': " + std::strerror(errno));
}

/// Full-length pwrite with partial-write retry; errno is preserved on error.
bool PwriteAll(int fd, const void* data, size_t size, uint64_t offset) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  while (size > 0) {
    const ssize_t written =
        ::pwrite(fd, bytes, size, static_cast<off_t>(offset));
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (written == 0) {
      errno = EIO;
      return false;
    }
    bytes += written;
    size -= static_cast<size_t>(written);
    offset += static_cast<uint64_t>(written);
  }
  return true;
}

/// Full-length pread; a short read (EOF before `size`) is an error here
/// because the sorter knows exactly how many records each chunk holds.
bool PreadAll(int fd, void* data, size_t size, uint64_t offset) {
  uint8_t* bytes = static_cast<uint8_t*>(data);
  while (size > 0) {
    const ssize_t got = ::pread(fd, bytes, size, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) {
      errno = EIO;
      return false;
    }
    bytes += got;
    size -= static_cast<size_t>(got);
    offset += static_cast<uint64_t>(got);
  }
  return true;
}

int ToMadvise(MappedAdvice advice) {
  switch (advice) {
    case MappedAdvice::kNormal: return MADV_NORMAL;
    case MappedAdvice::kSequential: return MADV_SEQUENTIAL;
    case MappedAdvice::kRandom: return MADV_RANDOM;
    case MappedAdvice::kWillNeed: return MADV_WILLNEED;
    case MappedAdvice::kDontNeed: return MADV_DONTNEED;
  }
  return MADV_NORMAL;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  static const Crc32Tables t = MakeCrc32Tables();
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (; size >= 16; size -= 16, bytes += 16) {
    // Byte j of the block is followed by 15 - j more, so it indexes
    // t[15 - j]; the running CRC folds into the first word.
    const uint32_t w0 = LoadLe32(bytes) ^ crc;
    const uint32_t w1 = LoadLe32(bytes + 4);
    const uint32_t w2 = LoadLe32(bytes + 8);
    const uint32_t w3 = LoadLe32(bytes + 12);
    crc = t[15][w0 & 0xFFu] ^ t[14][(w0 >> 8) & 0xFFu];
    crc ^= t[13][(w0 >> 16) & 0xFFu] ^ t[12][w0 >> 24];
    crc ^= t[11][w1 & 0xFFu] ^ t[10][(w1 >> 8) & 0xFFu];
    crc ^= t[9][(w1 >> 16) & 0xFFu] ^ t[8][w1 >> 24];
    crc ^= t[7][w2 & 0xFFu] ^ t[6][(w2 >> 8) & 0xFFu];
    crc ^= t[5][(w2 >> 16) & 0xFFu] ^ t[4][w2 >> 24];
    crc ^= t[3][w3 & 0xFFu] ^ t[2][(w3 >> 8) & 0xFFu];
    crc ^= t[1][(w3 >> 16) & 0xFFu] ^ t[0][w3 >> 24];
  }
  for (; size > 0; --size, ++bytes) {
    crc = (crc >> 8) ^ t[0][(crc ^ *bytes) & 0xFFu];
  }
  return ~crc;
}

uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b) {
  return MultModP(XPow8nModP(len_b), crc_a) ^ crc_b;
}

size_t Crc32PieceCount(std::span<const ByteRange> ranges) {
  size_t pieces = 0;
  for (const ByteRange& range : ranges) {
    pieces += (range.size + kCrc32PieceBytes - 1) / kCrc32PieceBytes;
  }
  return pieces;
}

std::vector<uint32_t> Crc32OnTeam(std::span<const ByteRange> ranges,
                                  WorkerTeam& team) {
  std::vector<ByteRange> pieces;
  for (const ByteRange& range : ranges) {
    const uint8_t* bytes = static_cast<const uint8_t*>(range.data);
    for (size_t at = 0; at < range.size; at += kCrc32PieceBytes) {
      pieces.push_back(
          {bytes + at, std::min(kCrc32PieceBytes, range.size - at)});
    }
  }
  std::vector<uint32_t> piece_crcs(pieces.size());
  std::atomic<size_t> next{0};
  team.Run([&](int) {
    for (size_t i = next++; i < pieces.size(); i = next++) {
      piece_crcs[i] = Crc32(pieces[i].data, pieces[i].size);
    }
  });
  static const uint32_t piece_shift = XPow8nModP(kCrc32PieceBytes);
  std::vector<uint32_t> crcs(ranges.size(), 0);
  for (size_t r = 0, i = 0; r < ranges.size(); ++r) {
    for (size_t at = 0; at < ranges[r].size; at += kCrc32PieceBytes, ++i) {
      const uint32_t shift = pieces[i].size == kCrc32PieceBytes
                                 ? piece_shift
                                 : XPow8nModP(pieces[i].size);
      crcs[r] = MultModP(shift, crcs[r]) ^ piece_crcs[i];
    }
  }
  return crcs;
}

StatusOr<MappedFile> MappedFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoError("cannot open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = ErrnoError("cannot stat", path);
    ::close(fd);
    return status;
  }
  MappedFile file;
  file.size_ = static_cast<size_t>(st.st_size);
  if (file.size_ > 0) {
    void* addr = ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      const Status status = ErrnoError("cannot mmap", path);
      ::close(fd);
      return status;
    }
    file.addr_ = addr;
  }
  ::close(fd);  // the mapping outlives the descriptor
  return file;
}

StatusOr<MappedFile> MappedFile::Create(const std::string& path, size_t size) {
  if (size == 0) {
    return InvalidArgumentError("MappedFile::Create needs a positive size");
  }
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoError("cannot create", path);
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    const Status status = ErrnoError("cannot size", path);
    ::close(fd);
    return status;
  }
  void* addr =
      ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (addr == MAP_FAILED) {
    const Status status = ErrnoError("cannot mmap", path);
    ::close(fd);
    return status;
  }
  ::close(fd);  // MAP_SHARED keeps the file reference
  MappedFile file;
  file.addr_ = addr;
  file.size_ = size;
  file.writable_ = true;
  return file;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (addr_ != nullptr) ::munmap(addr_, size_);
    addr_ = std::exchange(other.addr_, nullptr);
    size_ = std::exchange(other.size_, 0);
    writable_ = std::exchange(other.writable_, false);
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (addr_ != nullptr) ::munmap(addr_, size_);
}

Status MappedFile::Sync() {
  if (!writable_) {
    return FailedPreconditionError("Sync on a read-only mapping");
  }
  TPA_FAILPOINT("serial.msync");
  if (addr_ != nullptr && ::msync(addr_, size_, MS_SYNC) != 0) {
    return ErrnoError("cannot msync", "<mapped file>");
  }
  return OkStatus();
}

Status MappedFile::Advise(MappedAdvice advice, size_t offset,
                          size_t length) const {
  if (addr_ == nullptr || offset >= size_) return OkStatus();
  if (length == 0 || offset + length > size_) length = size_ - offset;
  const long page = ::sysconf(_SC_PAGESIZE);
  const size_t page_size = page > 0 ? static_cast<size_t>(page) : 4096;
  // madvise wants a page-aligned start; widen the range down to the page
  // the offset falls in.
  const size_t aligned = offset / page_size * page_size;
  length += offset - aligned;
  uint8_t* base = static_cast<uint8_t*>(addr_) + aligned;
  if (::madvise(base, length, ToMadvise(advice)) != 0) {
    return InternalError(std::string("madvise failed: ") +
                         std::strerror(errno));
  }
  return OkStatus();
}

std::string SiblingTempPath(const std::string& path) {
  static std::atomic<uint64_t> next_id{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(next_id.fetch_add(1));
}

StatusOr<BinaryFileWriter> BinaryFileWriter::Create(const std::string& path) {
  // The pid and a per-process counter make the name unique; O_EXCL turns a
  // stale file from an earlier process with the same pid into a retry.
  constexpr int kFlags = O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC;
  for (int attempt = 0;; ++attempt) {
    std::string temp_path = SiblingTempPath(path);
    const int fd = ::open(temp_path.c_str(), kFlags, 0666);
    if (fd < 0) {
      if (errno == EEXIST && attempt < 100) continue;
      return ErrnoError("cannot create", path);
    }
    std::FILE* file = ::fdopen(fd, "wb");
    if (file == nullptr) {
      const Status status = ErrnoError("cannot open", temp_path);
      ::close(fd);
      ::unlink(temp_path.c_str());
      return status;
    }
    BinaryFileWriter writer;
    writer.file_ = file;
    writer.path_ = path;
    writer.temp_path_ = std::move(temp_path);
    return writer;
  }
}

BinaryFileWriter& BinaryFileWriter::operator=(
    BinaryFileWriter&& other) noexcept {
  if (this != &other) {
    Discard();
    file_ = std::exchange(other.file_, nullptr);
    offset_ = std::exchange(other.offset_, 0);
    path_ = std::move(other.path_);
    temp_path_ = std::move(other.temp_path_);
  }
  return *this;
}

BinaryFileWriter::~BinaryFileWriter() { Discard(); }

void BinaryFileWriter::Discard() {
  if (file_ == nullptr) return;
  std::fclose(file_);
  file_ = nullptr;
  ::unlink(temp_path_.c_str());
}

Status BinaryFileWriter::WriteBytes(const void* data, size_t size) {
  if (file_ == nullptr) {
    return FailedPreconditionError("writer is closed or moved-from");
  }
  if (size == 0) return OkStatus();
  if (std::fwrite(data, 1, size, file_) != size) {
    return InternalError("short write to snapshot file");
  }
  offset_ += size;
  return OkStatus();
}

Status BinaryFileWriter::AlignTo(size_t alignment) {
  const uint64_t misalign = offset_ % alignment;
  if (misalign == 0) return OkStatus();
  static constexpr uint8_t kZeros[64] = {};
  uint64_t padding = alignment - misalign;
  while (padding > 0) {
    const size_t chunk =
        padding < sizeof(kZeros) ? static_cast<size_t>(padding)
                                 : sizeof(kZeros);
    TPA_RETURN_IF_ERROR(WriteBytes(kZeros, chunk));
    padding -= chunk;
  }
  return OkStatus();
}

Status BinaryFileWriter::Close() {
  if (file_ == nullptr) {
    return FailedPreconditionError("writer is closed or moved-from");
  }
  const int status = std::fclose(file_);
  file_ = nullptr;
  if (status != 0) {
    ::unlink(temp_path_.c_str());
    return InternalError("cannot flush snapshot file");
  }
  if (::rename(temp_path_.c_str(), path_.c_str()) != 0) {
    const Status error = ErrnoError("cannot rename temp file over", path_);
    ::unlink(temp_path_.c_str());
    return error;
  }
  return OkStatus();
}

StatusOr<ExternalU64Sorter> ExternalU64Sorter::Create(Options options) {
  if (options.spill_path.empty()) {
    return InvalidArgumentError("ExternalU64Sorter needs a spill_path");
  }
  if (options.chunk_records == 0 || options.merge_buffer_records == 0) {
    return InvalidArgumentError(
        "ExternalU64Sorter chunk_records and merge_buffer_records must be "
        "positive");
  }
  const int fd =
      ::open(options.spill_path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoError("cannot create spill file", options.spill_path);
  ExternalU64Sorter sorter;
  sorter.path_ = options.spill_path;
  sorter.options_ = std::move(options);
  sorter.fd_ = fd;
  sorter.buffer_.reserve(sorter.options_.chunk_records);
  return sorter;
}

ExternalU64Sorter& ExternalU64Sorter::operator=(
    ExternalU64Sorter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
      ::unlink(path_.c_str());
    }
    options_ = std::move(other.options_);
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    buffer_ = std::move(other.buffer_);
    chunks_ = std::move(other.chunks_);
    record_count_ = std::exchange(other.record_count_, 0);
    file_records_ = std::exchange(other.file_records_, 0);
    sealed_ = std::exchange(other.sealed_, false);
  }
  return *this;
}

ExternalU64Sorter::~ExternalU64Sorter() {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(path_.c_str());
  }
}

Status ExternalU64Sorter::Add(uint64_t record) {
  if (sealed_) return FailedPreconditionError("Add after Seal");
  if (fd_ < 0) return FailedPreconditionError("sorter is moved-from");
  buffer_.push_back(record);
  record_count_++;
  if (buffer_.size() >= options_.chunk_records) return SpillBuffer();
  return OkStatus();
}

Status ExternalU64Sorter::SpillBuffer() {
  if (buffer_.empty()) return OkStatus();
  std::sort(buffer_.begin(), buffer_.end());
  TPA_FAILPOINT("builder.spill");
  if (!PwriteAll(fd_, buffer_.data(), buffer_.size() * sizeof(uint64_t),
                 file_records_ * sizeof(uint64_t))) {
    return ErrnoError("cannot spill sort chunk to", path_);
  }
  chunks_.push_back({file_records_, buffer_.size()});
  file_records_ += buffer_.size();
  buffer_.clear();
  return OkStatus();
}

Status ExternalU64Sorter::Seal() {
  if (sealed_) return OkStatus();
  if (fd_ < 0) return FailedPreconditionError("sorter is moved-from");
  TPA_RETURN_IF_ERROR(SpillBuffer());
  buffer_.shrink_to_fit();  // release the chunk buffer before the merge
  sealed_ = true;
  return OkStatus();
}

StatusOr<ExternalU64Sorter::MergeStream> ExternalU64Sorter::Merge() const {
  if (!sealed_) return FailedPreconditionError("Merge before Seal");
  MergeStream stream;
  stream.fd_ = fd_;
  stream.buffer_records_ = options_.merge_buffer_records;
  stream.sources_.resize(chunks_.size());
  stream.heap_.reserve(chunks_.size());
  for (size_t i = 0; i < chunks_.size(); ++i) {
    MergeStream::Source& source = stream.sources_[i];
    source.next_offset_records = chunks_[i].offset_records;
    source.remaining_records = chunks_[i].count;
    if (!stream.Refill(i)) {
      if (!stream.status_.ok()) return stream.status_;
      continue;  // empty chunk (cannot happen today, but harmless)
    }
    stream.heap_.emplace_back(source.buffer[source.cursor++],
                              static_cast<uint32_t>(i));
  }
  std::make_heap(stream.heap_.begin(), stream.heap_.end(),
                 std::greater<std::pair<uint64_t, uint32_t>>());
  return stream;
}

bool ExternalU64Sorter::MergeStream::Refill(size_t source_index) {
  Source& source = sources_[source_index];
  if (source.cursor < source.buffer.size()) return true;
  if (source.remaining_records == 0) return false;
  if (!status_.ok()) return false;
  const Status injected = [] {
    TPA_FAILPOINT("builder.merge");
    return OkStatus();
  }();
  if (!injected.ok()) {
    status_ = injected;
    return false;
  }
  const size_t want = static_cast<size_t>(std::min<uint64_t>(
      source.remaining_records, buffer_records_));
  source.buffer.resize(want);
  source.cursor = 0;
  if (!PreadAll(fd_, source.buffer.data(), want * sizeof(uint64_t),
                source.next_offset_records * sizeof(uint64_t))) {
    status_ = InternalError(std::string("cannot read sort chunk: ") +
                            std::strerror(errno));
    return false;
  }
  source.next_offset_records += want;
  source.remaining_records -= want;
  return true;
}

bool ExternalU64Sorter::MergeStream::Next(uint64_t* record) {
  if (heap_.empty() || !status_.ok()) return false;
  std::pop_heap(heap_.begin(), heap_.end(),
                std::greater<std::pair<uint64_t, uint32_t>>());
  const auto [value, source_index] = heap_.back();
  *record = value;
  Source& source = sources_[source_index];
  if (source.cursor < source.buffer.size() || Refill(source_index)) {
    heap_.back() = {source.buffer[source.cursor++], source_index};
    std::push_heap(heap_.begin(), heap_.end(),
                   std::greater<std::pair<uint64_t, uint32_t>>());
  } else {
    heap_.pop_back();
    if (!status_.ok()) return false;  // refill error, not exhaustion
  }
  return true;
}

}  // namespace tpa
