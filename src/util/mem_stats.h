#ifndef TPA_UTIL_MEM_STATS_H_
#define TPA_UTIL_MEM_STATS_H_

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"

namespace tpa {

/// Resident-memory counters of this process, read from /proc/self/status.
/// VmRSS is the current resident set; VmHWM is its lifetime high-water mark
/// — the number the out-of-core pipeline's budget acceptance is judged by,
/// because a budget that was ever exceeded stays exceeded in VmHWM no
/// matter how quickly pages were dropped afterwards.
struct MemStats {
  size_t vm_rss_bytes = 0;
  size_t vm_hwm_bytes = 0;
};

/// Reads the current counters.  On platforms or sandboxes without
/// /proc/self/status both fields are 0 — callers treating 0 as "unknown"
/// (the bench JSON writers) degrade gracefully.
MemStats ReadMemStats();

/// The lifetime peak resident set (VmHWM), or 0 when unavailable.
size_t PeakRssBytes();

/// Keeps the resident set under a byte budget while streaming over mmap'd
/// regions far larger than that budget.
///
/// The mechanism: file-backed MAP_SHARED / unmodified MAP_PRIVATE pages can
/// be dropped from the resident set at any time with madvise(MADV_DONTNEED)
/// — re-access faults them back from the page cache (or disk) with
/// identical contents, so correctness is untouched and only the fault cost
/// is paid.  A steward thread polls VmRSS on a short interval and, whenever
/// it crosses `high_watermark_fraction · budget`, drops every registered
/// region.  Because the mapped bytes enter the resident set at the speed of
/// the compute sweeping them (a CSR kernel pages in well under a few GB/s),
/// a poll measured in milliseconds bounds the overshoot to a few tens of
/// megabytes — which is what the watermark headroom is for.
///
/// Registered regions must stay mapped while registered; the keep-alive
/// shared_ptr (e.g. the MappedFile behind the views) enforces that.  Heap
/// allocations are not reclaimable this way — the budget must leave room
/// for the pipeline's O(n) work vectors; the steward only keeps the O(nnz)
/// mapped traffic from accumulating on top.
class ResidentSteward {
 public:
  struct Options {
    /// The hard resident budget the caller wants VmHWM to stay under.
    /// 0 disables the steward entirely (Start is a no-op).
    size_t budget_bytes = 0;
    /// Drop registered regions once VmRSS exceeds this fraction of the
    /// budget.  The gap to 1.0 is the overshoot headroom.
    double high_watermark_fraction = 0.8;
    /// Poll period.  Smaller bounds the overshoot tighter and costs one
    /// /proc read per poll.  Tpa::Preprocess streams a mapped graph on
    /// every core, so pages arrive several times faster than one thread
    /// brings them: on a 4-vCPU host, bench_outofcore at scale 23 peaked
    /// at 556–622 MiB of its 640 MiB budget with 10 ms, 524–527 MiB with
    /// 2 ms.
    int poll_interval_ms = 2;
  };

  explicit ResidentSteward(Options options);
  ~ResidentSteward();

  ResidentSteward(const ResidentSteward&) = delete;
  ResidentSteward& operator=(const ResidentSteward&) = delete;

  /// Registers [addr, addr+length) for dropping.  `owner` pins the mapping
  /// for as long as the region stays registered.  Safe while running.
  void RegisterRegion(std::shared_ptr<const void> owner, const void* addr,
                      size_t length);

  /// Drops every registered region now (madvise(MADV_DONTNEED)),
  /// regardless of the watermark — phase boundaries call this so one
  /// phase's streamed pages never count against the next phase's headroom.
  void DropAll();

  /// Starts / stops the polling thread (no-ops when budget_bytes == 0 or
  /// already in the requested state).  The destructor stops.
  void Start();
  void Stop();

  /// Number of watermark-triggered drop sweeps so far (observability).
  size_t drop_count() const;

  const Options& options() const { return options_; }

 private:
  struct Region {
    std::shared_ptr<const void> owner;
    const void* addr;
    size_t length;
  };

  void Poll();

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Region> regions_;
  size_t drop_count_ = 0;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace tpa

#endif  // TPA_UTIL_MEM_STATS_H_
