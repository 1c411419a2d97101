#ifndef TPA_ENGINE_THREAD_POOL_H_
#define TPA_ENGINE_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tpa {

/// Fixed-size worker pool used by QueryEngine to fan a batch of seed queries
/// out across cores.
///
/// Deliberately minimal: jobs are fire-and-forget `void()` closures drained
/// FIFO by `num_threads` workers; completion tracking (a latch, a counter)
/// is the caller's business.  The destructor drains the queue — every job
/// submitted before destruction runs to completion — and then joins.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers.  CHECK-fails on num_threads < 1.
  explicit ThreadPool(int num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding jobs, then joins all workers.
  ~ThreadPool();

  /// Enqueues a job.  CHECK-fails after destruction has begun.
  void Submit(std::function<void()> job);

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tpa

#endif  // TPA_ENGINE_THREAD_POOL_H_
