#ifndef TPA_LA_TASK_RUNNER_H_
#define TPA_LA_TASK_RUNNER_H_

#include <cstddef>
#include <functional>

namespace tpa::la {

/// Minimal parallel-execution interface consumed by the partitioned dense
/// kernel (CsrMatrix::SpMmTransposeParallel).
///
/// The kernels only need a blocking fork-join over an index range; keeping
/// the interface here (rather than depending on the engine's ThreadPool)
/// preserves the layering la ← core ← method ← engine.  The engine's
/// ThreadPool implements it; SerialTaskRunner is the trivial
/// single-threaded fallback.
class TaskRunner {
 public:
  virtual ~TaskRunner() = default;

  /// Invokes fn(0) .. fn(num_tasks-1), possibly concurrently, and returns
  /// once every invocation has completed.  Implementations must be safe to
  /// call from a task already running on the same runner (no deadlock when
  /// the pool is saturated), which in practice means the calling thread
  /// participates in the work.
  virtual void ParallelFor(size_t num_tasks,
                           const std::function<void(size_t)>& fn) = 0;

  /// Worker parallelism hint used to size partitions (including the calling
  /// thread); at least 1.
  virtual int concurrency() const = 0;
};

/// Runs every task inline on the calling thread.
class SerialTaskRunner final : public TaskRunner {
 public:
  void ParallelFor(size_t num_tasks,
                   const std::function<void(size_t)>& fn) override {
    for (size_t i = 0; i < num_tasks; ++i) fn(i);
  }
  int concurrency() const override { return 1; }
};

}  // namespace tpa::la

#endif  // TPA_LA_TASK_RUNNER_H_
