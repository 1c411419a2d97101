#ifndef TPA_UTIL_WORKER_TEAM_H_
#define TPA_UTIL_WORKER_TEAM_H_

#include <barrier>
#include <functional>
#include <thread>
#include <vector>

namespace tpa {

/// A fixed team of threads that runs one job at a time on every member:
/// Run(job) calls job(t) for each t in [0, size()) — t = 0 on the calling
/// thread, the rest on the team's own threads — and returns once every call
/// has finished.  The threads persist across Run calls (one barrier phase
/// starts a job, one ends it), so a loop that runs a short parallel step
/// per iteration pays no thread start per step, and everything a job wrote
/// is visible to the caller, and to the next job, after Run returns.
///
/// Run must be called from one thread at a time, and a job must not throw.
/// The preprocessing path's team (Tpa::Preprocess): serving parallelism is
/// the engines' thread pools, one level only.
class WorkerTeam {
 public:
  /// Starts size - 1 threads; size must be at least 1.  When the system
  /// refuses a thread, the team keeps the ones that started.
  explicit WorkerTeam(int size);
  ~WorkerTeam();

  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;

  int size() const { return static_cast<int>(threads_.size()) + 1; }

  void Run(const std::function<void(int)>& job);

 private:
  void WorkerLoop(int t);

  std::barrier<> barrier_;
  const std::function<void(int)>* job_ = nullptr;  // null: shut down
  std::vector<std::thread> threads_;
};

}  // namespace tpa

#endif  // TPA_UTIL_WORKER_TEAM_H_
