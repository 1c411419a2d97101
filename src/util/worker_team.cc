#include "util/worker_team.h"

#include <algorithm>
#include <system_error>

#include "util/check.h"

namespace tpa {

WorkerTeam::WorkerTeam(int size) : barrier_(std::max(size, 1)) {
  TPA_CHECK(size >= 1);
  threads_.reserve(static_cast<size_t>(size - 1));
  for (int t = 1; t < size; ++t) {
    try {
      threads_.emplace_back([this, t] { WorkerLoop(t); });
    } catch (const std::system_error&) {
      // Out of threads: run with the ones that started, each missing
      // member leaving the barrier for good.  size() shrinks to match.
      for (int missing = t; missing < size; ++missing) {
        barrier_.arrive_and_drop();
      }
      break;
    }
  }
}

WorkerTeam::~WorkerTeam() {
  job_ = nullptr;
  barrier_.arrive_and_wait();  // releases the workers into their exit check
  for (std::thread& thread : threads_) thread.join();
}

void WorkerTeam::Run(const std::function<void(int)>& job) {
  job_ = &job;
  barrier_.arrive_and_wait();
  job(0);
  barrier_.arrive_and_wait();
}

void WorkerTeam::WorkerLoop(int t) {
  for (;;) {
    barrier_.arrive_and_wait();
    if (job_ == nullptr) return;
    (*job_)(t);
    barrier_.arrive_and_wait();
  }
}

}  // namespace tpa
