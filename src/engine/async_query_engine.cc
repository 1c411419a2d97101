#include "engine/async_query_engine.h"

#include <algorithm>
#include <condition_variable>
#include <list>
#include <utility>

#include "util/check.h"
#include "util/failpoint.h"
#include "util/query_context.h"

namespace tpa {

namespace internal_async {

/// The admission queue and its synchronization, shared (via shared_ptr)
/// between the engine and every ticket it admitted: QueryTicket::Cancel
/// reaches back through a weak_ptr to erase the ticket from the queue and
/// wake a blocked submitter.  All fields transition under `mu` except the
/// atomic cancellation counter.
struct AdmissionState {
  std::mutex mu;
  std::condition_variable work_cv;   // scheduler: work or shutdown
  std::condition_variable space_cv;  // blocked submitters: slot or shutdown
  std::condition_variable idle_cv;   // shutdown: in-flight jobs drained
  /// A list (not a deque) so a queued ticket can be unlinked in O(1) from
  /// its stored iterator when the client cancels it.
  std::list<std::shared_ptr<TicketState>> queue;
  size_t inflight = 0;
  bool stopping = false;
  /// Counted by the cancelling thread (the only kQueued→cancelled
  /// transition), not the scheduler — a cancelled ticket may never be seen
  /// by the scheduler at all once Cancel has unlinked it from the queue.
  std::atomic<uint64_t> cancelled{0};
  /// Queue-full rejects plus submit-during-shutdown failures.  Lives here
  /// (not in the engine) because the rejecting Submit may be a kBlock
  /// submitter that woke from Shutdown after the engine object died — the
  /// admission block is the only state it may still touch.
  std::atomic<uint64_t> rejected{0};
};

/// Shared state behind one QueryTicket.  `state` transitions under `mu`;
/// `result` is written by exactly one completer before `state` flips to
/// kDone (the mutex hand-off orders the writes for waiters) and is
/// immutable afterwards.
struct TicketState {
  std::mutex mu;
  std::condition_variable cv;
  QueryTicket::State state = QueryTicket::State::kQueued;
  QueryResult result;
  std::function<void(const QueryResult&)> on_complete;
  /// Set by Cancel once serving has begun; wired into `context`, so
  /// iteration-shaped methods observe it at the next propagation-iteration
  /// boundary.  Relaxed is enough: the flag is monotonic and carries no
  /// dependent data.
  std::atomic<bool> cancel_requested{false};
  /// The cooperative context the ticket is served under: its deadline and
  /// cancel flag from Submit, the degradation contract from the dispatch.
  QueryContext context;
  /// The queue this ticket was admitted to; dead once the engine is gone.
  std::weak_ptr<AdmissionState> admission;
  /// Position in AdmissionState::queue while admitted.  Both fields are
  /// guarded by AdmissionState::mu (not this->mu): they belong to the
  /// queue, the ticket just carries them so Cancel can unlink in O(1).
  std::list<std::shared_ptr<TicketState>>::iterator queue_pos;
  bool in_queue = false;

  /// Claims the ticket for serving; false when cancellation won the race.
  bool TryBegin() {
    std::lock_guard<std::mutex> lock(mu);
    if (state != QueryTicket::State::kQueued) return false;
    state = QueryTicket::State::kRunning;
    return true;
  }

  /// The one completion protocol, shared by serving, rejection, and
  /// cancellation: fire the callback exactly once (before the ticket
  /// becomes observable as done, so a client returning from Wait knows it
  /// already ran), then flip to kDone and wake waiters.  `result` must be
  /// final before the call.
  void Finish() {
    std::function<void(const QueryResult&)> callback;
    {
      std::lock_guard<std::mutex> lock(mu);
      callback = std::move(on_complete);
    }
    if (callback) callback(result);
    {
      std::lock_guard<std::mutex> lock(mu);
      state = QueryTicket::State::kDone;
    }
    cv.notify_all();
  }
};

}  // namespace internal_async

using internal_async::AdmissionState;
using internal_async::TicketState;

namespace {

/// True while this thread is inside a serving job.  A Submit from an
/// on_complete callback must never block on queue space: the serving job
/// it would run on is the very thing that frees slots, so kBlock would
/// self-deadlock — such submits fall back to reject-on-full instead.
thread_local bool tls_on_serving_thread = false;

}  // namespace

const QueryResult& QueryTicket::Wait() const {
  TPA_CHECK(state_ != nullptr);
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock,
                  [&] { return state_->state == State::kDone; });
  return state_->result;
}

bool QueryTicket::WaitFor(std::chrono::milliseconds timeout) const {
  TPA_CHECK(state_ != nullptr);
  std::unique_lock<std::mutex> lock(state_->mu);
  return state_->cv.wait_for(
      lock, timeout, [&] { return state_->state == State::kDone; });
}

bool QueryTicket::done() const {
  TPA_CHECK(state_ != nullptr);
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->state == State::kDone;
}

QueryTicket::State QueryTicket::state() const {
  TPA_CHECK(state_ != nullptr);
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->state;
}

bool QueryTicket::Cancel() {
  TPA_CHECK(state_ != nullptr);
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->state == State::kDone) return false;
    if (state_->state == State::kRunning) {
      // Serving already began: request a cooperative mid-run abort.  The
      // serving job completes the ticket as usual — with CANCELLED (or a
      // degraded partial) once the method observes the flag at an
      // iteration boundary, or with the full result if it finished first.
      state_->cancel_requested.store(true, std::memory_order_relaxed);
      return true;
    }
    // Claim the ticket: concurrent Cancel calls and serving lose the race.
    state_->state = State::kRunning;
    state_->result.status = CancelledError("query cancelled by client");
  }
  // Release the admission-queue slot immediately: unlink the ticket from
  // the queue (unless the scheduler popped it first, in which case the pop
  // already freed the slot) and wake one blocked kBlock submitter.  A dead
  // weak_ptr means the engine is gone — nothing left to release.
  if (std::shared_ptr<AdmissionState> admission = state_->admission.lock()) {
    bool erased = false;
    {
      std::lock_guard<std::mutex> lock(admission->mu);
      if (state_->in_queue) {
        admission->queue.erase(state_->queue_pos);
        state_->in_queue = false;
        erased = true;
      }
    }
    if (erased) admission->space_cv.notify_one();
    admission->cancelled.fetch_add(1, std::memory_order_relaxed);
  }
  state_->Finish();
  return true;
}

AsyncQueryEngine::AsyncQueryEngine(QueryEngine engine,
                                   const AsyncQueryEngineOptions& options,
                                   std::unique_ptr<Graph> shed_graph,
                                   std::optional<QueryEngine> shed_engine)
    : engine_(std::move(engine)),
      options_(options),
      shed_graph_(std::move(shed_graph)),
      shed_engine_(std::move(shed_engine)),
      admission_(std::make_shared<AdmissionState>()) {
  max_inflight_ =
      options_.max_inflight_jobs > 0
          ? static_cast<size_t>(options_.max_inflight_jobs)
          : static_cast<size_t>(engine_.num_threads());
  scheduler_ = std::thread([this] { SchedulerLoop(); });
}

AsyncQueryEngine::~AsyncQueryEngine() { Shutdown(); }

Status AsyncQueryEngine::ValidateOptions(
    const AsyncQueryEngineOptions& options) {
  if (options.queue_capacity < 1) {
    return InvalidArgumentError("queue_capacity must be at least 1");
  }
  if (options.max_inflight_jobs < 0) {
    return InvalidArgumentError("max_inflight_jobs must be non-negative");
  }
  const DegradationPolicy& policy = options.degradation;
  if (!policy.enabled) {
    if (policy.shed_to_fp32) {
      return InvalidArgumentError("shed_to_fp32 requires degradation.enabled");
    }
    return OkStatus();
  }
  if (policy.queue_watermark < 0.0 || policy.queue_watermark > 1.0) {
    return InvalidArgumentError("queue_watermark must lie in [0, 1]");
  }
  if (policy.min_iterations < 0) {
    return InvalidArgumentError("min_iterations must be non-negative");
  }
  return OkStatus();
}

StatusOr<std::unique_ptr<AsyncQueryEngine>> AsyncQueryEngine::Create(
    const Graph& graph, std::unique_ptr<RwrMethod> method,
    const QueryEngineOptions& engine_options,
    const AsyncQueryEngineOptions& async_options) {
  TPA_RETURN_IF_ERROR(ValidateOptions(async_options));
  if (async_options.degradation.shed_to_fp32) {
    // The shed tier needs a second instance of the method over the fp32
    // graph; only the registry can manufacture one.
    return InvalidArgumentError(
        "shed_to_fp32 requires CreateFromRegistry (a second method instance "
        "must be built for the fp32 tier)");
  }
  TPA_ASSIGN_OR_RETURN(
      QueryEngine engine,
      QueryEngine::Create(graph, std::move(method), engine_options));
  // Not make_unique: the constructor (which starts the scheduler) is
  // private.
  return std::unique_ptr<AsyncQueryEngine>(
      new AsyncQueryEngine(std::move(engine), async_options,
                           /*shed_graph=*/nullptr,
                           /*shed_engine=*/std::nullopt));
}

StatusOr<std::unique_ptr<AsyncQueryEngine>>
AsyncQueryEngine::CreateFromRegistry(
    const Graph& graph, std::string_view method_name,
    const MethodConfig& config, const QueryEngineOptions& engine_options,
    const AsyncQueryEngineOptions& async_options) {
  TPA_ASSIGN_OR_RETURN(std::unique_ptr<RwrMethod> method,
                       CreateMethod(method_name, config));
  if (!async_options.degradation.shed_to_fp32) {
    return Create(graph, std::move(method), engine_options, async_options);
  }

  TPA_RETURN_IF_ERROR(ValidateOptions(async_options));
  if (graph.value_precision() != la::Precision::kFloat64) {
    return InvalidArgumentError(
        "shed_to_fp32 requires an fp64 primary graph — an fp32 engine has "
        "no cheaper tier to shed to");
  }

  // The shed tier: the same method (second instance) over the same graph
  // rematerialized at fp32, serving cache-less on one thread.  The result
  // shape (top_k) must match the primary engine so shed answers are
  // drop-in, but everything about capacity is minimal — shedding is an
  // overflow valve, not a parallel serving hierarchy.
  TPA_ASSIGN_OR_RETURN(std::unique_ptr<RwrMethod> shed_method,
                       CreateMethod(method_name, config));
  if (!shed_method->SupportsPrecision(la::Precision::kFloat32)) {
    return InvalidArgumentError(
        "shed_to_fp32 requires a method supporting the fp32 tier");
  }
  auto shed_graph = std::make_unique<Graph>(
      RematerializeWithPrecision(graph, la::Precision::kFloat32));
  QueryEngineOptions shed_options;
  shed_options.num_threads = 1;
  shed_options.top_k = engine_options.top_k;
  shed_options.batch_block_size = 0;
  TPA_ASSIGN_OR_RETURN(QueryEngine shed_engine,
                       QueryEngine::Create(*shed_graph, std::move(shed_method),
                                           shed_options));

  TPA_ASSIGN_OR_RETURN(
      QueryEngine engine,
      QueryEngine::Create(graph, std::move(method), engine_options));
  return std::unique_ptr<AsyncQueryEngine>(new AsyncQueryEngine(
      std::move(engine), async_options, std::move(shed_graph),
      std::move(shed_engine)));
}

QueryTicket AsyncQueryEngine::Submit(NodeId seed,
                                     const SubmitOptions& options) {
  auto state = std::make_shared<TicketState>();
  state->result.seed = seed;
  state->on_complete = options.on_complete;
  state->admission = admission_;
  state->context.deadline = options.deadline;
  state->context.cancel = &state->cancel_requested;
  submitted_.fetch_add(1, std::memory_order_relaxed);

  // Everything past this point must survive the engine being destroyed
  // while a kBlock submitter is parked on space_cv: Shutdown wakes blocked
  // submitters but does not wait for them, so after the wait only this
  // local shared_ptr (keeping the admission block alive) and these copied
  // options may be touched — never another engine member.
  const std::shared_ptr<AdmissionState> admission = admission_;
  const size_t queue_capacity = options_.queue_capacity;
  const QueueFullPolicy queue_full_policy = options_.queue_full_policy;
  AdmissionState& adm = *admission;
  Status failure;
  {
    std::unique_lock<std::mutex> lock(adm.mu);
    if (adm.stopping) {
      failure = FailedPreconditionError("engine is shutting down");
    } else if (adm.queue.size() >= queue_capacity &&
               (queue_full_policy == QueueFullPolicy::kReject ||
                tls_on_serving_thread)) {
      failure = ResourceExhaustedError("admission queue full");
    } else {
      if (adm.queue.size() >= queue_capacity) {
        adm.space_cv.wait(lock, [&] {
          return adm.stopping || adm.queue.size() < queue_capacity;
        });
      }
      if (adm.stopping) {
        failure = FailedPreconditionError("engine is shutting down");
      } else {
        adm.queue.push_back(state);
        state->queue_pos = std::prev(adm.queue.end());
        state->in_queue = true;
        adm.work_cv.notify_one();
      }
    }
  }
  QueryTicket ticket{state};
  if (!failure.ok()) {
    adm.rejected.fetch_add(1, std::memory_order_relaxed);
    state->result.status = std::move(failure);
    // Not Complete(): that is an engine member function reading engine
    // state, and this rejection path runs on woken-after-shutdown
    // submitters too.
    state->Finish();
  }
  return ticket;
}

void AsyncQueryEngine::SchedulerLoop() {
  AdmissionState& adm = *admission_;
  std::unique_lock<std::mutex> lock(adm.mu);
  for (;;) {
    adm.work_cv.wait(lock, [&] {
      return (!adm.queue.empty() && adm.inflight < max_inflight_) ||
             (adm.stopping && adm.queue.empty());
    });
    if (adm.queue.empty()) return;  // stopping and fully drained

    // The overload sample happens here, at dispatch time under the queue
    // lock: the depth the dispatch observes (including the tickets it is
    // about to pop) is what decides whether this chunk runs degraded.
    const bool overloaded = IsOverloaded(adm.queue.size());

    // Pop whatever is waiting, up to one SpMM group — arrivals that
    // accumulated while every job slot was busy coalesce here.
    std::vector<std::shared_ptr<TicketState>> chunk;
    const size_t chunk_limit = engine_.group_width_;
    chunk.reserve(std::min(adm.queue.size(), chunk_limit));
    while (!adm.queue.empty() && chunk.size() < chunk_limit) {
      std::shared_ptr<TicketState>& front = adm.queue.front();
      front->in_queue = false;  // leaving the queue: Cancel must not unlink
      chunk.push_back(std::move(front));
      adm.queue.pop_front();
    }
    ++adm.inflight;
    lock.unlock();
    adm.space_cv.notify_all();  // freed queue slots
    groups_dispatched_.fetch_add(1, std::memory_order_relaxed);
    seeds_dispatched_.fetch_add(chunk.size(), std::memory_order_relaxed);
    engine_.pool_->Submit([this, &adm, overloaded, chunk = std::move(chunk)] {
      ServeChunk(chunk, overloaded);
      tls_on_serving_thread = false;
      // Notify while holding the lock: once a waiter can observe
      // inflight == 0 it may destroy the engine (Shutdown returns), so
      // the condition variables must not be touched after unlocking.
      std::lock_guard<std::mutex> job_lock(adm.mu);
      --adm.inflight;
      adm.work_cv.notify_all();  // a job slot freed
      adm.idle_cv.notify_all();  // Shutdown may be waiting for the drain
    });
    lock.lock();
  }
}

bool AsyncQueryEngine::IsOverloaded(size_t queue_depth) const {
  const DegradationPolicy& policy = options_.degradation;
  if (!policy.enabled) return false;
  const double watermark =
      policy.queue_watermark * static_cast<double>(options_.queue_capacity);
  return static_cast<double>(queue_depth) >= watermark;
}

void AsyncQueryEngine::ServeChunk(
    const std::vector<std::shared_ptr<TicketState>>& chunk, bool overloaded) {
  tls_on_serving_thread = true;
  const DegradationPolicy& policy = options_.degradation;
  const bool degrade = policy.enabled && overloaded;
  const auto now = std::chrono::steady_clock::now();
  std::vector<TicketState*> runnable;
  runnable.reserve(chunk.size());
  for (const std::shared_ptr<TicketState>& state : chunk) {
    if (!state->TryBegin()) {
      // Cancellation won the race (and already counted itself).
      continue;
    }
    // A degrading dispatch never expires a ticket outright: a deadline
    // that already passed still buys a bounded partial answer below.
    const auto& deadline = state->context.deadline;
    if (deadline.has_value() && *deadline <= now && !degrade) {
      state->result.status =
          DeadlineExceededError("deadline expired before serving began");
      expired_.fetch_add(1, std::memory_order_relaxed);
      Complete(*state, /*served=*/false);
      continue;
    }
    runnable.push_back(state.get());
  }
  if (runnable.empty()) return;

  // A fault in the serving job itself (before any method runs) fails every
  // runnable ticket with its own status — each still completes exactly
  // once, and the engine keeps serving afterwards.
  const Status chunk_fault = [] {
    try {
      TPA_FAILPOINT("engine.serve_chunk");
      return OkStatus();
    } catch (const std::exception& e) {
      return InternalError(std::string("serving job threw: ") + e.what());
    } catch (...) {
      return InternalError("serving job threw a non-exception object");
    }
  }();
  if (!chunk_fault.ok()) {
    for (TicketState* state : runnable) {
      state->result.status = chunk_fault;
      Complete(*state, /*served=*/true);
    }
    return;
  }

  // Every ticket serves under its cooperative context, which a degrading
  // dispatch extends with the policy's partial-answer contract.  In a
  // group, an aborting ticket freezes out of the shared SpMM while the rest
  // of the group converges normally.
  std::vector<QueryEngine::Request> requests;
  requests.reserve(runnable.size());
  for (TicketState* state : runnable) {
    if (degrade) {
      state->context.degrade_to_partial = true;
      state->context.min_iterations = policy.min_iterations;
    }
    requests.push_back({&state->result, &state->context});
  }
  const std::span<QueryEngine::Request> misses =
      std::span(requests).first(engine_.Resolve(requests));
  // An exact cached answer beats a shed one: only true misses pay the fp32
  // tier, which computes them per seed (it never groups).
  if (degrade && shed_engine_.has_value()) {
    shed_engine_->Compute(misses);
    for (const QueryEngine::Request& request : misses) {
      request.result->shed_to_fp32 = true;
    }
  } else {
    engine_.Compute(misses);
  }

  for (TicketState* state : runnable) {
    const QueryResult& result = state->result;
    if (result.shed_to_fp32) shed_.fetch_add(1, std::memory_order_relaxed);
    if (state->context.aborted) {
      (result.degraded ? degraded_ : aborted_)
          .fetch_add(1, std::memory_order_relaxed);
    }
    Complete(*state, /*served=*/true);
  }
}

void AsyncQueryEngine::Complete(TicketState& state, bool served) {
  if (served) completed_.fetch_add(1, std::memory_order_relaxed);
  if (state.context.deadline.has_value()) {
    // Deadline-miss EWMA: a miss is any outcome where the converged answer
    // did not arrive in time — expiry, a deadline abort, or a
    // deadline-degraded partial.
    const QueryResult& result = state.result;
    const bool missed =
        result.status.code() == StatusCode::kDeadlineExceeded ||
        (result.degraded &&
         result.degrade_reason == StatusCode::kDeadlineExceeded);
    constexpr double kAlpha = 0.05;
    const double sample = missed ? 1.0 : 0.0;
    double current = miss_ewma_.load(std::memory_order_relaxed);
    while (!miss_ewma_.compare_exchange_weak(
        current, current + kAlpha * (sample - current),
        std::memory_order_relaxed)) {
    }
  }
  state.Finish();
}

void AsyncQueryEngine::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (shutdown_done_) return;
  AdmissionState& adm = *admission_;
  {
    std::lock_guard<std::mutex> lock(adm.mu);
    adm.stopping = true;
  }
  adm.work_cv.notify_all();
  adm.space_cv.notify_all();
  scheduler_.join();  // exits once the queue is drained
  {
    std::unique_lock<std::mutex> lock(adm.mu);
    adm.idle_cv.wait(lock, [&] { return adm.inflight == 0; });
  }
  shutdown_done_ = true;
}

AsyncQueryEngine::AsyncStats AsyncQueryEngine::stats() const {
  AsyncStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.rejected = admission_->rejected.load(std::memory_order_relaxed);
  stats.cancelled = admission_->cancelled.load(std::memory_order_relaxed);
  stats.expired = expired_.load(std::memory_order_relaxed);
  stats.aborted = aborted_.load(std::memory_order_relaxed);
  stats.degraded = degraded_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.groups_dispatched =
      groups_dispatched_.load(std::memory_order_relaxed);
  stats.seeds_dispatched = seeds_dispatched_.load(std::memory_order_relaxed);
  stats.deadline_miss_rate = miss_ewma_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(admission_->mu);
  stats.queue_depth = admission_->queue.size();
  return stats;
}

}  // namespace tpa
