#ifndef TPA_ENGINE_ASYNC_QUERY_ENGINE_H_
#define TPA_ENGINE_ASYNC_QUERY_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "method/registry.h"
#include "util/status.h"

namespace tpa {

namespace internal_async {
struct TicketState;
struct AdmissionState;
}  // namespace internal_async

/// What Submit does when the admission queue is at capacity.
enum class QueueFullPolicy {
  /// Submit blocks until a queue slot frees (or shutdown begins).
  kBlock,
  /// Submit returns immediately with a ticket already failed with
  /// RESOURCE_EXHAUSTED — the client's signal to back off.
  kReject,
};

/// Engine-level overload response: when enabled and the engine is past a
/// watermark at dispatch time, deadline/cancel aborts stop failing queries
/// and start degrading them — the client receives the last complete
/// propagation iterate as a certified approximate answer
/// (QueryResult::degraded, with its L1 error bound) instead of
/// DEADLINE_EXCEEDED.  A ticket whose deadline has already expired when a
/// degrading dispatch picks it up runs a bounded partial instead of
/// expiring outright.  Degraded answers are never cached.
struct DegradationPolicy {
  /// Master switch; when false every other field is ignored and aborts
  /// fail with their status code as usual.
  bool enabled = false;
  /// Queue-depth watermark as a fraction of queue_capacity: a dispatch
  /// that observes at least this much of the queue occupied runs degraded.
  /// 0 (the default) means "always overloaded" once the policy is enabled.
  /// Must lie in [0, 1].
  double queue_watermark = 0.0;
  /// Iterations a degrading query must complete before honoring an abort,
  /// so a degraded answer is never the bare restart vector.  The error
  /// bound stays certified regardless.
  int min_iterations = 0;
  /// Shed overloaded queries to a private fp32 serving tier: the engine
  /// rematerializes the graph at fp32 and builds a second instance of the
  /// method over it; overloaded dispatches serve per-seed through that
  /// tier (QueryResult::scores_f32 + shed_to_fp32) at roughly half the
  /// memory traffic.  Requires CreateFromRegistry over an fp64 graph with
  /// a method that supports the fp32 tier — plain Create cannot build the
  /// second method instance and fails with INVALID_ARGUMENT.
  bool shed_to_fp32 = false;
};

/// Configuration of the admission queue layered over a QueryEngine.
struct AsyncQueryEngineOptions {
  /// Admission-queue capacity in tickets; Submit applies queue_full_policy
  /// once this many are waiting.  Must be at least 1.
  size_t queue_capacity = 1024;
  QueueFullPolicy queue_full_policy = QueueFullPolicy::kBlock;
  /// Serving jobs allowed in flight on the pool at once; 0 resolves to the
  /// pool's thread count.  The scheduler dispatches only when a slot is
  /// free, so under load tickets accumulate in the queue — which is exactly
  /// what lets the next dispatch coalesce them into one SpMM group.
  int max_inflight_jobs = 0;
  /// Overload response; disabled by default (aborts fail, nothing sheds).
  DegradationPolicy degradation;
};

/// Per-submit options.
struct SubmitOptions {
  /// Absolute deadline, enforced end to end.  A ticket whose deadline has
  /// already passed when a serving job picks it up completes with
  /// DEADLINE_EXCEEDED without running (unless a degrading dispatch turns
  /// it into a bounded partial — see DegradationPolicy).  A ticket that is
  /// already running carries the deadline into the method: iteration-shaped
  /// methods poll it at propagation-iteration boundaries and abort within
  /// one iteration, failing with DEADLINE_EXCEEDED or degrading per policy.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Invoked exactly once with the final result, before the ticket becomes
  /// observable as done (a client returning from Wait knows its callback
  /// has already run) — on the serving thread for served tickets, on the
  /// submitting thread for rejected ones, on the cancelling thread for
  /// cancelled ones.  Must not block for long, must not Wait on its own
  /// ticket, and must not destroy the engine.
  std::function<void(const QueryResult&)> on_complete;
};

/// Handle to one submitted query: a future over its QueryResult plus
/// client-side cancellation.  Cheap to copy (all copies share the state).
/// A ticket outliving the engine stays valid — the engine's shutdown drain
/// completes every admitted ticket first.
class QueryTicket {
 public:
  /// kQueued → kRunning → kDone, except that rejection, cancellation, and
  /// deadline expiry jump straight from kQueued to kDone.
  enum class State { kQueued, kRunning, kDone };

  QueryTicket() = default;  // empty; CHECK-fails on use

  bool valid() const { return state_ != nullptr; }

  /// Blocks until the ticket completes; the reference stays valid for the
  /// life of the ticket.  result().status distinguishes the outcomes:
  /// OK / method error, RESOURCE_EXHAUSTED (rejected at admission),
  /// CANCELLED, DEADLINE_EXCEEDED, FAILED_PRECONDITION (submitted during
  /// shutdown).
  const QueryResult& Wait() const;

  /// Wait with a timeout; false when the ticket is still pending.
  bool WaitFor(std::chrono::milliseconds timeout) const;

  /// True once the result is available (never blocks).
  bool done() const;
  State state() const;

  /// Client-side cancellation.  A still-queued ticket completes with
  /// CANCELLED immediately and its admission-queue slot is released on the
  /// spot — unlinked from the queue, waking one kBlock-blocked submitter —
  /// instead of a dead ticket occupying capacity until the scheduler
  /// reaches it.  A *running* ticket gets a cooperative abort request:
  /// iteration-shaped methods observe it at the next propagation-iteration
  /// boundary and the result arrives (through Wait/on_complete as usual)
  /// as CANCELLED — or as a degraded partial under an active
  /// DegradationPolicy; a method that finished first, or one with no
  /// iteration boundary to poll, completes normally.  Returns true when
  /// the ticket was still queued or running (the cancel landed or was
  /// requested), false when it had already completed.
  bool Cancel();

 private:
  friend class AsyncQueryEngine;
  explicit QueryTicket(std::shared_ptr<internal_async::TicketState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal_async::TicketState> state_;
};

/// Asynchronous admission-queue serving over a QueryEngine: one engine
/// multiplexes many concurrent clients through per-query Submit / ticket
/// completion instead of the blocking QueryBatch latch.
///
/// Submitted tickets enter a bounded FIFO queue; a scheduler thread drains
/// them into serving jobs on the engine's pool, dispatching only while a
/// job slot is free (max_inflight_jobs).  When the underlying method
/// supports native batched queries, each dispatch pops up to
/// batch_block_size waiting tickets and serves the cache-miss seeds as one
/// SpMM group — so opportunistic batching emerges from arrival order under
/// load, without clients pre-batching.  Serving runs the exact same private
/// QueryEngine paths as Query / QueryBatch, so results are bitwise
/// identical to the blocking API for the same seeds — at either precision
/// tier (an engine over an fp32 graph serves fp32 through the async
/// surface too).
///
/// Shutdown (or destruction) stops admissions, then drains: every ticket
/// already admitted is served to completion before the engine dies.
class AsyncQueryEngine {
 public:
  /// Builds the wrapped QueryEngine (running the method's one-time
  /// preprocessing) and starts the scheduler.
  static StatusOr<std::unique_ptr<AsyncQueryEngine>> Create(
      const Graph& graph, std::unique_ptr<RwrMethod> method,
      const QueryEngineOptions& engine_options = {},
      const AsyncQueryEngineOptions& async_options = {});

  /// Registry convenience, mirroring QueryEngine::CreateFromRegistry.
  static StatusOr<std::unique_ptr<AsyncQueryEngine>> CreateFromRegistry(
      const Graph& graph, std::string_view method_name,
      const MethodConfig& config = {},
      const QueryEngineOptions& engine_options = {},
      const AsyncQueryEngineOptions& async_options = {});

  AsyncQueryEngine(const AsyncQueryEngine&) = delete;
  AsyncQueryEngine& operator=(const AsyncQueryEngine&) = delete;

  /// Shuts down (draining all admitted tickets) and joins.
  ~AsyncQueryEngine();

  /// Enqueues one seed query and returns its ticket.  Applies the
  /// queue-full policy; never throws.  Safe from any thread, including
  /// completion callbacks of other tickets — with one liveness guard: a
  /// Submit from a serving-side callback never blocks on queue space (the
  /// serving job it runs on is what frees slots), so on a full queue it
  /// rejects with RESOURCE_EXHAUSTED even under kBlock.
  QueryTicket Submit(NodeId seed, const SubmitOptions& options = {});

  /// Stops admissions (later Submits fail with FAILED_PRECONDITION), wakes
  /// blocked submitters, serves every already-admitted ticket, and joins
  /// the scheduler.  Idempotent and safe to call concurrently.
  void Shutdown();

  /// The wrapped engine: the blocking Query / QueryBatch surface remains
  /// available and shares the cache and pool with the async path.
  QueryEngine& engine() { return engine_; }
  const QueryEngine& engine() const { return engine_; }

  /// Monotonic counters; at quiescence
  /// submitted == completed + rejected + cancelled + expired.
  struct AsyncStats {
    uint64_t submitted = 0;
    /// Tickets served by the engine (including per-slot errors).
    uint64_t completed = 0;
    /// Queue-full rejects plus submit-during-shutdown failures.
    uint64_t rejected = 0;
    uint64_t cancelled = 0;
    uint64_t expired = 0;
    /// Running tickets whose serve ended in a cooperative abort (deadline
    /// or mid-run Cancel) without a degraded answer.  Subset of completed —
    /// the ticket was served, just with an abort status.
    uint64_t aborted = 0;
    /// Tickets completed with a degraded partial answer (QueryResult::
    /// degraded).  Subset of completed.
    uint64_t degraded = 0;
    /// Tickets routed to the fp32 shed tier (DegradationPolicy::
    /// shed_to_fp32).  Subset of completed.
    uint64_t shed = 0;
    /// Serving jobs dispatched and the tickets they carried — the coalescing
    /// signal: seeds_dispatched / groups_dispatched is the mean group size.
    uint64_t groups_dispatched = 0;
    uint64_t seeds_dispatched = 0;
    /// Tickets currently waiting for dispatch.
    size_t queue_depth = 0;
    /// EWMA of deadline misses over deadline-bearing completions (1 =
    /// every recent deadline missed).  0 while no deadline-bearing ticket
    /// has completed.
    double deadline_miss_rate = 0.0;
  };
  AsyncStats stats() const;

 private:
  AsyncQueryEngine(QueryEngine engine, const AsyncQueryEngineOptions& options,
                   std::unique_ptr<Graph> shed_graph,
                   std::optional<QueryEngine> shed_engine);

  /// Validates a DegradationPolicy (watermark range, min_iterations);
  /// shared by Create and CreateFromRegistry.
  static Status ValidatePolicy(const DegradationPolicy& policy);

  void SchedulerLoop();
  /// Whether a dispatch observing `queue_depth` waiting tickets should run
  /// degraded under the policy's queue watermark.
  bool IsOverloaded(size_t queue_depth) const;
  /// Folds one deadline-bearing completion into the miss-rate EWMA.
  void RecordDeadlineOutcome(bool missed);
  /// One serving job: claims each ticket (skipping cancelled ones, expiring
  /// past-deadline ones unless the dispatch degrades), then serves cache
  /// hits and invalid seeds per slot and the remaining misses per seed or
  /// as one SpMM group — each miss under a per-ticket QueryContext wiring
  /// its deadline, its mid-run cancel flag, and the dispatch's degradation
  /// decision into the method.  `overloaded` is the scheduler's
  /// dispatch-time watermark sample.
  void ServeChunk(
      const std::vector<std::shared_ptr<internal_async::TicketState>>& chunk,
      bool overloaded);
  /// Marks `state` done with `result`'s current content and fires its
  /// callback; bumps completed_ when `served` is true.
  void Complete(internal_async::TicketState& state, bool served);

  QueryEngine engine_;
  AsyncQueryEngineOptions options_;
  /// fp32 shed tier (DegradationPolicy::shed_to_fp32): the rematerialized
  /// graph must outlive the engine borrowing it, hence the member order.
  /// The shed engine is cache-less and single-threaded — shed queries are
  /// the cheap overflow path, not a second serving hierarchy.
  std::unique_ptr<Graph> shed_graph_;
  std::optional<QueryEngine> shed_engine_;
  /// Tickets per dispatch: batch_block_size when the method batches
  /// natively, else 1.
  size_t chunk_limit_ = 1;
  size_t max_inflight_ = 1;

  /// The queue, its synchronization, and the cancellation / rejection
  /// counters live in a shared state block so a QueryTicket can reach back
  /// (via weak_ptr) and release its queue slot on Cancel even though
  /// tickets may outlive the engine — a dead weak_ptr simply skips the
  /// release (the shutdown drain has already emptied the queue by then).
  /// Submit keeps its own strong reference across any kBlock wait, so a
  /// submitter woken by Shutdown survives the engine being destroyed
  /// right after Shutdown returns.
  std::shared_ptr<internal_async::AdmissionState> admission_;

  std::mutex shutdown_mu_;  // serializes Shutdown callers
  bool shutdown_done_ = false;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> expired_{0};
  std::atomic<uint64_t> aborted_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> groups_dispatched_{0};
  std::atomic<uint64_t> seeds_dispatched_{0};
  /// Deadline-miss EWMA (α = 0.05), updated lock-free via CAS at each
  /// deadline-bearing completion.
  std::atomic<double> miss_ewma_{0.0};

  std::thread scheduler_;  // last member: joined by Shutdown before teardown
};

}  // namespace tpa

#endif  // TPA_ENGINE_ASYNC_QUERY_ENGINE_H_
