#include "engine/async_query_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/tpa.h"
#include "graph/generators.h"
#include "la/vector_ops.h"
#include "method/registry.h"
#include "method/rwr_method.h"
#include "method/tpa_method.h"
#include "util/check.h"

namespace tpa {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

constexpr milliseconds kWaitBudget{30000};

Graph ServingGraph(uint64_t seed = 77) {
  DcsbmOptions options;
  options.nodes = 500;
  options.edges = 5000;
  options.blocks = 10;
  options.seed = seed;
  auto graph = GenerateDcsbm(options);
  TPA_CHECK(graph.ok());
  return std::move(graph).value();
}

/// Test method whose Query blocks until the test opens a shared gate —
/// makes queue occupancy, cancellation windows, and shutdown drains
/// deterministic instead of racing against real service times.
class GateMethod final : public RwrMethod {
 public:
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;

    void Open() {
      {
        std::lock_guard<std::mutex> lock(mu);
        open = true;
      }
      cv.notify_all();
    }
    void Await() {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return open; });
    }
  };

  explicit GateMethod(std::shared_ptr<Gate> gate) : gate_(std::move(gate)) {}

  std::string_view name() const override { return "Gate"; }

  Status Preprocess(const Graph& graph, MemoryBudget&) override {
    num_nodes_ = graph.num_nodes();
    return OkStatus();
  }

  StatusOr<std::vector<double>> Query(NodeId seed,
                                      QueryContext* context = nullptr)
      override {
    (void)context;
    gate_->Await();
    std::vector<double> scores(num_nodes_, 0.0);
    scores[seed] = 1.0;
    return scores;
  }

  size_t PreprocessedBytes() const override { return 0; }
  bool SupportsConcurrentQuery() const override { return true; }

 private:
  std::shared_ptr<Gate> gate_;
  uint32_t num_nodes_ = 0;
};

/// Polls until `ticket` has left the queue (running or done).
void AwaitDispatched(const QueryTicket& ticket) {
  while (ticket.state() == QueryTicket::State::kQueued) {
    std::this_thread::sleep_for(milliseconds(1));
  }
}

TEST(AsyncQueryEngineTest, MultiClientSubmitWaitMatchesSequentialBitwise) {
  Graph graph = ServingGraph();
  MethodConfig config;
  config.tolerance = 1e-7;

  for (std::string_view name :
       {"TPA", "BEAR-APPROX", "NB-LIN", "BRPPR", "FORA", "HubPPR", "BePI",
        "PowerIteration"}) {
    auto probe = CreateMethod(name, config);
    ASSERT_TRUE(probe.ok()) << name;
    if (!(*probe)->SupportsConcurrentQuery()) continue;  // RNG-stateful

    QueryEngineOptions engine_options;
    engine_options.num_threads = 4;
    engine_options.batch_block_size = 4;
    auto async = AsyncQueryEngine::CreateFromRegistry(graph, name, config,
                                                      engine_options);
    ASSERT_TRUE(async.ok()) << async.status();
    auto sequential =
        QueryEngine::CreateFromRegistry(graph, name, config, engine_options);
    ASSERT_TRUE(sequential.ok()) << sequential.status();

    // Three clients, interleaved seed sets, all submitting concurrently.
    constexpr int kClients = 3;
    constexpr int kPerClient = 20;
    std::vector<std::vector<QueryTicket>> tickets(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < kPerClient; ++i) {
          const NodeId seed = static_cast<NodeId>(
              (c * kPerClient + i * 37) % graph.num_nodes());
          tickets[c].push_back((*async)->Submit(seed));
        }
      });
    }
    for (std::thread& client : clients) client.join();

    for (int c = 0; c < kClients; ++c) {
      for (int i = 0; i < kPerClient; ++i) {
        const QueryResult& result = tickets[c][i].Wait();
        ASSERT_TRUE(result.status.ok()) << name << ": " << result.status;
        const QueryResult expected = sequential->Query(result.seed);
        ASSERT_TRUE(expected.status.ok());
        ASSERT_EQ(result.scores.size(), expected.scores.size()) << name;
        for (size_t j = 0; j < expected.scores.size(); ++j) {
          ASSERT_EQ(result.scores[j], expected.scores[j])
              << name << " seed " << result.seed << " node " << j;
        }
      }
    }
    const auto stats = (*async)->stats();
    EXPECT_EQ(stats.submitted, uint64_t{kClients * kPerClient});
    EXPECT_EQ(stats.completed, stats.submitted);
    EXPECT_EQ(stats.rejected, 0u);
  }
}

TEST(AsyncQueryEngineTest, AsyncMatchesBlockingQueryBatchBitwise) {
  Graph graph = ServingGraph();
  std::vector<NodeId> seeds;
  for (int i = 0; i < 48; ++i) {
    seeds.push_back(static_cast<NodeId>((i * 41) % graph.num_nodes()));
  }

  QueryEngineOptions engine_options;
  engine_options.num_threads = 2;
  engine_options.batch_block_size = 8;
  auto blocking = QueryEngine::Create(graph, std::make_unique<TpaMethod>(),
                                      engine_options);
  ASSERT_TRUE(blocking.ok());
  const std::vector<QueryResult> expected = blocking->QueryBatch(seeds);

  auto async = AsyncQueryEngine::Create(
      graph, std::make_unique<TpaMethod>(), engine_options);
  ASSERT_TRUE(async.ok());
  std::vector<QueryTicket> tickets;
  for (NodeId seed : seeds) tickets.push_back((*async)->Submit(seed));
  for (size_t i = 0; i < seeds.size(); ++i) {
    const QueryResult& result = tickets[i].Wait();
    ASSERT_TRUE(result.status.ok()) << result.status;
    EXPECT_EQ(result.seed, seeds[i]);
    ASSERT_EQ(result.scores.size(), expected[i].scores.size());
    for (size_t j = 0; j < expected[i].scores.size(); ++j) {
      ASSERT_EQ(result.scores[j], expected[i].scores[j])
          << "seed " << seeds[i] << " node " << j;
    }
  }

  // The burst outpaces service on the shared engine, so at least some
  // dispatches must have coalesced several tickets into one group job.
  const auto stats = (*async)->stats();
  EXPECT_EQ(stats.completed, seeds.size());
  EXPECT_EQ(stats.seeds_dispatched, seeds.size());
  EXPECT_LT(stats.groups_dispatched, stats.seeds_dispatched);
}

TEST(AsyncQueryEngineTest, DeadlineExpiryIsDistinctAndDoesNotCorruptLater) {
  Graph graph = ServingGraph();
  QueryEngineOptions engine_options;
  engine_options.num_threads = 2;
  auto async = AsyncQueryEngine::Create(graph, std::make_unique<TpaMethod>(),
                                        engine_options);
  ASSERT_TRUE(async.ok());

  // Already-expired deadline: completes with the distinct status, never runs.
  SubmitOptions expired;
  expired.deadline = steady_clock::now() - milliseconds(5);
  QueryTicket dead = (*async)->Submit(7, expired);
  ASSERT_TRUE(dead.WaitFor(kWaitBudget));
  EXPECT_EQ(dead.Wait().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(dead.Wait().scores.empty());

  // Later queries on the same engine are unaffected and exact.
  auto reference = QueryEngine::Create(graph, std::make_unique<TpaMethod>(),
                                       engine_options);
  ASSERT_TRUE(reference.ok());
  QueryTicket alive = (*async)->Submit(7);
  const QueryResult& result = alive.Wait();
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.scores, reference->Query(7).scores);

  const auto stats = (*async)->stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(AsyncQueryEngineTest, DeadlinePassingWhileQueuedExpires) {
  Graph graph = ServingGraph();
  auto gate = std::make_shared<GateMethod::Gate>();

  QueryEngineOptions engine_options;
  engine_options.num_threads = 1;
  AsyncQueryEngineOptions async_options;
  async_options.max_inflight_jobs = 1;
  auto async = AsyncQueryEngine::Create(
      graph, std::make_unique<GateMethod>(gate), engine_options,
      async_options);
  ASSERT_TRUE(async.ok());

  QueryTicket running = (*async)->Submit(1);  // occupies the only job slot
  AwaitDispatched(running);

  SubmitOptions options;
  options.deadline = steady_clock::now() + milliseconds(10);
  QueryTicket queued = (*async)->Submit(2, options);
  std::this_thread::sleep_for(milliseconds(50));  // deadline passes in queue
  gate->Open();

  EXPECT_EQ(queued.Wait().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(running.Wait().status.ok());
}

TEST(AsyncQueryEngineTest, DeadlineMissRateIsTheSameOnEveryDispatchShape) {
  // An expired ticket (a miss), then an out-of-range seed with a generous
  // deadline (failed, but on time): per-seed and grouped dispatch each fold
  // both deadline-bearing completions into the EWMA (alpha = 0.05), giving
  // 0.05 and then 0.05 * 0.95.
  Graph graph = ServingGraph();
  for (int block_size : {0, 4}) {
    QueryEngineOptions engine_options;
    engine_options.num_threads = 2;
    engine_options.batch_block_size = block_size;
    auto async = AsyncQueryEngine::Create(
        graph, std::make_unique<TpaMethod>(), engine_options);
    ASSERT_TRUE(async.ok());

    SubmitOptions expired;
    expired.deadline = steady_clock::now() - milliseconds(5);
    EXPECT_EQ((*async)->Submit(7, expired).Wait().status.code(),
              StatusCode::kDeadlineExceeded);
    SubmitOptions generous;
    generous.deadline = steady_clock::now() + std::chrono::seconds(30);
    EXPECT_EQ((*async)->Submit(999999, generous).Wait().status.code(),
              StatusCode::kOutOfRange);
    EXPECT_NEAR((*async)->stats().deadline_miss_rate, 0.0475, 1e-12)
        << "batch_block_size " << block_size;
  }
}

TEST(AsyncQueryEngineTest, CancelQueuedTicketBeforeItStarts) {
  Graph graph = ServingGraph();
  auto gate = std::make_shared<GateMethod::Gate>();

  QueryEngineOptions engine_options;
  engine_options.num_threads = 1;
  AsyncQueryEngineOptions async_options;
  async_options.max_inflight_jobs = 1;
  auto async = AsyncQueryEngine::Create(
      graph, std::make_unique<GateMethod>(gate), engine_options,
      async_options);
  ASSERT_TRUE(async.ok());

  QueryTicket running = (*async)->Submit(1);
  AwaitDispatched(running);

  std::atomic<int> callbacks{0};
  SubmitOptions options;
  options.on_complete = [&](const QueryResult& result) {
    EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
    callbacks.fetch_add(1);
  };
  QueryTicket queued = (*async)->Submit(2, options);
  EXPECT_EQ(queued.state(), QueryTicket::State::kQueued);

  EXPECT_TRUE(queued.Cancel());
  EXPECT_TRUE(queued.done());
  EXPECT_EQ(queued.Wait().status.code(), StatusCode::kCancelled);
  EXPECT_EQ(callbacks.load(), 1);
  EXPECT_FALSE(queued.Cancel());  // already done

  gate->Open();
  const QueryResult& served = running.Wait();
  ASSERT_TRUE(served.status.ok());
  EXPECT_EQ(served.scores[1], 1.0);
  EXPECT_FALSE(running.Cancel());  // serving already finished

  // Cancellation is counted by Cancel itself (the ticket may never reach
  // the scheduler at all now that Cancel unlinks it from the queue).
  QueryTicket last = (*async)->Submit(3);
  last.Wait();
  const auto stats = (*async)->stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(AsyncQueryEngineTest, CancelReleasesQueueSlotImmediately) {
  // Regression for the PR-4 limitation "cancelled tickets free their queue
  // slot only when the scheduler reaches them": with the one job slot held
  // behind a closed gate the scheduler can make no progress, so the only
  // way the blocked kBlock submitter below can ever get in is Cancel
  // releasing the queued ticket's slot directly.
  Graph graph = ServingGraph();
  auto gate = std::make_shared<GateMethod::Gate>();

  QueryEngineOptions engine_options;
  engine_options.num_threads = 1;
  AsyncQueryEngineOptions async_options;
  async_options.queue_capacity = 1;
  async_options.max_inflight_jobs = 1;
  async_options.queue_full_policy = QueueFullPolicy::kBlock;
  auto async = AsyncQueryEngine::Create(
      graph, std::make_unique<GateMethod>(gate), engine_options,
      async_options);
  ASSERT_TRUE(async.ok());

  QueryTicket running = (*async)->Submit(1);  // occupies the only job slot
  AwaitDispatched(running);
  QueryTicket queued = (*async)->Submit(2);  // fills the queue
  EXPECT_EQ((*async)->stats().queue_depth, 1u);

  std::atomic<bool> submitted{false};
  QueryTicket blocked;
  std::thread submitter([&] {
    blocked = (*async)->Submit(3);  // queue full → blocks on a slot
    submitted.store(true);
  });
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_FALSE(submitted.load());

  // No serving progress is possible (gate closed, job slot busy) — the
  // cancel alone must free the slot and wake the submitter.
  EXPECT_TRUE(queued.Cancel());
  const auto deadline = steady_clock::now() + kWaitBudget;
  while (!submitted.load() && steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_TRUE(submitted.load())
      << "cancel did not release the admission-queue slot";
  submitter.join();
  EXPECT_EQ(queued.Wait().status.code(), StatusCode::kCancelled);
  // Counted immediately, before any scheduler involvement.
  EXPECT_EQ((*async)->stats().cancelled, 1u);

  gate->Open();
  EXPECT_TRUE(running.Wait().status.ok());
  const QueryResult& late = blocked.Wait();
  ASSERT_TRUE(late.status.ok());
  EXPECT_EQ(late.scores[3], 1.0);

  const auto stats = (*async)->stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(AsyncQueryEngineTest, QueueFullRejectPolicyFailsFast) {
  Graph graph = ServingGraph();
  auto gate = std::make_shared<GateMethod::Gate>();

  QueryEngineOptions engine_options;
  engine_options.num_threads = 1;
  AsyncQueryEngineOptions async_options;
  async_options.queue_capacity = 1;
  async_options.max_inflight_jobs = 1;
  async_options.queue_full_policy = QueueFullPolicy::kReject;
  auto async = AsyncQueryEngine::Create(
      graph, std::make_unique<GateMethod>(gate), engine_options,
      async_options);
  ASSERT_TRUE(async.ok());

  QueryTicket running = (*async)->Submit(1);  // popped into the job slot
  AwaitDispatched(running);
  QueryTicket queued = (*async)->Submit(2);  // fills the queue
  QueryTicket bounced = (*async)->Submit(3);  // queue full → reject

  EXPECT_TRUE(bounced.done());  // rejection is immediate
  EXPECT_EQ(bounced.Wait().status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(bounced.Wait().seed, 3u);

  gate->Open();
  EXPECT_TRUE(running.Wait().status.ok());
  EXPECT_TRUE(queued.Wait().status.ok());
  const auto stats = (*async)->stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(AsyncQueryEngineTest, QueueFullBlockPolicyWaitsForASlot) {
  Graph graph = ServingGraph();
  auto gate = std::make_shared<GateMethod::Gate>();

  QueryEngineOptions engine_options;
  engine_options.num_threads = 1;
  AsyncQueryEngineOptions async_options;
  async_options.queue_capacity = 1;
  async_options.max_inflight_jobs = 1;
  async_options.queue_full_policy = QueueFullPolicy::kBlock;
  auto async = AsyncQueryEngine::Create(
      graph, std::make_unique<GateMethod>(gate), engine_options,
      async_options);
  ASSERT_TRUE(async.ok());

  QueryTicket running = (*async)->Submit(1);
  AwaitDispatched(running);
  QueryTicket queued = (*async)->Submit(2);

  std::atomic<bool> submitted{false};
  QueryTicket blocked;
  std::thread submitter([&] {
    blocked = (*async)->Submit(3);  // queue full → blocks until a slot frees
    submitted.store(true);
  });
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_FALSE(submitted.load());  // still blocked while the queue is full

  gate->Open();  // service resumes, slots free, the submitter unblocks
  submitter.join();
  EXPECT_TRUE(submitted.load());
  EXPECT_TRUE(running.Wait().status.ok());
  EXPECT_TRUE(queued.Wait().status.ok());
  const QueryResult& late = blocked.Wait();
  ASSERT_TRUE(late.status.ok());
  EXPECT_EQ(late.scores[3], 1.0);
  EXPECT_EQ((*async)->stats().rejected, 0u);
}

TEST(AsyncQueryEngineTest, CallbackSubmitOnFullQueueRejectsInsteadOfDeadlock) {
  // A Submit from an on_complete callback runs on the serving job that is
  // the only thing freeing queue slots — under kBlock it must fall back to
  // rejecting on a full queue instead of self-deadlocking.
  Graph graph = ServingGraph();
  auto gate = std::make_shared<GateMethod::Gate>();

  QueryEngineOptions engine_options;
  engine_options.num_threads = 1;
  AsyncQueryEngineOptions async_options;
  async_options.queue_capacity = 1;
  async_options.max_inflight_jobs = 1;
  async_options.queue_full_policy = QueueFullPolicy::kBlock;
  auto async = AsyncQueryEngine::Create(
      graph, std::make_unique<GateMethod>(gate), engine_options,
      async_options);
  ASSERT_TRUE(async.ok());

  std::atomic<bool> callback_ran{false};
  StatusCode nested_code = StatusCode::kOk;
  SubmitOptions options;
  options.on_complete = [&](const QueryResult&) {
    // The queue still holds the second ticket (the serving job has not
    // finished, so the scheduler cannot pop), so this nested Submit sees a
    // full queue on the serving thread.
    QueryTicket nested = (*async)->Submit(4);
    nested_code = nested.Wait().status.code();
    callback_ran.store(true);
  };
  QueryTicket running = (*async)->Submit(1, options);
  AwaitDispatched(running);
  QueryTicket queued = (*async)->Submit(2);  // fills the 1-slot queue

  gate->Open();
  ASSERT_TRUE(running.WaitFor(kWaitBudget)) << "callback submit deadlocked";
  EXPECT_TRUE(callback_ran.load());
  EXPECT_EQ(nested_code, StatusCode::kResourceExhausted);
  EXPECT_TRUE(queued.Wait().status.ok());
}

TEST(AsyncQueryEngineTest, ShutdownDrainsInflightAndQueuedWork) {
  Graph graph = ServingGraph();
  auto gate = std::make_shared<GateMethod::Gate>();

  QueryEngineOptions engine_options;
  engine_options.num_threads = 2;
  AsyncQueryEngineOptions async_options;
  async_options.max_inflight_jobs = 2;
  auto async = AsyncQueryEngine::Create(
      graph, std::make_unique<GateMethod>(gate), engine_options,
      async_options);
  ASSERT_TRUE(async.ok());

  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 20; ++i) {
    tickets.push_back((*async)->Submit(static_cast<NodeId>(i)));
  }

  std::thread shutdown([&] { (*async)->Shutdown(); });
  std::this_thread::sleep_for(milliseconds(20));
  gate->Open();  // let the drain proceed
  shutdown.join();

  // Every admitted ticket was served to completion before Shutdown
  // returned.
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(tickets[i].done()) << "ticket " << i;
    const QueryResult& result = tickets[i].Wait();
    ASSERT_TRUE(result.status.ok()) << result.status;
    EXPECT_EQ(result.scores[static_cast<size_t>(i)], 1.0);
  }
  const auto stats = (*async)->stats();
  EXPECT_EQ(stats.completed, 20u);
  EXPECT_EQ(stats.queue_depth, 0u);

  // Admissions after shutdown fail with a distinct status; double shutdown
  // and destruction stay safe.
  QueryTicket refused = (*async)->Submit(5);
  EXPECT_EQ(refused.Wait().status.code(), StatusCode::kFailedPrecondition);
  (*async)->Shutdown();
}

TEST(AsyncQueryEngineTest, CompletionCallbacksFireExactlyOncePerTicket) {
  Graph graph = ServingGraph();
  QueryEngineOptions engine_options;
  engine_options.num_threads = 2;
  engine_options.batch_block_size = 4;
  auto async = AsyncQueryEngine::Create(graph, std::make_unique<TpaMethod>(),
                                        engine_options);
  ASSERT_TRUE(async.ok());

  std::atomic<int> completions{0};
  std::atomic<int> ok_count{0};
  std::vector<QueryTicket> tickets;
  SubmitOptions options;
  options.on_complete = [&](const QueryResult& result) {
    completions.fetch_add(1);
    if (result.status.ok()) ok_count.fetch_add(1);
  };
  for (int i = 0; i < 30; ++i) {
    tickets.push_back(
        (*async)->Submit(static_cast<NodeId>(i % graph.num_nodes()), options));
  }
  // An invalid seed fails its own ticket through the same callback path.
  tickets.push_back((*async)->Submit(graph.num_nodes(), options));

  for (QueryTicket& ticket : tickets) ticket.Wait();
  EXPECT_EQ(completions.load(), 31);
  EXPECT_EQ(ok_count.load(), 30);
  EXPECT_EQ(tickets.back().Wait().status.code(), StatusCode::kOutOfRange);
}

TEST(AsyncQueryEngineTest, CacheIsSharedAcrossAsyncAndBlockingPaths) {
  Graph graph = ServingGraph();
  QueryEngineOptions engine_options;
  engine_options.num_threads = 2;
  engine_options.cache_capacity = 8;
  auto async = AsyncQueryEngine::Create(graph, std::make_unique<TpaMethod>(),
                                        engine_options);
  ASSERT_TRUE(async.ok());

  QueryTicket cold_ticket = (*async)->Submit(9);
  const QueryResult& cold = cold_ticket.Wait();
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.from_cache);

  QueryTicket warm_ticket = (*async)->Submit(9);
  const QueryResult& warm = warm_ticket.Wait();
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.scores, cold.scores);

  // The blocking surface sees the same cache.
  QueryResult blocking = (*async)->engine().Query(9);
  EXPECT_TRUE(blocking.from_cache);
  EXPECT_EQ(blocking.scores, cold.scores);
}

TEST(AsyncQueryEngineTest, ValidatesOptions) {
  Graph graph = ServingGraph();
  AsyncQueryEngineOptions bad_capacity;
  bad_capacity.queue_capacity = 0;
  EXPECT_FALSE(AsyncQueryEngine::Create(graph, std::make_unique<TpaMethod>(),
                                        {}, bad_capacity)
                   .ok());
  AsyncQueryEngineOptions bad_inflight;
  bad_inflight.max_inflight_jobs = -1;
  EXPECT_FALSE(AsyncQueryEngine::Create(graph, std::make_unique<TpaMethod>(),
                                        {}, bad_inflight)
                   .ok());
  EXPECT_FALSE(AsyncQueryEngine::Create(graph, nullptr, {}, {}).ok());
  EXPECT_FALSE(
      AsyncQueryEngine::CreateFromRegistry(graph, "NoSuchMethod").ok());
}

TEST(AsyncQueryEngineTest, WorkspacePopulationStaysWithinPoolSize) {
  // Regression for the ROADMAP-known limit: group jobs hopping between pool
  // workers used to re-warm one thread-local Cpi::Workspace each; the
  // shared checkout pool must instead bound the population by concurrency —
  // at most one workspace per worker thread, no matter how many groups ran.
  Graph graph = ServingGraph();
  QueryEngineOptions engine_options;
  engine_options.num_threads = 2;
  engine_options.batch_block_size = 4;
  auto method = std::make_unique<TpaMethod>();
  const TpaMethod* tpa_method = method.get();
  auto async = AsyncQueryEngine::Create(graph, std::move(method),
                                        engine_options);
  ASSERT_TRUE(async.ok());

  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 200; ++i) {  // many more groups than workers
    tickets.push_back(
        (*async)->Submit(static_cast<NodeId>((i * 13) % graph.num_nodes())));
  }
  for (QueryTicket& ticket : tickets) {
    ASSERT_TRUE(ticket.Wait().status.ok());
  }

  ASSERT_NE(tpa_method->tpa(), nullptr);
  const WorkspacePool& pool = tpa_method->tpa()->workspace_pool();
  EXPECT_GE(pool.created(), 1u);
  EXPECT_LE(pool.created(), 2u) << "workspaces must not exceed pool size";
  EXPECT_EQ(pool.available(), pool.created());  // all returned at quiescence
}

TEST(AsyncQueryEngineTest, ShutdownWakesBlockedSubmittersCleanly) {
  // Regression: kBlock submitters parked on the admission queue used to
  // reference engine members after waking — a shutdown racing the wakeup
  // could free those members under them.  Blocked submitters must wake on
  // Shutdown, fail their tickets cleanly, and touch only the admission
  // block (which they keep alive themselves) even while the engine object
  // is being destroyed.
  Graph graph = ServingGraph();
  auto gate = std::make_shared<GateMethod::Gate>();

  QueryEngineOptions engine_options;
  engine_options.num_threads = 1;
  AsyncQueryEngineOptions async_options;
  async_options.queue_capacity = 1;
  async_options.max_inflight_jobs = 1;
  async_options.queue_full_policy = QueueFullPolicy::kBlock;
  auto created = AsyncQueryEngine::Create(
      graph, std::make_unique<GateMethod>(gate), engine_options,
      async_options);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<AsyncQueryEngine> engine = std::move(created).value();

  QueryTicket running = engine->Submit(1);  // occupies the only job slot
  AwaitDispatched(running);
  QueryTicket queued = engine->Submit(2);  // fills the 1-slot queue

  constexpr int kBlocked = 8;
  std::atomic<int> callbacks{0};
  std::atomic<int> entered{0};
  std::vector<QueryTicket> blocked(kBlocked);
  std::vector<std::thread> submitters;
  // The submitters hold a raw pointer: the object under test is
  // Submit-racing-destructor, and reading the unique_ptr itself while the
  // destroyer resets it would be a (test-local) data race of its own.
  AsyncQueryEngine* raw_engine = engine.get();
  for (int i = 0; i < kBlocked; ++i) {
    submitters.emplace_back([&, i] {
      SubmitOptions options;
      options.on_complete = [&](const QueryResult&) { callbacks.fetch_add(1); };
      entered.fetch_add(1);
      blocked[i] = raw_engine->Submit(static_cast<NodeId>(3 + i), options);
      blocked[i].Wait();
    });
  }
  while (entered.load() < kBlocked) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  std::this_thread::sleep_for(milliseconds(50));  // let them park on the queue

  // Destroy the engine while the submitters are parked: Shutdown wakes
  // them, then drains the admitted work (which needs the gate open).
  std::thread destroyer([&] { engine.reset(); });
  std::this_thread::sleep_for(milliseconds(20));
  gate->Open();
  destroyer.join();
  for (std::thread& submitter : submitters) submitter.join();

  // Nothing hung, every blocked submitter got a cleanly failed ticket with
  // its callback fired exactly once, and the admitted work was drained.
  EXPECT_EQ(callbacks.load(), kBlocked);
  for (int i = 0; i < kBlocked; ++i) {
    ASSERT_TRUE(blocked[i].valid()) << "ticket " << i;
    ASSERT_TRUE(blocked[i].done()) << "ticket " << i;
    EXPECT_EQ(blocked[i].Wait().status.code(), StatusCode::kFailedPrecondition)
        << "ticket " << i;
  }
  EXPECT_TRUE(running.Wait().status.ok());
  EXPECT_TRUE(queued.Wait().status.ok());
}

TEST(AsyncQueryEngineTest, CancelRunningTicketIsACooperativeRequest) {
  // GateMethod never polls its QueryContext, so cancelling a *running*
  // ticket is a request, not a guarantee: Cancel returns true (the request
  // was delivered), and the ticket still completes exactly once through
  // the serving path with whatever the method produced.
  Graph graph = ServingGraph();
  auto gate = std::make_shared<GateMethod::Gate>();

  QueryEngineOptions engine_options;
  engine_options.num_threads = 1;
  auto async = AsyncQueryEngine::Create(
      graph, std::make_unique<GateMethod>(gate), engine_options, {});
  ASSERT_TRUE(async.ok());

  std::atomic<int> callbacks{0};
  SubmitOptions options;
  options.on_complete = [&](const QueryResult&) { callbacks.fetch_add(1); };
  QueryTicket running = (*async)->Submit(1, options);
  AwaitDispatched(running);

  EXPECT_TRUE(running.Cancel());   // delivered to the running query
  EXPECT_FALSE(running.done());    // ...which has not honored it yet
  gate->Open();
  const QueryResult& result = running.Wait();
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.scores[1], 1.0);
  EXPECT_EQ(callbacks.load(), 1);

  const auto stats = (*async)->stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.cancelled, 0u);  // queue-phase counter stays untouched
}

TEST(AsyncQueryEngineTest, OverloadDegradesPastDeadlineIntoCertifiedPartial) {
  Graph graph = ServingGraph();
  QueryEngineOptions engine_options;
  engine_options.num_threads = 2;
  AsyncQueryEngineOptions async_options;
  async_options.degradation.enabled = true;  // watermark 0: always overloaded
  async_options.degradation.min_iterations = 3;
  auto async = AsyncQueryEngine::Create(graph, std::make_unique<TpaMethod>(),
                                        engine_options, async_options);
  ASSERT_TRUE(async.ok()) << async.status();

  auto oracle =
      QueryEngine::Create(graph, std::make_unique<TpaMethod>(), {});
  ASSERT_TRUE(oracle.ok());

  for (NodeId seed : {NodeId{5}, NodeId{77}, NodeId{201}}) {
    SubmitOptions options;
    options.deadline = steady_clock::now() - milliseconds(1);
    QueryTicket ticket = (*async)->Submit(seed, options);
    ASSERT_TRUE(ticket.WaitFor(kWaitBudget));
    const QueryResult& result = ticket.Wait();
    // Under the degradation policy an expired deadline yields a *bounded
    // partial*, not an error: OK status, degraded flag, and a certified
    // error bound that covers the true L1 gap to the converged answer.
    ASSERT_TRUE(result.status.ok()) << result.status;
    ASSERT_TRUE(result.degraded) << "seed " << seed;
    EXPECT_EQ(result.degrade_reason, StatusCode::kDeadlineExceeded);
    ASSERT_FALSE(result.scores.empty());
    ASSERT_GT(result.error_bound, 0.0);
    ASSERT_LT(result.error_bound, 1.0);

    const QueryResult exact = oracle->Query(seed);
    ASSERT_TRUE(exact.status.ok());
    EXPECT_LE(la::L1Distance(result.scores, exact.scores), result.error_bound)
        << "seed " << seed;
    EXPECT_NE(result.scores, exact.scores)  // genuinely partial
        << "seed " << seed;
  }

  const auto stats = (*async)->stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.degraded, 3u);
  EXPECT_EQ(stats.expired, 0u);  // degradation replaced outright expiry
  EXPECT_GT(stats.deadline_miss_rate, 0.0);
}

TEST(AsyncQueryEngineTest, DegradedPartialsNeverEnterTheSharedCache) {
  Graph graph = ServingGraph();
  QueryEngineOptions engine_options;
  engine_options.num_threads = 1;
  engine_options.cache_capacity = 8;
  AsyncQueryEngineOptions async_options;
  async_options.degradation.enabled = true;
  async_options.degradation.min_iterations = 2;
  auto async = AsyncQueryEngine::Create(graph, std::make_unique<TpaMethod>(),
                                        engine_options, async_options);
  ASSERT_TRUE(async.ok()) << async.status();

  SubmitOptions expired;
  expired.deadline = steady_clock::now() - milliseconds(1);
  QueryTicket partial = (*async)->Submit(9, expired);
  ASSERT_TRUE(partial.Wait().status.ok());
  ASSERT_TRUE(partial.Wait().degraded);
  EXPECT_EQ((*async)->engine().cache_stats().entries, 0u)
      << "a degraded partial must never be deposited as an exact answer";

  // The next query for the same seed runs fresh, converges, and is the
  // one that populates the cache.
  QueryTicket full = (*async)->Submit(9);
  const QueryResult& converged = full.Wait();
  ASSERT_TRUE(converged.status.ok());
  EXPECT_FALSE(converged.degraded);
  EXPECT_FALSE(converged.from_cache);
  EXPECT_EQ((*async)->engine().cache_stats().entries, 1u);

  auto oracle = QueryEngine::Create(graph, std::make_unique<TpaMethod>(), {});
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(converged.scores, oracle->Query(9).scores);

  QueryTicket warm = (*async)->Submit(9);
  EXPECT_TRUE(warm.Wait().from_cache);
  EXPECT_EQ(warm.Wait().scores, converged.scores);
}

TEST(AsyncQueryEngineTest, ShedToFp32ServesFromTheFloatTier) {
  Graph graph = ServingGraph();

  AsyncQueryEngineOptions shed_options;
  shed_options.degradation.enabled = true;
  shed_options.degradation.shed_to_fp32 = true;
  shed_options.degradation.min_iterations = 2;

  // Create() cannot build the second method instance the fp32 tier needs.
  auto direct = AsyncQueryEngine::Create(graph, std::make_unique<TpaMethod>(),
                                         {}, shed_options);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kInvalidArgument);

  QueryEngineOptions engine_options;
  engine_options.num_threads = 1;
  auto async = AsyncQueryEngine::CreateFromRegistry(graph, "TPA", {},
                                                    engine_options,
                                                    shed_options);
  ASSERT_TRUE(async.ok()) << async.status();

  // Overloaded (watermark 0) + shed tier: the query routes to fp32.  With
  // no deadline or cancel the context never trips, so the shed answer is
  // the fully converged fp32 iterate.
  QueryTicket shed = (*async)->Submit(21);
  const QueryResult& result = shed.Wait();
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_TRUE(result.shed_to_fp32);
  EXPECT_FALSE(result.degraded);
  ASSERT_FALSE(result.scores_f32.empty());
  EXPECT_TRUE(result.scores.empty());

  auto oracle = QueryEngine::Create(graph, std::make_unique<TpaMethod>(), {});
  ASSERT_TRUE(oracle.ok());
  const QueryResult exact = oracle->Query(21);
  ASSERT_TRUE(exact.status.ok());
  double gap = 0.0;
  ASSERT_EQ(result.scores_f32.size(), exact.scores.size());
  for (size_t i = 0; i < exact.scores.size(); ++i) {
    gap += std::abs(static_cast<double>(result.scores_f32[i]) -
                    exact.scores[i]);
  }
  EXPECT_LT(gap, 1e-3);  // fp32 tier tracks the fp64 answer

  // An expired deadline on the shed tier still degrades with a bound.
  SubmitOptions options;
  options.deadline = steady_clock::now() - milliseconds(1);
  QueryTicket bounded = (*async)->Submit(33, options);
  const QueryResult& partial = bounded.Wait();
  ASSERT_TRUE(partial.status.ok()) << partial.status;
  EXPECT_TRUE(partial.shed_to_fp32);
  EXPECT_TRUE(partial.degraded);
  EXPECT_GT(partial.error_bound, 0.0);

  const auto stats = (*async)->stats();
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.degraded, 1u);
}

TEST(AsyncQueryEngineTest, ValidatesDegradationPolicy) {
  Graph graph = ServingGraph();

  AsyncQueryEngineOptions bad_watermark;
  bad_watermark.degradation.enabled = true;
  bad_watermark.degradation.queue_watermark = 1.5;
  EXPECT_FALSE(AsyncQueryEngine::Create(graph, std::make_unique<TpaMethod>(),
                                        {}, bad_watermark)
                   .ok());

  AsyncQueryEngineOptions bad_min_iterations;
  bad_min_iterations.degradation.enabled = true;
  bad_min_iterations.degradation.min_iterations = -1;
  EXPECT_FALSE(AsyncQueryEngine::Create(graph, std::make_unique<TpaMethod>(),
                                        {}, bad_min_iterations)
                   .ok());

  AsyncQueryEngineOptions shed_without_enable;
  shed_without_enable.degradation.shed_to_fp32 = true;
  EXPECT_FALSE(AsyncQueryEngine::Create(graph, std::make_unique<TpaMethod>(),
                                        {}, shed_without_enable)
                   .ok());
}

}  // namespace
}  // namespace tpa
