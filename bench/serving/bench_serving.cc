/// Serving benchmark: the online and offline costs of TPA serving, end to
/// end and by layer, on four workloads.
///
///   $ bench_serving --workload NAME --seed S --seconds R --json OUT
///                   [--trace 0|1] [--out-dir DIR] [--cache-dir DIR]
///                   [--git-sha SHA]
///   $ bench_serving --prepare --workload NAME --cache-dir DIR
///
/// Normally driven by bench/serving/run.py, which builds this program,
/// runs --prepare once per build and prints the result line; see
/// bench/serving/README.md for the workloads and every metric.
///
/// The graphs are fixed R-MAT graphs (graph seed 42, 11.5·2^scale edge
/// draws); --seed drives only the traffic: which nodes ask, in what order,
/// and when.  Every served result is validated and then dropped, every 50th
/// is kept as a digest and compared bitwise against a direct Tpa call after
/// the measured phases, and answers for fixed seeds are scored against the
/// exact RWR (cached by --prepare, since the oracle costs more than the
/// run).  The exit code is 3 when any check fails.
///
/// --trace 1 runs the workload twice, untraced then traced (spans written to
/// DIR/trace_NAME.json), and then the call ladder: the same seeds pushed
/// through one layer at a time on one thread, from the scatter kernel up to
/// the async engine, so adjacent rungs give each layer's self time.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/serving/report.h"
#include "bench/serving/trace.h"
#include "bench/serving/traffic.h"
#include "core/cpi.h"
#include "core/tpa.h"
#include "engine/async_query_engine.h"
#include "engine/query_engine.h"
#include "eval/oracle.h"
#include "graph/builder.h"
#include "la/dense_block.h"
#include "method/tpa_method.h"
#include "snapshot/snapshot.h"
#include "util/cache_info.h"
#include "util/mem_stats.h"
#include "util/stopwatch.h"

#ifndef TPA_BENCH_BUILD_TYPE
#define TPA_BENCH_BUILD_TYPE "unknown"
#endif

namespace tpa::bench {
namespace {

constexpr int kSchemaVersion = 1;
constexpr uint64_t kGraphSeed = 42;
/// Fixed stream of the accuracy seeds: the same nodes on every run.
constexpr uint64_t kOracleSeedStream = 20180416;
/// Fixed stream of the Zipf workload's user population.
constexpr uint64_t kPopulationStream = 1100;
constexpr int kTopK = 10;
constexpr uint64_t kSampleEvery = 50;
constexpr int kSetupRepeats = 3;
constexpr size_t kBatchSeeds = 64;
constexpr int kMinCycles = 3;
constexpr size_t kZipfPopulation = 65536;
constexpr double kZipfAlpha = 1.1;
constexpr size_t kQueueCapacity = 4096;
/// Measurement rounds of the open-loop workloads.
constexpr int kRounds = 8;

enum class Loop { kOpen, kBatch, kRebuild };

/// One workload.  Graph shape and engine configuration are fixed here;
/// only the traffic depends on --seed.
struct WorkloadSpec {
  const char* name;
  Loop loop;
  uint32_t scale;
  la::Precision precision;
  ValueStorage storage;
  /// 0 serves dense vectors.
  int top_k;
  /// LRU entries of a top-k-only cache; 0 disables the cache.
  size_t cache_entries;
  /// Open-loop arrival rates (q/s), calibrated to about 40% and 65% of
  /// the closed-loop capacity on the reference host (README).
  double lo_qps;
  double hi_qps;
  /// Open-loop warm-up: Poisson requests at lo_qps, or, with a cache,
  /// seeds pushed through QueryBatch to fill it.
  size_t warmup_requests;
  /// Exact-RWR accuracy seeds.
  int oracle_seeds;
  /// Seeds of the call ladder's per-call rungs and of its batch rungs.
  size_t ladder_seeds;
  size_t ladder_batch;

  NodeId Nodes() const { return NodeId{1} << scale; }
  uint64_t Draws() const { return (uint64_t{23} << scale) / 2; }
  /// The large graph is preprocessed once per build by --prepare and each
  /// run serves it from the snapshot, so a run costs seconds, not minutes.
  bool ServesSnapshot() const { return loop == Loop::kBatch; }
};

constexpr WorkloadSpec kWorkloads[] = {
    {"dense_openloop", Loop::kOpen, 17, la::Precision::kFloat64,
     ValueStorage::kExplicit, 0, 0, 160, 260, 300, 16, 200, 200},
    {"topk_zipf_openloop", Loop::kOpen, 17, la::Precision::kFloat64,
     ValueStorage::kRowConstant, kTopK, 8192, 1900, 3100, 4000, 16, 200,
     200},
    {"batch_fp32_large", Loop::kBatch, 21, la::Precision::kFloat32,
     ValueStorage::kExplicit, 0, 0, 0, 0, 0, 4, 8, kBatchSeeds},
    {"rebuild_coldstart", Loop::kRebuild, 17, la::Precision::kFloat64,
     ValueStorage::kExplicit, 0, 0, 0, 0, 0, 16, 200, 200},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool prepare = false;
  std::string json_path;
  std::string out_dir = ".";
  std::string cache_dir = ".";
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--prepare") {
      args.prepare = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else if (flag == "--json") {
      args.json_path = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--cache-dir") {
      args.cache_dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0 &&
         (args.prepare || !args.json_path.empty());
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

int HostThreads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Jiffies this machine's CPUs spent stolen by the hypervisor, and in all,
/// from /proc/stat; zeros where it is unreadable.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTimes times;
  in >> cpu;
  for (int field = 0; field < 8 && in; ++field) {
    uint64_t jiffies = 0;
    in >> jiffies;
    times.total += jiffies;
    if (field == 7) times.steal = jiffies;
  }
  return times;
}

/// Share of CPU time stolen since `start`: a run that reads high here
/// shared its host and its timings say more about the neighbours.
double StealPercent(const CpuTimes& start) {
  const CpuTimes now = ReadCpuTimes();
  return now.total > start.total ? 100.0 * (now.steal - start.steal) /
                                       (now.total - start.total)
                                 : 0.0;
}

BuildOptions GraphOptions(const WorkloadSpec& spec) {
  BuildOptions options;
  options.value_precision = spec.precision;
  options.value_storage = spec.storage;
  return options;
}

QueryEngineOptions EngineOptions(const WorkloadSpec& spec, int threads) {
  QueryEngineOptions options;
  options.num_threads = threads;
  options.top_k = spec.top_k;
  options.cache_capacity = spec.cache_entries;
  options.cache_topk_only = spec.cache_entries > 0;
  return options;  // batch_block_size stays kAuto
}

AsyncQueryEngineOptions OpenLoopOptions() {
  AsyncQueryEngineOptions options;
  options.queue_capacity = kQueueCapacity;
  // A stalled engine shows up as refusals, never as a stalled generator.
  options.queue_full_policy = QueueFullPolicy::kReject;
  return options;
}

std::string SnapshotPath(const Args& args, const WorkloadSpec& spec) {
  return args.cache_dir + "/" + spec.name + ".snap";
}

std::string OraclePath(const Args& args, const WorkloadSpec& spec) {
  return args.cache_dir + "/oracle_s" + std::to_string(spec.scale) + "_n" +
         std::to_string(spec.oracle_seeds) + ".bin";
}

/// The accuracy seeds: a function of the graph topology only.
std::vector<NodeId> OracleSeeds(const Graph& graph, int count) {
  Rng rng(kOracleSeedStream);
  return ActiveUserSampler(graph).Sample(rng, count);
}

StatusOr<Graph> BuildGraph(const WorkloadSpec& spec, const EdgeList& edges) {
  GraphBuilder builder(spec.Nodes());
  builder.AddEdges(edges);
  return builder.Build(GraphOptions(spec));
}

// ------------------------------------------------------------ exact answers

/// Exact RWR of each oracle seed, one thread per seed group; the graph
/// needs its fp64 tier.
std::vector<std::vector<double>> ComputeOracle(const Graph& graph,
                                               const std::vector<NodeId>& seeds,
                                               int threads) {
  std::vector<std::vector<double>> exact(seeds.size());
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      GroundTruthOracle oracle(graph);
      for (size_t i = t; i < seeds.size(); i += threads) {
        exact[i] = oracle.Exact(seeds[i]).value();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return exact;
}

Status WriteOracle(const std::string& path,
                   const std::vector<std::vector<double>>& exact) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary);
  for (const std::vector<double>& v : exact) {
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(double)));
  }
  out.close();
  if (!out) return InternalError("cannot write " + tmp);
  std::filesystem::rename(tmp, path);
  return OkStatus();
}

StatusOr<std::vector<std::vector<double>>> ReadOracle(
    const std::string& path, const WorkloadSpec& spec) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::vector<double>> exact(spec.oracle_seeds);
  for (std::vector<double>& v : exact) {
    v.resize(spec.Nodes());
    in.read(reinterpret_cast<char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(double)));
  }
  if (!in || in.peek() != std::char_traits<char>::eof()) {
    return FailedPreconditionError(
        path + " is missing or truncated: run --prepare first");
  }
  return exact;
}

/// --prepare: computes what a run needs but must not time — the exact
/// answers and, for the large workload, its preprocessed snapshot.
Status Prepare(const Args& args, const WorkloadSpec& spec) {
  std::filesystem::create_directories(args.cache_dir);
  const std::string oracle_path = OraclePath(args, spec);
  const std::string snapshot_path = SnapshotPath(args, spec);
  const bool need_oracle = !std::filesystem::exists(oracle_path);
  const bool need_snapshot =
      spec.ServesSnapshot() && !std::filesystem::exists(snapshot_path);
  if (!need_oracle && !need_snapshot) return OkStatus();

  std::fprintf(stderr, "preparing %s (scale %u)\n", spec.name, spec.scale);
  Stopwatch watch;
  TPA_ASSIGN_OR_RETURN(
      Graph graph,
      BuildGraph(spec, RmatEdges(spec.scale, spec.Draws(), kGraphSeed)));
  if (need_snapshot) {
    TPA_ASSIGN_OR_RETURN(Tpa tpa, Tpa::Preprocess(graph, TpaOptions{}));
    TPA_RETURN_IF_ERROR(snapshot::WriteSnapshot(tpa, snapshot_path + ".tmp"));
  }
  if (need_oracle) {
    graph.EnsureTier(la::Precision::kFloat64);  // the oracle runs at fp64
    TPA_RETURN_IF_ERROR(WriteOracle(
        oracle_path, ComputeOracle(graph, OracleSeeds(graph, spec.oracle_seeds),
                                   HostThreads())));
  }
  if (need_snapshot) {
    std::filesystem::rename(snapshot_path + ".tmp", snapshot_path);
  }
  std::fprintf(stderr, "prepared %s in %.1f s\n", spec.name,
               watch.ElapsedSeconds());
  return OkStatus();
}

// ------------------------------------------------------------ serving state

/// A ready-to-serve state.  Members are declared so the engines die before
/// the graph they borrow.
struct Serving {
  std::unique_ptr<Graph> graph;       // built in this process
  snapshot::LoadedSnapshot snapshot;  // or loaded from a snapshot file
  std::unique_ptr<AsyncQueryEngine> async;
  std::optional<QueryEngine> engine;

  QueryEngine& Engine() { return async ? async->engine() : *engine; }
  const Tpa& GetTpa() {
    return *static_cast<const TpaMethod&>(Engine().method()).tpa();
  }
};

struct SetupTimes {
  double build_s = 0.0;
  double preprocess_s = 0.0;
  double load_s = 0.0;
  double create_s = 0.0;
  double Total() const { return build_s + preprocess_s + load_s + create_s; }
};

Status CreateEngine(const WorkloadSpec& spec, const Graph& graph, Tpa tpa,
                    Serving& serving) {
  auto method = std::make_unique<TpaMethod>(std::move(tpa));
  const QueryEngineOptions options = EngineOptions(spec, HostThreads());
  if (spec.loop == Loop::kOpen) {
    TPA_ASSIGN_OR_RETURN(serving.async,
                         AsyncQueryEngine::Create(graph, std::move(method),
                                                  options, OpenLoopOptions()));
  } else {
    TPA_ASSIGN_OR_RETURN(QueryEngine engine,
                         QueryEngine::Create(graph, std::move(method),
                                             options));
    serving.engine.emplace(std::move(engine));
  }
  return OkStatus();
}

/// Graph build + preprocess + engine create, from an in-memory edge list.
Status BuildServing(const WorkloadSpec& spec, const EdgeList& edges,
                    Tracer* tracer, Serving& serving, SetupTimes& times) {
  ScopedSpan setup(tracer, "setup");
  Stopwatch watch;
  {
    ScopedSpan span(tracer, "graph.Build", setup.id());
    TPA_ASSIGN_OR_RETURN(Graph graph, BuildGraph(spec, edges));
    serving.graph = std::make_unique<Graph>(std::move(graph));
  }
  times.build_s = watch.ElapsedSeconds();
  watch.Reset();
  std::optional<Tpa> tpa;
  {
    ScopedSpan span(tracer, "tpa.Preprocess", setup.id());
    TPA_ASSIGN_OR_RETURN(tpa, Tpa::Preprocess(*serving.graph, TpaOptions{}));
  }
  times.preprocess_s = watch.ElapsedSeconds();
  watch.Reset();
  {
    ScopedSpan span(tracer, "engine.Create", setup.id());
    TPA_RETURN_IF_ERROR(
        CreateEngine(spec, *serving.graph, std::move(*tpa), serving));
  }
  times.create_s = watch.ElapsedSeconds();
  return OkStatus();
}

/// Snapshot load (mapped, verified) + engine create.
Status LoadServing(const WorkloadSpec& spec, const std::string& path,
                   Tracer* tracer, Serving& serving, SetupTimes& times) {
  ScopedSpan setup(tracer, "setup");
  Stopwatch watch;
  {
    ScopedSpan span(tracer, "snapshot.Load", setup.id());
    TPA_ASSIGN_OR_RETURN(serving.snapshot, snapshot::LoadSnapshot(path));
  }
  times.load_s = watch.ElapsedSeconds();
  watch.Reset();
  {
    ScopedSpan span(tracer, "engine.Create", setup.id());
    TPA_RETURN_IF_ERROR(CreateEngine(spec, *serving.snapshot.graph,
                                     std::move(*serving.snapshot.tpa),
                                     serving));
  }
  times.create_s = watch.ElapsedSeconds();
  return OkStatus();
}

// ------------------------------------------------------------ checks

/// Validates every served result as it arrives, keeps a digest of every
/// 50th, and later recomputes those seeds with direct Tpa calls.
class ResultChecker {
 public:
  ResultChecker(const WorkloadSpec& spec, NodeId nodes)
      : spec_(spec), nodes_(nodes) {}

  /// Thread-safe; false when the result failed or has the wrong shape.
  bool Observe(const QueryResult& result) {
    if (!Valid(result)) {
      failed_.fetch_add(1);
      return false;
    }
    if (observed_.fetch_add(1) % kSampleEvery == 0) {
      const uint64_t digest =
          spec_.top_k > 0 ? Digest(result.top)
          : spec_.precision == la::Precision::kFloat32
              ? Digest(result.scores_f32)
              : Digest(result.scores);
      std::lock_guard<std::mutex> lock(mu_);
      samples_.push_back({result.seed, digest});
    }
    return true;
  }

  uint64_t failed() const { return failed_.load(); }

  /// Appends one message per sampled result that differs from the direct
  /// call: Tpa::Query / QueryF for dense results, TopKScores(Query, k) for
  /// top-k results.  The direct calls run on every core, so call it once
  /// serving has stopped.
  void Verify(const Tpa& tpa, std::vector<std::string>& mismatches) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<char> differs(samples_.size(), 0);
    std::vector<std::thread> workers;
    for (int t = 0; t < HostThreads(); ++t) {
      workers.emplace_back([&, t] {
        for (size_t i = t; i < samples_.size(); i += HostThreads()) {
          differs[i] = Expected(tpa, samples_[i].seed) != samples_[i].digest;
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    for (size_t i = 0; i < samples_.size(); ++i) {
      if (differs[i]) {
        mismatches.push_back(std::string(spec_.name) + ": seed " +
                             std::to_string(samples_[i].seed) +
                             " differs from the direct Tpa call");
      }
    }
  }

  size_t sampled() const {
    std::lock_guard<std::mutex> lock(mu_);
    return samples_.size();
  }

 private:
  struct Sample {
    NodeId seed;
    uint64_t digest;
  };

  bool Valid(const QueryResult& result) const {
    if (!result.status.ok() || result.degraded || result.shed_to_fp32) {
      return false;
    }
    if (spec_.top_k > 0) {
      return result.top.size() ==
             std::min<size_t>(spec_.top_k, static_cast<size_t>(nodes_));
    }
    return spec_.precision == la::Precision::kFloat32
               ? result.scores_f32.size() == nodes_
               : result.scores.size() == nodes_;
  }

  uint64_t Expected(const Tpa& tpa, NodeId seed) const {
    const bool fp32 = spec_.precision == la::Precision::kFloat32;
    if (spec_.top_k > 0) {
      return Digest(fp32 ? TopKScores(tpa.QueryF(seed), spec_.top_k)
                         : TopKScores(tpa.Query(seed), spec_.top_k));
    }
    return fp32 ? Digest(tpa.QueryF(seed)) : Digest(tpa.Query(seed));
  }

  const WorkloadSpec& spec_;
  const NodeId nodes_;
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> observed_{0};
  mutable std::mutex mu_;
  std::vector<Sample> samples_;
};

struct Accuracy {
  double l1 = 0.0;
  double recall = 0.0;
};

/// Mean L1 distance and top-10 recall of the engine's answers against the
/// exact RWR.  A top-k engine serves only k entries, so its L1 distance is
/// taken over the scores it returns.  Each answer must stay inside the
/// paper's bound TotalErrorBound(c, S).
Accuracy MeasureAccuracy(const WorkloadSpec& spec, QueryEngine& engine,
                         const std::vector<NodeId>& seeds,
                         const std::vector<std::vector<double>>& exact,
                         std::vector<std::string>& mismatches) {
  const TpaOptions tpa_options;
  const double bound = TotalErrorBound(tpa_options.restart_probability,
                                       tpa_options.family_window);
  Accuracy accuracy;
  for (size_t i = 0; i < seeds.size(); ++i) {
    const QueryResult result = engine.Query(seeds[i]);
    if (!result.status.ok()) {
      mismatches.push_back(std::string(spec.name) + ": accuracy query " +
                           result.status.ToString());
      continue;
    }
    const std::vector<double>& truth = exact[i];
    double l1 = 0.0;
    std::vector<ScoredNode> top = result.top;
    if (spec.top_k > 0) {
      for (const ScoredNode& entry : top) {
        l1 += std::abs(entry.score - truth[entry.node]);
      }
    } else if (spec.precision == la::Precision::kFloat32) {
      for (size_t v = 0; v < truth.size(); ++v) {
        l1 += std::abs(static_cast<double>(result.scores_f32[v]) - truth[v]);
      }
      top = TopKScores(result.scores_f32, kTopK);
    } else {
      for (size_t v = 0; v < truth.size(); ++v) {
        l1 += std::abs(result.scores[v] - truth[v]);
      }
      top = TopKScores(result.scores, kTopK);
    }
    if (!(l1 <= bound)) {
      mismatches.push_back(std::string(spec.name) + ": L1 error " +
                           std::to_string(l1) + " exceeds the bound " +
                           std::to_string(bound));
    }
    int hits = 0;
    for (const ScoredNode& want : TopKScores(truth, kTopK)) {
      for (const ScoredNode& got : top) hits += got.node == want.node;
    }
    accuracy.l1 += l1 / static_cast<double>(seeds.size());
    accuracy.recall += hits / static_cast<double>(kTopK * seeds.size());
  }
  return accuracy;
}

// ------------------------------------------------------------ traffic

/// The workload's request stream: Zipf popularity over active users for the
/// cached top-k workload, independent active users otherwise.  The Zipf
/// population is fixed, like a service's user base; the traffic seed picks
/// who of it asks and when.  (Seeded populations moved the cache hit ratio,
/// and with it the capacity, by a quarter from seed to seed.)
class SeedStream {
 public:
  SeedStream(const WorkloadSpec& spec, const Graph& graph, Rng& rng)
      : rng_(rng), users_(graph) {
    if (spec.cache_entries > 0) {
      Rng population(kPopulationStream);
      zipf_.emplace(users_, population, kZipfPopulation, kZipfAlpha);
    }
  }

  NodeId Next() { return zipf_ ? zipf_->Next(rng_) : users_.Sample(rng_); }

  std::vector<NodeId> Next(size_t count) {
    std::vector<NodeId> seeds(count);
    for (NodeId& seed : seeds) seed = Next();
    return seeds;
  }

 private:
  Rng& rng_;
  ActiveUserSampler users_;
  std::optional<ZipfSeeds> zipf_;
};

/// What one load phase measured.
struct PhaseStats {
  std::vector<double> latency_ms;  // OK requests, from the intended send
  std::vector<double> lateness_ms;
  std::vector<double> submit_us;
  std::vector<double> queue_depth;
  uint64_t attempted = 0;
};

/// One generator thread driving an AsyncQueryEngine.  Tickets are dropped
/// as soon as they are submitted; the completion callback validates the
/// result and records its latency, so the engine frees each result once
/// served.
class LoadGenerator {
 public:
  LoadGenerator(AsyncQueryEngine& engine, std::function<NodeId()> next_seed,
                Tracer* tracer)
      : engine_(engine), next_seed_(std::move(next_seed)), tracer_(tracer) {}

  /// Poisson arrivals at `rate` for `seconds` or `max_requests`, whichever
  /// ends first; returns once every request has completed.
  PhaseStats Poisson(double rate, double seconds, size_t max_requests,
                     ResultChecker& checker, Rng& rng,
                     bool sample_queue = false) {
    std::vector<double> offsets;
    std::vector<NodeId> seeds;
    for (double t = ExponentialGapSeconds(rng, rate);
         t <= seconds && offsets.size() < max_requests;
         t += ExponentialGapSeconds(rng, rate)) {
      offsets.push_back(t);
      seeds.push_back(next_seed_());
    }
    PhaseStats stats;
    Flight flight;
    flight.latency_ms.assign(offsets.size(),
                             std::numeric_limits<double>::quiet_NaN());
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < offsets.size(); ++i) {
      const Clock::time_point intended =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(offsets[i]));
      std::this_thread::sleep_until(intended);
      stats.lateness_ms.push_back(Ms(Clock::now() - intended));
      if (sample_queue) {
        stats.queue_depth.push_back(
            static_cast<double>(engine_.stats().queue_depth));
      }
      Submit(flight, i, seeds[i], intended, checker, stats);
    }
    flight.WaitForCompleted(offsets.size());
    for (double ms : flight.latency_ms) {
      if (!std::isnan(ms)) stats.latency_ms.push_back(ms);
    }
    return stats;
  }

 private:
  /// State one phase shares with its completion callbacks; it outlives
  /// them because the phase waits for every completion.
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    uint64_t completed = 0;
    std::vector<double> latency_ms;  // by request index

    void WaitForCompleted(uint64_t count) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return completed >= count; });
    }
  };

  void Submit(Flight& flight, size_t index, NodeId seed,
              Clock::time_point intended, ResultChecker& checker,
              PhaseStats& stats) {
    const uint64_t request = tracer_ != nullptr ? tracer_->NewId() : 0;
    SubmitOptions options;
    options.on_complete = [&flight, &checker, tracer = tracer_, index,
                           request, intended](const QueryResult& result) {
      const Clock::time_point done = Clock::now();
      const bool ok = checker.Observe(result);
      if (tracer != nullptr) {
        tracer->Record("request", intended, done, request, 0, true);
      }
      // Notify under the lock: the phase may destroy `flight` as soon as
      // it sees the last completion.
      std::lock_guard<std::mutex> lock(flight.mu);
      if (ok) flight.latency_ms[index] = Ms(done - intended);
      ++flight.completed;
      flight.cv.notify_all();
    };
    const Clock::time_point before = Clock::now();
    engine_.Submit(seed, options);
    const Clock::time_point after = Clock::now();
    if (tracer_ != nullptr) {
      tracer_->Record("async.Submit", before, after, tracer_->NewId(),
                      request);
    }
    stats.submit_us.push_back(Ms(after - before) * 1e3);
    ++stats.attempted;
  }

  AsyncQueryEngine& engine_;
  std::function<NodeId()> next_seed_;
  Tracer* tracer_;
};

// ------------------------------------------------------------ workloads

struct Context {
  const WorkloadSpec& spec;
  const Args& args;
  Tracer* tracer;  // null = untraced
};

/// Everything one pass of a workload reports.
struct Outcome {
  Metrics metrics;  // end-to-end
  Metrics layer;    // per-layer facts of the serving state
  Metrics extra;    // workload-specific numbers outside the contract
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> mismatches;
};

/// Sets up kSetupRepeats times, freeing the previous state first, and
/// keeps the last; setup_s is the median.
Status SetUp(const Context& ctx, const EdgeList* edges,
             std::optional<Serving>& serving, Outcome& out) {
  std::vector<double> totals;
  SetupTimes times;
  for (int r = 0; r < kSetupRepeats; ++r) {
    serving.reset();
    serving.emplace();
    times = SetupTimes{};
    if (ctx.spec.ServesSnapshot()) {
      TPA_RETURN_IF_ERROR(LoadServing(ctx.spec,
                                      SnapshotPath(ctx.args, ctx.spec),
                                      ctx.tracer, *serving, times));
    } else {
      TPA_RETURN_IF_ERROR(
          BuildServing(ctx.spec, *edges, ctx.tracer, *serving, times));
    }
    totals.push_back(times.Total());
  }
  out.metrics["setup_s"] = {Median(totals), "s"};
  out.layer["mem.rss_setup_mb"] = {ReadMemStats().vm_rss_bytes / 1048576.0,
                                   "MB"};
  out.extra["setup.build_s"] = {times.build_s, "s"};
  out.extra["setup.preprocess_s"] = {times.preprocess_s, "s"};
  out.extra["setup.load_s"] = {times.load_s, "s"};
  out.extra["setup.create_s"] = {times.create_s, "s"};
  return OkStatus();
}

/// Adds <stem>p50<suffix> and <stem>p99<suffix>.
void AddPercentiles(Metrics& metrics, const std::string& stem,
                    const std::string& suffix,
                    const std::vector<double>& values,
                    const char* unit = "ms") {
  metrics[stem + "p50" + suffix] = {Median(values), unit};
  metrics[stem + "p99" + suffix] = {Percentile(values, 99.0), unit};
}

/// The engine's capacity: QueryBatch calls of 8·nproc seeds back to back
/// for `seconds`, in seeds per second.  A closed loop through the blocking
/// API keeps the generator's thread handoffs out of the number, which
/// otherwise swung it by a third on a cache-hit-heavy stream.
double MeasureCapacity(QueryEngine& engine, SeedStream& stream,
                       double seconds, ResultChecker& checker, Outcome& out) {
  const size_t batch = 8 * static_cast<size_t>(HostThreads());
  size_t served = 0;
  Stopwatch watch;
  while (watch.ElapsedSeconds() < seconds) {
    for (const QueryResult& result : engine.QueryBatch(stream.Next(batch))) {
      checker.Observe(result);
    }
    served += batch;
  }
  out.attempted += served;
  return served / watch.ElapsedSeconds();
}

Status RunOpenLoop(const Context& ctx, Serving& serving, Rng& rng,
                   Outcome& out) {
  const WorkloadSpec& spec = ctx.spec;
  AsyncQueryEngine& engine = *serving.async;
  const Graph& graph = serving.GetTpa().graph();
  SeedStream stream(spec, graph, rng);
  LoadGenerator generator(engine, [&] { return stream.Next(); }, ctx.tracer);

  {
    // Warm-up, discarded: fills the cache, or warms the workspaces.
    ScopedSpan span(ctx.tracer, "warmup");
    ResultChecker discard(spec, graph.num_nodes());
    if (spec.cache_entries > 0) {
      for (size_t done = 0; done < spec.warmup_requests; done += 500) {
        engine.engine().QueryBatch(stream.Next(500));
      }
    } else {
      generator.Poisson(spec.lo_qps, 1e9, spec.warmup_requests, discard, rng);
    }
  }

  // The phases interleave in short rounds and each metric is the median
  // of its per-round values, so a burst of noise on a shared host spoils
  // one round of every metric instead of a whole phase of one.
  ResultChecker checker(spec, graph.num_nodes());
  const double round_s = ctx.args.seconds / kRounds;
  std::vector<double> lo_p50, lo_p99, hi_p50, hi_p99, capacity, lateness;
  for (int round = 0; round < kRounds; ++round) {
    ScopedSpan span(ctx.tracer, "round");
    const PhaseStats lo = generator.Poisson(spec.lo_qps, 0.45 * round_s,
                                            SIZE_MAX, checker, rng);
    const PhaseStats hi = generator.Poisson(spec.hi_qps, 0.30 * round_s,
                                            SIZE_MAX, checker, rng);
    capacity.push_back(MeasureCapacity(engine.engine(), stream,
                                       0.25 * round_s, checker, out));
    lo_p50.push_back(Median(lo.latency_ms));
    lo_p99.push_back(Percentile(lo.latency_ms, 99.0));
    hi_p50.push_back(Median(hi.latency_ms));
    hi_p99.push_back(Percentile(hi.latency_ms, 99.0));
    for (const PhaseStats* phase : {&lo, &hi}) {
      lateness.insert(lateness.end(), phase->lateness_ms.begin(),
                      phase->lateness_ms.end());
    }
    out.attempted += lo.attempted + hi.attempted;
  }
  out.metrics["peak_rss_mb"] = {PeakRssBytes() / 1048576.0, "MB"};
  out.failed = checker.failed();
  checker.Verify(serving.GetTpa(), out.mismatches);

  out.metrics["lat_p50_ms"] = {Median(lo_p50), "ms"};
  out.metrics["lat_p99_ms"] = {Median(lo_p99), "ms"};
  out.metrics["throughput_per_s"] = {Median(capacity), "1/s"};
  out.extra["lat_p50_ms_hi"] = {Median(hi_p50), "ms"};
  out.extra["lat_p99_ms_hi"] = {Median(hi_p99), "ms"};
  out.extra["rate_lo_qps"] = {spec.lo_qps, "1/s"};
  out.extra["rate_hi_qps"] = {spec.hi_qps, "1/s"};
  out.extra["requests"] = {static_cast<double>(out.attempted), "count"};
  AddPercentiles(out.extra, "gen.lateness_ms_", "", lateness);
  out.extra["checked_results"] = {static_cast<double>(checker.sampled()),
                                  "count"};
  return OkStatus();
}

Status RunBatch(const Context& ctx, Serving& serving, Rng& rng,
                Outcome& out) {
  const WorkloadSpec& spec = ctx.spec;
  QueryEngine& engine = *serving.engine;
  const Graph& graph = serving.GetTpa().graph();
  SeedStream stream(spec, graph, rng);
  {
    ScopedSpan span(ctx.tracer, "warmup");
    engine.QueryBatch(stream.Next(kBatchSeeds));
  }

  ResultChecker checker(spec, graph.num_nodes());
  std::vector<double> batch_ms;
  Stopwatch elapsed;
  // Stop before a batch that would end past the run's length.
  while (elapsed.ElapsedSeconds() +
                 (batch_ms.empty() ? 0.0 : batch_ms.back() / 1e3) <
             ctx.args.seconds ||
         batch_ms.size() < static_cast<size_t>(kMinCycles)) {
    const std::vector<NodeId> seeds = stream.Next(kBatchSeeds);
    const Clock::time_point start = Clock::now();
    std::vector<QueryResult> results;
    {
      ScopedSpan span(ctx.tracer, "engine.QueryBatch");
      results = engine.QueryBatch(seeds);
    }
    batch_ms.push_back(Ms(Clock::now() - start));
    for (const QueryResult& result : results) checker.Observe(result);
    out.attempted += results.size();
  }
  out.metrics["peak_rss_mb"] = {PeakRssBytes() / 1048576.0, "MB"};
  out.failed = checker.failed();
  checker.Verify(serving.GetTpa(), out.mismatches);

  AddPercentiles(out.metrics, "lat_", "_ms", batch_ms);
  out.metrics["throughput_per_s"] = {kBatchSeeds / (Median(batch_ms) / 1e3),
                                     "1/s"};
  out.extra["batches"] = {static_cast<double>(batch_ms.size()), "count"};
  out.extra["checked_results"] = {static_cast<double>(checker.sampled()),
                                  "count"};
  return OkStatus();
}

/// Rebuild cycles: Build + Preprocess + WriteSnapshot (rebuild_s), then a
/// serving restart: LoadSnapshot + engine Create + first Query
/// (coldstart).  The restarted state of the last cycle stays in `serving`.
Status RunRebuild(const Context& ctx, const EdgeList& edges,
                  std::optional<Serving>& serving, Rng& rng, Outcome& out) {
  const WorkloadSpec& spec = ctx.spec;
  Tracer* tracer = ctx.tracer;
  const std::string path = ctx.args.out_dir + "/rebuild_coldstart.snap";
  std::vector<double> rebuild_s, coldstart_ms;
  Stopwatch elapsed;
  while (elapsed.ElapsedSeconds() < ctx.args.seconds ||
         rebuild_s.size() < static_cast<size_t>(kMinCycles)) {
    ScopedSpan cycle(tracer, "rebuild.cycle");
    ++out.attempted;
    serving.reset();
    NodeId seed = 0;
    uint64_t expected = 0;
    {
      Stopwatch watch;
      std::optional<Graph> graph;
      std::optional<Tpa> tpa;
      {
        ScopedSpan span(tracer, "graph.Build", cycle.id());
        TPA_ASSIGN_OR_RETURN(graph, BuildGraph(spec, edges));
      }
      {
        ScopedSpan span(tracer, "tpa.Preprocess", cycle.id());
        TPA_ASSIGN_OR_RETURN(tpa, Tpa::Preprocess(*graph, TpaOptions{}));
      }
      {
        ScopedSpan span(tracer, "snapshot.Write", cycle.id());
        TPA_RETURN_IF_ERROR(snapshot::WriteSnapshot(*tpa, path));
      }
      rebuild_s.push_back(watch.ElapsedSeconds());
      // Outside the timings: the seed of the first query after the
      // restart, and the answer the fresh state gives for it.
      seed = ActiveUserSampler(*graph).Sample(rng);
      expected = Digest(tpa->Query(seed));
    }
    serving.emplace();
    const Clock::time_point start = Clock::now();
    SetupTimes times;
    TPA_RETURN_IF_ERROR(LoadServing(spec, path, tracer, *serving, times));
    QueryResult first;
    {
      ScopedSpan span(tracer, "engine.Query", cycle.id());
      first = serving->Engine().Query(seed);
    }
    coldstart_ms.push_back(Ms(Clock::now() - start));
    if (!first.status.ok() || first.scores.size() != spec.Nodes()) {
      ++out.failed;
    } else if (Digest(first.scores) != expected) {
      out.mismatches.push_back(std::string(spec.name) + ": seed " +
                               std::to_string(seed) +
                               " after restart differs from the fresh state");
    }
  }
  std::filesystem::remove(path);  // the mapping stays valid
  out.metrics["peak_rss_mb"] = {PeakRssBytes() / 1048576.0, "MB"};
  AddPercentiles(out.metrics, "lat_", "_ms", coldstart_ms);
  out.metrics["throughput_per_s"] = {1.0 / Median(rebuild_s), "1/s"};
  out.extra["rebuild_s"] = {Median(rebuild_s), "s"};
  out.extra["coldstart_ms"] = {Median(coldstart_ms), "ms"};
  out.extra["cycles"] = {static_cast<double>(rebuild_s.size()), "count"};
  return OkStatus();
}

/// One pass of the workload: setup, warm-up, measured phases, checks.
Status RunWorkload(const Context& ctx, std::optional<Serving>& serving,
                   Outcome& out) {
  const WorkloadSpec& spec = ctx.spec;
  const CpuTimes cpu_start = ReadCpuTimes();
  Rng rng(ctx.args.seed);
  if (spec.loop == Loop::kRebuild) {
    // Set-up is the edge list the rebuilds start from.
    std::vector<double> seconds;
    EdgeList edges;
    for (int r = 0; r < kSetupRepeats; ++r) {
      Stopwatch watch;
      edges = RmatEdges(spec.scale, spec.Draws(), kGraphSeed);
      seconds.push_back(watch.ElapsedSeconds());
    }
    out.metrics["setup_s"] = {Median(seconds), "s"};
    TPA_RETURN_IF_ERROR(RunRebuild(ctx, edges, serving, rng, out));
    out.layer["mem.rss_setup_mb"] = {ReadMemStats().vm_rss_bytes / 1048576.0,
                                     "MB"};
  } else {
    std::optional<EdgeList> edges;
    if (!spec.ServesSnapshot()) {
      edges = RmatEdges(spec.scale, spec.Draws(), kGraphSeed);
    }
    TPA_RETURN_IF_ERROR(SetUp(ctx, edges ? &*edges : nullptr, serving, out));
    edges.reset();
    if (spec.loop == Loop::kOpen) {
      TPA_RETURN_IF_ERROR(RunOpenLoop(ctx, *serving, rng, out));
    } else {
      TPA_RETURN_IF_ERROR(RunBatch(ctx, *serving, rng, out));
    }
  }

  out.extra["host.cpu_steal_pct"] = {StealPercent(cpu_start), "%"};

  // Read only now, so the exact answers stay out of peak_rss_mb.
  TPA_ASSIGN_OR_RETURN(auto exact, ReadOracle(OraclePath(ctx.args, spec),
                                              spec));
  QueryEngine& engine = serving->Engine();
  const Accuracy accuracy =
      MeasureAccuracy(spec, engine, OracleSeeds(serving->GetTpa().graph(),
                                                spec.oracle_seeds),
                      exact, out.mismatches);
  out.metrics["l1_error"] = {accuracy.l1, "L1"};
  out.metrics["recall_at_10"] = {accuracy.recall, "ratio"};

  const QueryEngine::CacheStats cache = engine.cache_stats();
  const uint64_t lookups = cache.hits + cache.misses;
  out.layer["engine.block_size"] = {
      static_cast<double>(engine.options().batch_block_size), "count"};
  out.layer["engine.cache_hit_ratio"] = {
      lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0, "ratio"};
  out.layer["engine.cache_bytes"] = {static_cast<double>(cache.bytes),
                                     "bytes"};
  out.layer["tpa.workspaces_created"] = {
      static_cast<double>(serving->GetTpa().workspace_pool().created()),
      "count"};
  out.layer["fail_ratio"] = {
      out.attempted > 0 ? static_cast<double>(out.failed) / out.attempted
                        : 0.0,
      "ratio"};
  return OkStatus();
}

// ------------------------------------------------------------ call ladder

/// Times `call(seed)` for each seed after one untimed warm-up call, one
/// span per call; milliseconds.
template <typename Call>
std::vector<double> TimeEach(Tracer* tracer, const char* name,
                             const std::vector<NodeId>& seeds, Call&& call) {
  call(seeds.front());
  std::vector<double> ms;
  ms.reserve(seeds.size());
  for (NodeId seed : seeds) {
    ScopedSpan span(tracer, name);
    const Clock::time_point start = Clock::now();
    call(seed);
    ms.push_back(Ms(Clock::now() - start));
  }
  return ms;
}

/// Times `call()` repeatedly for at least 0.2 s; nanoseconds per call.
template <typename Call>
double NanosPerCall(Tracer* tracer, const char* name, Call&& call) {
  call();  // warm
  int calls = 0;
  const Clock::time_point start = Clock::now();
  do {
    ScopedSpan span(tracer, name);
    call();
    ++calls;
  } while (Clock::now() - start < std::chrono::milliseconds(200) ||
           calls < 3);
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
             .count() /
         calls;
}

/// Rungs 1-4 at the graph's tier V: scatter kernels, family CPI, Tpa and
/// TpaMethod.  The method and engine rungs serve the workload's shape
/// (top-k or dense), so adjacent rungs compare like with like.
template <typename V>
void LadderCore(const WorkloadSpec& spec, const Tpa& tpa,
                const std::vector<NodeId>& seeds, Tracer* tracer,
                Metrics& m) {
  const Graph& graph = tpa.graph();
  const size_t n = graph.num_nodes();
  const double nnz = static_cast<double>(graph.num_edges());

  std::vector<V> x(n, static_cast<V>(1.0 / n)), y;
  m["la.spmvt_ns_per_edge"] = {
      NanosPerCall(tracer, "la.MultiplyTransposeT",
                   [&] { graph.MultiplyTransposeT(x, y); }) /
          nnz,
      "ns"};
  // Computed, not measured: per edge a column index, the stored value
  // (none when value-free) and a read-modify-write of the destination;
  // per row an offset and the source entry.
  const double value_bytes =
      graph.value_storage() == ValueStorage::kExplicit ? sizeof(V) : 0.0;
  m["la.spmvt_bytes_per_edge"] = {
      sizeof(NodeId) + value_bytes + 2.0 * sizeof(V) +
          (sizeof(uint64_t) + sizeof(V)) * n / nnz,
      "bytes"};
  la::DenseBlockT<V> block_x(n, 8), block_y;
  for (size_t r = 0; r < n; ++r) {
    std::fill_n(block_x.RowPtr(r), 8, static_cast<V>(1.0 / n));
  }
  m["la.spmm8_ns_per_edge"] = {
      NanosPerCall(tracer, "la.MultiplyTransposeBlockT",
                   [&] { graph.MultiplyTransposeBlockT(block_x, block_y); }) /
          nnz,
      "ns"};

  CpiOptions family;
  family.restart_probability = tpa.options().restart_probability;
  family.tolerance = tpa.options().tolerance;
  family.terminal_iteration = tpa.options().family_window - 1;
  family.frontier_density_threshold =
      tpa.options().frontier_density_threshold;
  Cpi::Workspace workspace;
  double iterations = 0;
  const std::vector<double> cpi_ms =
      TimeEach(tracer, "cpi.RunT", seeds, [&](NodeId seed) {
        iterations += Cpi::RunT<V>(graph, {seed}, family, &workspace)
                          ->last_iteration + 1;
      });
  AddPercentiles(m, "cpi.family_ms_", "", cpi_ms);
  m["cpi.family_iterations"] = {iterations, "count"};

  const TopKQueryOptions exact_topk{.allow_early_termination = false};
  const std::vector<double> tpa_ms =
      TimeEach(tracer, "tpa.Query", seeds, [&](NodeId seed) {
        if constexpr (std::is_same_v<V, float>) {
          tpa.QueryF(seed);
        } else {
          tpa.Query(seed);
        }
      });
  const std::vector<double> topk_ms =
      TimeEach(tracer, "tpa.QueryTopK", seeds,
               [&](NodeId seed) { tpa.QueryTopK(seed, kTopK, exact_topk); });
  AddPercentiles(m, "tpa.query_ms_", "", tpa_ms);
  AddPercentiles(m, "tpa.topk_ms_", "", topk_ms);
  m["tpa.merge_ms"] = {Median(tpa_ms) - Median(cpi_ms), "ms"};

  TpaMethod method{Tpa(tpa)};
  const std::vector<double> method_ms =
      TimeEach(tracer, "method.Query", seeds, [&](NodeId seed) {
        if (spec.top_k > 0) {
          method.QueryTopK(seed, spec.top_k, exact_topk).value();
        } else if constexpr (std::is_same_v<V, float>) {
          method.QueryF32(seed).value();
        } else {
          method.Query(seed).value();
        }
      });
  const double tpa_p50 = Median(spec.top_k > 0 ? topk_ms : tpa_ms);
  m["method.query_ms_p50"] = {Median(method_ms), "ms"};
  m["method.overhead_ms"] = {Median(method_ms) - tpa_p50, "ms"};
}

/// Rungs 5-7 and the rebuild rung; appends to `m`.
Status LadderServing(const Context& ctx, const Tpa& tpa,
                     const std::vector<NodeId>& seeds,
                     const std::vector<NodeId>& batch, Metrics& m) {
  const WorkloadSpec& spec = ctx.spec;
  Tracer* tracer = ctx.tracer;
  const Graph& graph = tpa.graph();
  QueryEngineOptions options = EngineOptions(spec, 1);
  options.cache_capacity = 0;  // every rung computes
  options.cache_topk_only = false;

  {
    TPA_ASSIGN_OR_RETURN(
        QueryEngine engine,
        QueryEngine::Create(graph, std::make_unique<TpaMethod>(Tpa(tpa)),
                            options));
    bool ok = true;
    const std::vector<double> engine_ms =
        TimeEach(tracer, "engine.Query", seeds, [&](NodeId seed) {
          ok = engine.Query(seed).status.ok() && ok;
        });
    if (!ok) return InternalError("the engine ladder rung failed a query");
    AddPercentiles(m, "engine.query_ms_", "", engine_ms);
    m["engine.overhead_ms"] = {
        Median(engine_ms) - m["method.query_ms_p50"].value, "ms"};
  }

  for (int threads : {1, 2, 4}) {
    options.num_threads = threads;
    TPA_ASSIGN_OR_RETURN(
        QueryEngine engine,
        QueryEngine::Create(graph, std::make_unique<TpaMethod>(Tpa(tpa)),
                            options));
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span(tracer, "engine.QueryBatch");
      engine.QueryBatch(batch);
    }
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    m["engine.batch_qps_t" + std::to_string(threads)] = {
        batch.size() / seconds, "1/s"};
  }
  m["engine.scaling_t4"] = {
      m["engine.batch_qps_t4"].value / m["engine.batch_qps_t1"].value,
      "ratio"};

  {
    // Async rung: the batch seeds as Poisson arrivals at half the 4-thread
    // batch rate, through a cache-less engine with nproc threads.
    options.num_threads = HostThreads();
    TPA_ASSIGN_OR_RETURN(
        std::unique_ptr<AsyncQueryEngine> async,
        AsyncQueryEngine::Create(graph, std::make_unique<TpaMethod>(Tpa(tpa)),
                                 options, OpenLoopOptions()));
    size_t next = 0;
    LoadGenerator generator(
        *async, [&] { return batch[next++ % batch.size()]; }, tracer);
    ResultChecker checker(spec, graph.num_nodes());
    Rng rng(ctx.args.seed);
    const PhaseStats stats =
        generator.Poisson(0.5 * m["engine.batch_qps_t4"].value, 1e9,
                          batch.size(), checker, rng, /*sample_queue=*/true);
    const AsyncQueryEngine::AsyncStats counters = async->stats();
    AddPercentiles(m, "async.lat_ms_", "", stats.latency_ms);
    AddPercentiles(m, "async.submit_us_", "", stats.submit_us, "us");
    m["async.queue_depth_p99"] = {Percentile(stats.queue_depth, 99.0),
                                  "count"};
    m["async.mean_group_size"] = {
        counters.groups_dispatched > 0
            ? static_cast<double>(counters.seeds_dispatched) /
                  counters.groups_dispatched
            : 0.0,
        "count"};
    m["async.rejected"] = {static_cast<double>(counters.rejected), "count"};
    m["async.expired"] = {static_cast<double>(counters.expired), "count"};
    AddPercentiles(m, "gen.lateness_ms_", "", stats.lateness_ms);
    m["async.overhead_ms"] = {m["async.lat_ms_p50"].value -
                                  m["engine.query_ms_p50"].value -
                                  m["gen.lateness_ms_p50"].value,
                              "ms"};
    if (checker.failed() > 0) {
      return InternalError("the async ladder rung failed requests");
    }
  }

  // Rebuild rung: the write side and a serving restart, one step at a time.
  const std::string path = ctx.args.out_dir + "/ladder.snap";
  const EdgeList edges = RmatEdges(spec.scale, spec.Draws(), kGraphSeed);
  Stopwatch watch;
  std::optional<Graph> rebuilt;
  {
    ScopedSpan span(tracer, "graph.Build");
    TPA_ASSIGN_OR_RETURN(rebuilt, BuildGraph(spec, edges));
  }
  m["graph.build_s"] = {watch.ElapsedSeconds(), "s"};
  m["graph.csr_bytes"] = {static_cast<double>(rebuilt->SizeBytes()), "bytes"};
  watch.Reset();
  std::optional<Tpa> fresh;
  {
    ScopedSpan span(tracer, "tpa.Preprocess");
    TPA_ASSIGN_OR_RETURN(fresh, Tpa::Preprocess(*rebuilt, TpaOptions{}));
  }
  m["tpa.preprocess_s"] = {watch.ElapsedSeconds(), "s"};
  watch.Reset();
  {
    ScopedSpan span(tracer, "snapshot.Write");
    TPA_RETURN_IF_ERROR(snapshot::WriteSnapshot(*fresh, path));
  }
  m["snapshot.write_s"] = {watch.ElapsedSeconds(), "s"};
  m["snapshot.bytes"] = {
      static_cast<double>(std::filesystem::file_size(path)), "bytes"};
  fresh.reset();
  rebuilt.reset();
  Serving restarted;
  SetupTimes times;
  TPA_RETURN_IF_ERROR(LoadServing(spec, path, tracer, restarted, times));
  std::filesystem::remove(path);
  m["snapshot.load_ms"] = {times.load_s * 1e3, "ms"};
  m["engine.create_ms"] = {times.create_s * 1e3, "ms"};
  watch.Reset();
  {
    ScopedSpan span(tracer, "engine.Query");
    if (!restarted.Engine().Query(seeds.front()).status.ok()) {
      return InternalError("first query after the restart failed");
    }
  }
  m["engine.first_query_ms"] = {watch.ElapsedMillis(), "ms"};
  return OkStatus();
}

/// The call ladder over the first seeds of the workload's stream.
Status RunLadder(const Context& ctx, Serving& serving, Metrics& m) {
  const WorkloadSpec& spec = ctx.spec;
  const Tpa& tpa = serving.GetTpa();
  Rng rng(ctx.args.seed);
  SeedStream stream(spec, tpa.graph(), rng);
  const std::vector<NodeId> batch =
      stream.Next(std::max(spec.ladder_seeds, spec.ladder_batch));
  const std::vector<NodeId> seeds(batch.begin(),
                                  batch.begin() + spec.ladder_seeds);
  if (spec.precision == la::Precision::kFloat32) {
    LadderCore<float>(spec, tpa, seeds, ctx.tracer, m);
  } else {
    LadderCore<double>(spec, tpa, seeds, ctx.tracer, m);
  }
  return LadderServing(ctx, tpa, seeds,
                       std::vector<NodeId>(batch.begin(),
                                           batch.begin() + spec.ladder_batch),
                       m);
}

// ------------------------------------------------------------ report

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with("model name")) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        std::erase(model, '"');
        return model;
      }
    }
  }
  return "unknown";
}

void PrintTable(const char* workload, const char* kind,
                const Metrics& metrics) {
  for (const auto& [name, metric] : metrics) {
    std::printf("%-32s %16.6g  %-6s %-20s %s\n", name.c_str(), metric.value,
                metric.unit.c_str(), workload, kind);
  }
}

bool WriteResult(const Args& args, const WorkloadSpec& spec,
                 const Outcome& out) {
  std::FILE* f = std::fopen(args.json_path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"schema_version\": %d,\n", kSchemaVersion);
  std::fprintf(f, "  \"benchmark\": \"serving\",\n  \"workload\": \"%s\",\n",
               spec.name);
  std::fprintf(f, "  \"seed\": %llu,\n  \"seconds\": %.17g,\n",
               static_cast<unsigned long long>(args.seed), args.seconds);
  std::fprintf(f, "  \"trace\": %d,\n", args.trace ? 1 : 0);
  const auto block = out.layer.find("engine.block_size");
  std::fprintf(
      f,
      "  \"host\": {\"nproc\": %d, \"llc_bytes\": %zu, \"cpu_model\": "
      "\"%s\", \"build_type\": \"%s\", \"git_sha\": \"%s\", "
      "\"workload_seed\": %llu, \"engine.block_size\": %d},\n",
      HostThreads(), DetectLastLevelCacheBytes(), CpuModel().c_str(),
      TPA_BENCH_BUILD_TYPE, args.git_sha.c_str(),
      static_cast<unsigned long long>(args.seed),
      block != out.layer.end() ? static_cast<int>(block->second.value) : 0);
  std::fprintf(f, "  \"correct\": %s,\n",
               out.mismatches.empty() ? "true" : "false");
  std::fprintf(f, "  \"attempted\": %llu,\n  \"failed\": %llu,\n",
               static_cast<unsigned long long>(out.attempted),
               static_cast<unsigned long long>(out.failed));
  std::fprintf(f, "  \"mismatches\": [");
  for (size_t i = 0; i < out.mismatches.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i > 0 ? ", " : "", out.mismatches[i].c_str());
  }
  std::fprintf(f, "],\n  \"metrics\": ");
  WriteMetricsJson(f, out.metrics, "  ");
  std::fprintf(f, ",\n  \"per_layer\": ");
  WriteMetricsJson(f, out.layer, "  ");
  std::fprintf(f, ",\n  \"extra\": ");
  WriteMetricsJson(f, out.extra, "  ");
  std::fprintf(f, "\n}\n");
  return std::fclose(f) == 0;
}

/// trace.overhead_pct.<metric>: how much slower each end-to-end timing read
/// in the traced pass than in the untraced one.
void AddTraceOverhead(const Metrics& untraced, const Metrics& traced,
                      Metrics& layer) {
  for (const char* name : {"setup_s", "lat_p50_ms", "lat_p99_ms"}) {
    layer[std::string("trace.overhead_pct.") + name] = {
        (traced.at(name).value / untraced.at(name).value - 1.0) * 100.0, "%"};
  }
  layer["trace.overhead_pct.throughput_per_s"] = {
      (untraced.at("throughput_per_s").value /
           traced.at("throughput_per_s").value -
       1.0) * 100.0,
      "%"};
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: bench_serving --workload NAME --seed S --seconds R "
                 "--json OUT [--trace 0|1] [--out-dir D] [--cache-dir D] "
                 "[--git-sha SHA] | --prepare --workload NAME "
                 "--cache-dir D\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& candidate : kWorkloads) {
    if (args.workload == candidate.name) spec = &candidate;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (std::string_view(TPA_BENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "refusing to report from a %s build\n",
                 TPA_BENCH_BUILD_TYPE);
    return 2;
  }
  if (args.prepare) {
    const Status status = Prepare(args, *spec);
    if (!status.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  std::filesystem::create_directories(args.out_dir);

  Outcome out;
  Status status = OkStatus();
  if (!args.trace) {
    std::optional<Serving> serving;
    status = RunWorkload({*spec, args, nullptr}, serving, out);
  } else {
    Outcome untraced;
    {
      std::optional<Serving> serving;
      status = RunWorkload({*spec, args, nullptr}, serving, untraced);
    }
    Tracer tracer;
    std::optional<Serving> serving;
    if (status.ok()) {
      status = RunWorkload({*spec, args, &tracer}, serving, out);
    }
    if (status.ok()) {
      ScopedSpan span(&tracer, "ladder");
      status = RunLadder({*spec, args, &tracer}, *serving, out.layer);
    }
    if (status.ok()) {
      AddTraceOverhead(untraced.metrics, out.metrics, out.layer);
      out.layer["trace.spans"] = {static_cast<double>(tracer.size()),
                                  "count"};
      out.metrics = untraced.metrics;
      out.attempted += untraced.attempted;
      out.failed += untraced.failed;
      out.mismatches.insert(out.mismatches.begin(),
                            untraced.mismatches.begin(),
                            untraced.mismatches.end());
      const std::string path =
          args.out_dir + "/trace_" + spec->name + ".json";
      if (!tracer.WriteChromeJson(path)) {
        status = InternalError("cannot write " + path);
      }
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", spec->name,
                 status.ToString().c_str());
    return 1;
  }

  // The tail swings by a fifth from run to run on a shared host, more
  // than any bound a gate could use, so it is reported as a layer fact.
  out.layer["lat_p99_ms"] = out.metrics.at("lat_p99_ms");
  PrintTable(spec->name, "end-to-end", out.metrics);
  if (args.trace) PrintTable(spec->name, "per-layer", out.layer);
  PrintTable(spec->name, "extra", out.extra);
  for (const std::string& mismatch : out.mismatches) {
    std::fprintf(stderr, "MISMATCH %s\n", mismatch.c_str());
  }
  if (!WriteResult(args, *spec, out)) {
    std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
    return 1;
  }
  return out.mismatches.empty() ? 0 : 3;
}

}  // namespace
}  // namespace tpa::bench

int main(int argc, char** argv) { return tpa::bench::Main(argc, argv); }
