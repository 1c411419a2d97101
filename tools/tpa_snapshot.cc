/// tpa_snapshot — build, inspect, verify, and serve TPA snapshot files.
///
/// Subcommands:
///   build  --out FILE [--scale S] [--edges M] [--seed R]
///          [--precision fp64|fp32] [--value-storage explicit|value-free]
///          [--restart C] [--family-window S] [--stranger-start T]
///          [--out-of-core] [--memory-budget-mb M] [--workdir DIR]
///          [--from-csr FILE.csr]
///       Generates a deterministic R-MAT graph, runs Tpa::Preprocess, and
///       writes the full serving state to FILE.  With --out-of-core the
///       graph is generated/built through the file-backed CSR pipeline
///       (edges spill to disk, the CSR is mmap'd, a resident steward keeps
///       peak RSS under --memory-budget-mb); --from-csr skips generation
///       and preprocesses an existing `gen` output instead.
///   gen    --out FILE.csr [--scale S] [--edges M] [--seed R]
///          [--precision fp64|fp32] [--value-storage explicit|value-free]
///          [--memory-budget-mb M] [--workdir DIR]
///       Out-of-core R-MAT generation only: streams the edges through the
///       external-memory sorter into a reopenable file-backed CSR
///       (TPACSR1), never holding the graph on the heap.
///   info FILE
///       Prints the header/meta summary (never touches payload bytes).
///   verify FILE
///       Full integrity check: checksums + structural invariants.
///   query FILE --seed N [--topk K] [--copy] [--no-verify]
///          [--memory-budget-mb M]
///       Loads FILE (mmap by default), warm-starts a QueryEngine, and
///       prints the top-k scores for the seed node.  With a budget, a
///       resident steward drops cold snapshot pages so the serving sweep
///       stays under M MB of RSS even when the file is larger.
///
/// Exit status: 0 on success, 1 on any error (message on stderr).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/query_engine.h"
#include "graph/generators.h"
#include "graph/out_of_core.h"
#include "method/tpa_method.h"
#include "snapshot/snapshot.h"
#include "util/mem_stats.h"
#include "util/stopwatch.h"

namespace tpa {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "tpa_snapshot: %s\n", message.c_str());
  return 1;
}

int FailStatus(const Status& status) { return Fail(status.message()); }

/// Minimal --flag VALUE parser over the argv tail.
class ArgList {
 public:
  ArgList(int argc, char** argv, int start) {
    for (int i = start; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  /// The value after `flag`, or `fallback` when absent.  Flags are
  /// consumed, so Unparsed() reports leftovers.
  std::string Value(const std::string& flag, const std::string& fallback) {
    for (size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == flag) {
        used_[i] = used_[i + 1] = true;
        return args_[i + 1];
      }
    }
    return fallback;
  }

  bool Present(const std::string& flag) {
    for (size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] == flag) {
        used_[i] = true;
        return true;
      }
    }
    return false;
  }

  /// First positional (non-flag) argument, or "".
  std::string Positional() {
    for (size_t i = 0; i < args_.size(); ++i) {
      if (!used_[i] && args_[i].rfind("--", 0) != 0) {
        used_[i] = true;
        return args_[i];
      }
    }
    return "";
  }

  std::string Unparsed() const {
    for (size_t i = 0; i < args_.size(); ++i) {
      if (!used_.count(i) || !used_.at(i)) return args_[i];
    }
    return "";
  }

 private:
  std::vector<std::string> args_;
  std::map<size_t, bool> used_;
};

/// Shared --scale/--edges/--seed parsing (defaults: scale 14, 16 edge
/// draws per node).
RmatOptions ParseRmatArgs(ArgList& args) {
  RmatOptions rmat;
  rmat.scale = static_cast<uint32_t>(
      std::strtoul(args.Value("--scale", "14").c_str(), nullptr, 10));
  rmat.edges = std::strtoull(args.Value("--edges", "0").c_str(), nullptr, 10);
  if (rmat.edges == 0) rmat.edges = (uint64_t{1} << rmat.scale) * 16;
  rmat.seed = std::strtoull(args.Value("--seed", "1").c_str(), nullptr, 10);
  return rmat;
}

/// Parses --precision/--value-storage into `build`; returns "" on success,
/// else the error message.
std::string ParseValueArgs(ArgList& args, BuildOptions& build) {
  const std::string precision = args.Value("--precision", "fp64");
  if (precision == "fp32") {
    build.value_precision = la::Precision::kFloat32;
  } else if (precision != "fp64") {
    return "--precision must be fp64 or fp32";
  }
  const std::string storage = args.Value("--value-storage", "explicit");
  if (storage == "value-free") {
    build.value_storage = ValueStorage::kRowConstant;
  } else if (storage != "explicit") {
    return "--value-storage must be explicit or value-free";
  }
  return "";
}

size_t ParseBudgetBytes(ArgList& args) {
  return static_cast<size_t>(std::strtoull(
             args.Value("--memory-budget-mb", "0").c_str(), nullptr, 10))
         << 20;
}

int CmdBuild(ArgList& args) {
  const std::string out = args.Value("--out", "");
  if (out.empty()) return Fail("build requires --out FILE");
  RmatOptions rmat = ParseRmatArgs(args);

  BuildOptions build;
  const std::string value_error = ParseValueArgs(args, build);
  if (!value_error.empty()) return Fail(value_error);
  const std::string precision = args.Value("--precision", "fp64");
  const std::string storage = args.Value("--value-storage", "explicit");

  TpaOptions options;
  options.restart_probability =
      std::strtod(args.Value("--restart", "0.15").c_str(), nullptr);
  options.family_window = static_cast<int>(
      std::strtol(args.Value("--family-window", "5").c_str(), nullptr, 10));
  options.stranger_start = static_cast<int>(
      std::strtol(args.Value("--stranger-start", "10").c_str(), nullptr, 10));
  const bool out_of_core = args.Present("--out-of-core");
  const size_t budget_bytes = ParseBudgetBytes(args);
  const std::string workdir = args.Value("--workdir", "");
  const std::string from_csr = args.Value("--from-csr", "");
  if (!args.Unparsed().empty()) {
    return Fail("unknown argument: " + args.Unparsed());
  }

  Stopwatch watch;
  if (out_of_core || !from_csr.empty()) {
    // File-backed pipeline: the CSR never sits on the heap, and the steward
    // keeps its mapped pages from accumulating past the budget through
    // generation, preprocess, and save.
    ResidentSteward::Options steward_options;
    steward_options.budget_bytes = budget_bytes;
    ResidentSteward steward(steward_options);
    steward.Start();

    StatusOr<OutOfCoreGraph> ooc = [&]() -> StatusOr<OutOfCoreGraph> {
      if (!from_csr.empty()) {
        StatusOr<OutOfCoreGraph> opened = OpenOutOfCoreGraph(from_csr);
        if (opened.ok() && opened->file != nullptr) {
          steward.RegisterRegion(opened->file, opened->file->data(),
                                 opened->file->size());
        }
        return opened;
      }
      OutOfCoreOptions ooc_options;
      ooc_options.csr_path = out + ".csr";
      ooc_options.spill_dir = workdir;
      ooc_options.memory_budget_bytes = budget_bytes;
      ooc_options.build = build;
      ooc_options.steward = &steward;
      return GenerateRmatOutOfCore(rmat, std::move(ooc_options));
    }();
    if (!ooc.ok()) return FailStatus(ooc.status());
    // Preprocess streams the in-CSR in one contiguous range per thread;
    // tell the kernel.
    (void)ooc->file->Advise(MappedAdvice::kSequential);
    StatusOr<Tpa> tpa = Tpa::Preprocess(*ooc->graph, options);
    if (!tpa.ok()) return FailStatus(tpa.status());
    const double build_seconds = watch.ElapsedSeconds();
    watch = Stopwatch();
    const Status saved = tpa->SaveSnapshot(out);
    if (!saved.ok()) return FailStatus(saved);
    steward.Stop();
    std::printf(
        "built scale=%u n=%u m=%llu %s/%s out-of-core in %.3fs, saved '%s' "
        "in %.3fs (csr %llu bytes, peak rss %zu MB, budget %zu MB, "
        "%zu steward drops)\n",
        rmat.scale, ooc->graph->num_nodes(),
        static_cast<unsigned long long>(ooc->graph->num_edges()),
        precision.c_str(), storage.c_str(), build_seconds, out.c_str(),
        watch.ElapsedSeconds(),
        static_cast<unsigned long long>(ooc->file_bytes),
        PeakRssBytes() >> 20, budget_bytes >> 20, steward.drop_count());
    return 0;
  }

  StatusOr<Graph> graph = GenerateRmat(rmat, build);
  if (!graph.ok()) return FailStatus(graph.status());
  StatusOr<Tpa> tpa = Tpa::Preprocess(*graph, options);
  if (!tpa.ok()) return FailStatus(tpa.status());
  const double build_seconds = watch.ElapsedSeconds();
  watch = Stopwatch();
  const Status saved = tpa->SaveSnapshot(out);
  if (!saved.ok()) return FailStatus(saved);
  std::printf(
      "built scale=%u n=%u m=%llu %s/%s in %.3fs, saved '%s' in %.3fs\n",
      rmat.scale, graph->num_nodes(),
      static_cast<unsigned long long>(graph->num_edges()), precision.c_str(),
      storage.c_str(), build_seconds, out.c_str(), watch.ElapsedSeconds());
  return 0;
}

int CmdGen(ArgList& args) {
  const std::string out = args.Value("--out", "");
  if (out.empty()) return Fail("gen requires --out FILE.csr");
  RmatOptions rmat = ParseRmatArgs(args);
  BuildOptions build;
  const std::string value_error = ParseValueArgs(args, build);
  if (!value_error.empty()) return Fail(value_error);
  const std::string precision = args.Value("--precision", "fp64");
  const std::string storage = args.Value("--value-storage", "explicit");
  const size_t budget_bytes = ParseBudgetBytes(args);
  const std::string workdir = args.Value("--workdir", "");
  if (!args.Unparsed().empty()) {
    return Fail("unknown argument: " + args.Unparsed());
  }

  ResidentSteward::Options steward_options;
  steward_options.budget_bytes = budget_bytes;
  ResidentSteward steward(steward_options);
  steward.Start();

  OutOfCoreOptions ooc_options;
  ooc_options.csr_path = out;
  ooc_options.spill_dir = workdir;
  ooc_options.memory_budget_bytes = budget_bytes;
  ooc_options.build = build;
  ooc_options.steward = &steward;

  Stopwatch watch;
  StatusOr<OutOfCoreGraph> ooc =
      GenerateRmatOutOfCore(rmat, std::move(ooc_options));
  if (!ooc.ok()) return FailStatus(ooc.status());
  steward.Stop();
  std::printf(
      "generated scale=%u n=%u m=%llu %s/%s into '%s' (%llu bytes) in %.3fs "
      "(peak rss %zu MB, budget %zu MB, %zu steward drops)\n",
      rmat.scale, ooc->graph->num_nodes(),
      static_cast<unsigned long long>(ooc->graph->num_edges()),
      precision.c_str(), storage.c_str(), out.c_str(),
      static_cast<unsigned long long>(ooc->file_bytes),
      watch.ElapsedSeconds(), PeakRssBytes() >> 20, budget_bytes >> 20,
      steward.drop_count());
  return 0;
}

int CmdInfo(ArgList& args) {
  const std::string path = args.Positional();
  if (path.empty()) return Fail("info requires a snapshot path");
  StatusOr<snapshot::SnapshotInfo> info = snapshot::ReadSnapshotInfo(path);
  if (!info.ok()) return FailStatus(info.status());
  std::printf(
      "snapshot '%s'\n"
      "  nodes=%llu edges=%llu precision=%s storage=%s\n"
      "  tiers: fp64=%d fp32=%d\n"
      "  tpa: c=%g eps=%g S=%d T=%d\n"
      "  sparse head: frontier_density_threshold=%g "
      "topk_frontier_density_threshold=%g\n"
      "  file: %llu bytes, %u sections\n",
      path.c_str(), static_cast<unsigned long long>(info->num_nodes),
      static_cast<unsigned long long>(info->num_edges),
      std::string(la::PrecisionName(info->precision)).c_str(),
      info->value_storage == ValueStorage::kExplicit ? "explicit"
                                                     : "value-free",
      info->has_fp64 ? 1 : 0, info->has_fp32 ? 1 : 0,
      info->options.restart_probability, info->options.tolerance,
      info->options.family_window, info->options.stranger_start,
      info->options.frontier_density_threshold,
      info->options.topk_frontier_density_threshold,
      static_cast<unsigned long long>(info->file_bytes), info->section_count);
  return 0;
}

int CmdVerify(ArgList& args) {
  const std::string path = args.Positional();
  if (path.empty()) return Fail("verify requires a snapshot path");
  Stopwatch watch;
  const Status status = snapshot::VerifySnapshot(path);
  if (!status.ok()) return FailStatus(status);
  std::printf("snapshot '%s' verified in %.3fs\n", path.c_str(),
              watch.ElapsedSeconds());
  return 0;
}

int CmdQuery(ArgList& args) {
  const std::string path = args.Positional();
  if (path.empty()) return Fail("query requires a snapshot path");
  const NodeId seed = static_cast<NodeId>(
      std::strtoul(args.Value("--seed", "0").c_str(), nullptr, 10));
  const int topk = static_cast<int>(
      std::strtol(args.Value("--topk", "10").c_str(), nullptr, 10));
  snapshot::LoadOptions load;
  if (args.Present("--copy")) load.mode = snapshot::LoadMode::kCopy;
  if (args.Present("--no-verify")) load.verify = false;
  const uint64_t budget_mb = std::strtoull(
      args.Value("--memory-budget-mb", "0").c_str(), nullptr, 10);
  if (!args.Unparsed().empty()) {
    return Fail("unknown argument: " + args.Unparsed());
  }
  ResidentSteward::Options steward_options;
  steward_options.budget_bytes = budget_mb << 20;
  ResidentSteward steward(steward_options);
  if (budget_mb > 0) {
    // Started before the load so the verification sweep over the payload
    // is already inside the budget, not just the query traffic after it.
    load.advice = MappedAdvice::kRandom;
    load.steward = &steward;
    steward.Start();
  }

  Stopwatch watch;
  StatusOr<snapshot::LoadedSnapshot> loaded =
      snapshot::LoadSnapshot(path, load);
  if (!loaded.ok()) return FailStatus(loaded.status());
  const double load_seconds = watch.ElapsedSeconds();

  QueryEngineOptions engine_options;
  engine_options.num_threads = 1;
  engine_options.top_k = topk;
  StatusOr<QueryEngine> engine = QueryEngine::Create(
      *loaded->graph, std::make_unique<TpaMethod>(std::move(*loaded->tpa)),
      engine_options);
  if (!engine.ok()) return FailStatus(engine.status());
  QueryResult result = engine->Query(seed);
  if (!result.status.ok()) return FailStatus(result.status);
  steward.Stop();

  std::printf("loaded '%s' in %.3fs (%s)\n", path.c_str(), load_seconds,
              load.mode == snapshot::LoadMode::kMap ? "mmap" : "copy");
  if (budget_mb > 0) {
    std::printf("peak RSS %.1f MB (budget %llu MB, %zu steward drops)\n",
                static_cast<double>(PeakRssBytes()) / (1 << 20),
                static_cast<unsigned long long>(budget_mb),
                steward.drop_count());
  }
  std::printf("top-%d for seed %u:\n", topk, seed);
  for (size_t i = 0; i < result.top.size(); ++i) {
    std::printf("  %2zu. node %u  score %.6e\n", i + 1, result.top[i].node,
                result.top[i].score);
  }
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) {
    return Fail("usage: tpa_snapshot build|gen|info|verify|query ...");
  }
  const std::string command = argv[1];
  ArgList args(argc, argv, 2);
  if (command == "build") return CmdBuild(args);
  if (command == "gen") return CmdGen(args);
  if (command == "info") return CmdInfo(args);
  if (command == "verify") return CmdVerify(args);
  if (command == "query") return CmdQuery(args);
  return Fail("unknown command: " + command);
}

}  // namespace
}  // namespace tpa

int main(int argc, char** argv) { return tpa::Run(argc, argv); }
