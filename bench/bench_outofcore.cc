/// Out-of-core pipeline benchmark: for each requested R-MAT scale, runs the
/// full file-backed lifecycle — streamed generation through the external-
/// memory sorter into a mapped CSR, Tpa::Preprocess over the mapping,
/// snapshot save, and a warm-started query — under a ResidentSteward
/// budget, and records wall times, on-disk bytes, and peak RSS (VmHWM).
///
/// VmHWM is a process-lifetime high-water mark, so scales run in ascending
/// order and each row's peak is the running maximum — dominated by the
/// row's own scale, and only the largest scale's peak is judged against the
/// budget.  `--enforce-budget` turns that check into the exit status (the
/// CI smoke gate); without it the numbers are informational
/// (BENCH_outofcore.json artifact).
///
/// Flags:
///   --scales 20,21,22,23   comma-separated ascending R-MAT scales
///   --edges-per-node 16    edge draws per node (m = n * this)
///   --memory-budget-mb 640 steward budget; 0 disables stewarding
///   --precision fp64|fp32  value tier (default fp64)
///   --value-storage value-free|explicit  (default value-free)
///   --workdir DIR          where the CSR/spill/snapshot files live
///   --json PATH            machine-readable rows
///   --enforce-budget       exit 1 if peak RSS ever exceeds the budget
///   --keep-files           don't delete the CSR/snapshot after each scale

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/tpa.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "graph/out_of_core.h"
#include "method/tpa_method.h"
#include "snapshot/snapshot.h"
#include "util/mem_stats.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace tpa {
namespace {

struct Args {
  std::vector<uint32_t> scales = {20, 21, 22, 23};
  uint64_t edges_per_node = 16;
  size_t budget_bytes = size_t{640} << 20;
  la::Precision precision = la::Precision::kFloat64;
  ValueStorage value_storage = ValueStorage::kRowConstant;
  std::string workdir = ".";
  std::string json_path;
  bool enforce_budget = false;
  bool keep_files = false;
};

struct Row {
  uint32_t scale = 0;
  NodeId nodes = 0;
  uint64_t edges = 0;
  double generate_seconds = 0.0;    // edge draws + spill + CSR write passes
  double preprocess_seconds = 0.0;  // Tpa::Preprocess over the mapping
  double save_seconds = 0.0;        // snapshot write
  double query_seconds = 0.0;       // warm-started single query
  uint64_t csr_bytes = 0;
  uint64_t snapshot_bytes = 0;
  size_t peak_rss_bytes = 0;  // VmHWM after this scale (running max)
  size_t steward_drops = 0;
  bool within_budget = true;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--scales") {
      const char* value = next();
      if (value == nullptr) return false;
      args.scales.clear();
      for (const char* p = value; *p != '\0';) {
        char* end = nullptr;
        args.scales.push_back(
            static_cast<uint32_t>(std::strtoul(p, &end, 10)));
        if (end == p) return false;
        p = *end == ',' ? end + 1 : end;
      }
    } else if (flag == "--edges-per-node") {
      const char* value = next();
      if (value == nullptr) return false;
      args.edges_per_node = std::strtoull(value, nullptr, 10);
    } else if (flag == "--memory-budget-mb") {
      const char* value = next();
      if (value == nullptr) return false;
      args.budget_bytes = static_cast<size_t>(
                              std::strtoull(value, nullptr, 10))
                          << 20;
    } else if (flag == "--precision") {
      const char* value = next();
      if (value == nullptr) return false;
      if (std::strcmp(value, "fp32") == 0) {
        args.precision = la::Precision::kFloat32;
      } else if (std::strcmp(value, "fp64") != 0) {
        return false;
      }
    } else if (flag == "--value-storage") {
      const char* value = next();
      if (value == nullptr) return false;
      if (std::strcmp(value, "explicit") == 0) {
        args.value_storage = ValueStorage::kExplicit;
      } else if (std::strcmp(value, "value-free") != 0) {
        return false;
      }
    } else if (flag == "--workdir") {
      const char* value = next();
      if (value == nullptr) return false;
      args.workdir = value;
    } else if (flag == "--json") {
      const char* value = next();
      if (value == nullptr) return false;
      args.json_path = value;
    } else if (flag == "--enforce-budget") {
      args.enforce_budget = true;
    } else if (flag == "--keep-files") {
      args.keep_files = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

StatusOr<Row> RunScale(const Args& args, uint32_t scale) {
  Row row;
  row.scale = scale;

  const std::string csr_path =
      args.workdir + "/ooc_s" + std::to_string(scale) + ".csr";
  const std::string snap_path =
      args.workdir + "/ooc_s" + std::to_string(scale) + ".tpasnap";

  ResidentSteward::Options steward_options;
  steward_options.budget_bytes = args.budget_bytes;
  ResidentSteward steward(steward_options);
  steward.Start();

  RmatOptions rmat;
  rmat.scale = scale;
  rmat.edges = (uint64_t{1} << scale) * args.edges_per_node;
  OutOfCoreOptions ooc_options;
  ooc_options.csr_path = csr_path;
  ooc_options.memory_budget_bytes = args.budget_bytes;
  ooc_options.build.value_precision = args.precision;
  ooc_options.build.value_storage = args.value_storage;
  ooc_options.steward = &steward;

  Stopwatch watch;
  TPA_ASSIGN_OR_RETURN(OutOfCoreGraph ooc,
                       GenerateRmatOutOfCore(rmat, std::move(ooc_options)));
  row.generate_seconds = watch.ElapsedSeconds();
  row.nodes = ooc.graph->num_nodes();
  row.edges = ooc.graph->num_edges();
  row.csr_bytes = ooc.file_bytes;

  // Preprocess streams the in-CSR in one contiguous range per thread,
  // once per iteration.
  (void)ooc.file->Advise(MappedAdvice::kSequential);
  watch = Stopwatch();
  TPA_ASSIGN_OR_RETURN(Tpa tpa, Tpa::Preprocess(*ooc.graph, {}));
  row.preprocess_seconds = watch.ElapsedSeconds();

  watch = Stopwatch();
  TPA_RETURN_IF_ERROR(tpa.SaveSnapshot(snap_path));
  row.save_seconds = watch.ElapsedSeconds();
  TPA_ASSIGN_OR_RETURN(snapshot::SnapshotInfo info,
                       snapshot::ReadSnapshotInfo(snap_path));
  row.snapshot_bytes = info.file_bytes;

  // Serve one query off a fresh mapped load of the snapshot, the way a
  // warm-started process would; drop the build's pages first so the query
  // pays its own faults inside the same budget.
  {
    Tpa preprocessed = std::move(tpa);
    (void)preprocessed;  // Tpa borrowed ooc.graph; release before the graph
  }
  steward.DropAll();
  snapshot::LoadOptions load;
  load.verify = false;
  load.advice = MappedAdvice::kRandom;
  // The serving sweep pages the whole snapshot in; without this the
  // query phase is the one mapping the steward can't reclaim.
  load.steward = &steward;
  watch = Stopwatch();
  TPA_ASSIGN_OR_RETURN(snapshot::LoadedSnapshot loaded,
                       snapshot::LoadSnapshot(snap_path, load));
  QueryEngineOptions engine_options;
  engine_options.num_threads = 1;
  engine_options.top_k = 10;
  TPA_ASSIGN_OR_RETURN(
      QueryEngine engine,
      QueryEngine::Create(*loaded.graph,
                          std::make_unique<TpaMethod>(std::move(*loaded.tpa)),
                          engine_options));
  QueryResult result = engine.Query(1);
  TPA_RETURN_IF_ERROR(result.status);
  row.query_seconds = watch.ElapsedSeconds();

  steward.Stop();
  row.steward_drops = steward.drop_count();
  row.peak_rss_bytes = PeakRssBytes();
  row.within_budget =
      args.budget_bytes == 0 || row.peak_rss_bytes == 0 ||
      row.peak_rss_bytes <= args.budget_bytes;

  if (!args.keep_files) {
    std::remove(csr_path.c_str());
    std::remove(snap_path.c_str());
  }
  return row;
}

Status WriteJson(const Args& args, const std::vector<Row>& rows,
                 const std::string& path) {
  std::ofstream out(path);
  if (!out) return InternalError("cannot open " + path);
  out << "{\n  \"benchmark\": \"outofcore\",\n  \"budget_bytes\": "
      << args.budget_bytes << ",\n  \"precision\": \""
      << la::PrecisionName(args.precision) << "\",\n  \"value_storage\": \""
      << (args.value_storage == ValueStorage::kExplicit ? "explicit"
                                                        : "value-free")
      << "\",\n  \"rows\": [";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"scale\": " << row.scale << ", \"nodes\": " << row.nodes
        << ", \"edges\": " << row.edges
        << ", \"generate_s\": " << row.generate_seconds
        << ", \"preprocess_s\": " << row.preprocess_seconds
        << ", \"save_s\": " << row.save_seconds
        << ", \"query_s\": " << row.query_seconds
        << ", \"csr_bytes\": " << row.csr_bytes
        << ", \"snapshot_bytes\": " << row.snapshot_bytes
        << ", \"disk_bytes\": " << (row.csr_bytes + row.snapshot_bytes)
        << ", \"peak_rss_bytes\": " << row.peak_rss_bytes
        << ", \"steward_drops\": " << row.steward_drops
        << ", \"within_budget\": " << (row.within_budget ? "true" : "false")
        << "}";
  }
  out << "\n  ]\n}\n";
  if (!out.good()) return InternalError("short write to " + path);
  return OkStatus();
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: bench_outofcore [--scales 20,21,22,23] "
                 "[--edges-per-node N] [--memory-budget-mb M] "
                 "[--precision fp64|fp32] "
                 "[--value-storage value-free|explicit] [--workdir DIR] "
                 "[--json PATH] [--enforce-budget] [--keep-files]\n");
    return 1;
  }

  std::cout << "== out-of-core pipeline (budget="
            << TablePrinter::FormatBytes(args.budget_bytes) << ", "
            << la::PrecisionName(args.precision) << "/"
            << (args.value_storage == ValueStorage::kExplicit ? "explicit"
                                                              : "value-free")
            << ") ==\n";
  TablePrinter table({"Scale", "Nodes", "Edges", "Generate(s)",
                      "Preprocess(s)", "Save(s)", "Query(s)", "Disk",
                      "PeakRSS", "Drops", "InBudget"});

  std::vector<Row> rows;
  bool all_within_budget = true;
  for (uint32_t scale : args.scales) {
    auto row = RunScale(args, scale);
    if (!row.ok()) {
      std::cerr << "scale " << scale << ": " << row.status() << "\n";
      return 1;
    }
    table.AddRow({std::to_string(row->scale), std::to_string(row->nodes),
                  std::to_string(row->edges),
                  TablePrinter::FormatDouble(row->generate_seconds, 2),
                  TablePrinter::FormatDouble(row->preprocess_seconds, 2),
                  TablePrinter::FormatDouble(row->save_seconds, 2),
                  TablePrinter::FormatDouble(row->query_seconds, 3),
                  TablePrinter::FormatBytes(row->csr_bytes +
                                            row->snapshot_bytes),
                  TablePrinter::FormatBytes(row->peak_rss_bytes),
                  std::to_string(row->steward_drops),
                  row->within_budget ? "yes" : "NO"});
    all_within_budget = all_within_budget && row->within_budget;
    rows.push_back(std::move(*row));
  }
  table.PrintText(std::cout);

  if (!args.json_path.empty()) {
    Status json = WriteJson(args, rows, args.json_path);
    if (!json.ok()) {
      std::cerr << json << "\n";
      return 1;
    }
  }
  if (args.enforce_budget && !all_within_budget) {
    std::cerr << "peak RSS exceeded the " << (args.budget_bytes >> 20)
              << " MB budget\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tpa

int main(int argc, char** argv) { return tpa::Run(argc, argv); }
