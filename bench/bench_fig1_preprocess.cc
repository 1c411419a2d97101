/// Figure 1(a) + 1(b): size of preprocessed data and preprocessing time of
/// every preprocessing method (TPA, BEAR-APPROX, NB-LIN, HubPPR, FORA)
/// across the dataset suite.  Methods whose preprocessing exceeds the memory
/// budget print "OOM" — the paper's missing bars.
///
/// A second, informational table compares TPA cold starts: full graph
/// rebuild + Tpa::Preprocess versus opening a snapshot file and mmapping
/// its sections.  `--json PATH` records the cold-start rows machine-
/// readably (the CI BENCH_*.json artifact; not regression-gated).
///
/// TPA preprocesses on one thread in both tables, as every baseline does,
/// so the comparison stays like-for-like.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/tpa.h"
#include "eval/experiment.h"
#include "graph/presets.h"
#include "method/registry.h"
#include "snapshot/snapshot.h"
#include "util/mem_stats.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace tpa {
namespace {

struct ColdStartRow {
  std::string dataset;
  NodeId nodes = 0;
  uint64_t edges = 0;
  double rebuild_seconds = 0.0;      // GenerateGraph + Tpa::Preprocess
  uint64_t snapshot_bytes = 0;
  double load_map_seconds = 0.0;     // open + mmap, no payload verification
  double load_verify_seconds = 0.0;  // open + mmap + full checksum pass
  /// VmHWM when the row was recorded — a running process-lifetime maximum.
  size_t peak_rss_bytes = 0;
};

/// Measures one dataset's cold-start pair.  The snapshot is written to (and
/// removed from) `snapshot_path`.
StatusOr<ColdStartRow> MeasureColdStart(const DatasetSpec& spec,
                                        double scale,
                                        const std::string& snapshot_path) {
  ColdStartRow row;
  row.dataset = std::string(spec.name);

  TpaOptions options;
  options.family_window = spec.s;
  options.stranger_start = spec.t;
  options.preprocess_threads = 1;

  // Full cold start: build the graph from its generator and preprocess.
  Stopwatch watch;
  TPA_ASSIGN_OR_RETURN(Graph graph, MakePresetGraph(spec, scale));
  TPA_ASSIGN_OR_RETURN(Tpa tpa, Tpa::Preprocess(graph, options));
  row.rebuild_seconds = watch.ElapsedSeconds();
  row.nodes = graph.num_nodes();
  row.edges = graph.num_edges();

  TPA_RETURN_IF_ERROR(tpa.SaveSnapshot(snapshot_path));
  TPA_ASSIGN_OR_RETURN(snapshot::SnapshotInfo info,
                       snapshot::ReadSnapshotInfo(snapshot_path));
  row.snapshot_bytes = info.file_bytes;

  // Snapshot cold start, twice: the open+map path serving engines take on
  // a trusted local file, and the verified path that CRCs every payload.
  snapshot::LoadOptions load;
  load.verify = false;
  watch = Stopwatch();
  TPA_ASSIGN_OR_RETURN(snapshot::LoadedSnapshot mapped,
                       snapshot::LoadSnapshot(snapshot_path, load));
  row.load_map_seconds = watch.ElapsedSeconds();

  load.verify = true;
  watch = Stopwatch();
  TPA_ASSIGN_OR_RETURN(snapshot::LoadedSnapshot verified,
                       snapshot::LoadSnapshot(snapshot_path, load));
  row.load_verify_seconds = watch.ElapsedSeconds();

  std::remove(snapshot_path.c_str());
  row.peak_rss_bytes = PeakRssBytes();
  return row;
}

Status WriteColdStartJson(const std::vector<ColdStartRow>& rows,
                          const std::string& path) {
  std::ofstream out(path);
  if (!out) return InternalError("cannot open " + path);
  out << "{\n  \"benchmark\": \"fig1_preprocess_coldstart\",\n  \"rows\": [";
  for (size_t i = 0; i < rows.size(); ++i) {
    const ColdStartRow& row = rows[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"dataset\": \"" << row.dataset << "\""
        << ", \"nodes\": " << row.nodes << ", \"edges\": " << row.edges
        << ", \"rebuild_s\": " << row.rebuild_seconds
        << ", \"snapshot_bytes\": " << row.snapshot_bytes
        << ", \"load_map_s\": " << row.load_map_seconds
        << ", \"load_verify_s\": " << row.load_verify_seconds
        << ", \"speedup_map\": "
        << (row.load_map_seconds > 0.0
                ? row.rebuild_seconds / row.load_map_seconds
                : 0.0)
        << ", \"peak_rss_bytes\": " << row.peak_rss_bytes << "}";
  }
  out << "\n  ]\n}\n";
  if (!out.good()) return InternalError("short write to " + path);
  return OkStatus();
}

int Run(int argc, char** argv) {
  auto args = BenchArgs::Parse(argc, argv);
  if (!args.ok()) {
    std::cerr << args.status() << "\n";
    return 1;
  }
  std::vector<std::string> all_names;
  for (const DatasetSpec& spec : AllDatasetSpecs()) {
    all_names.emplace_back(spec.name);
  }
  auto specs = args->SelectDatasets(all_names);
  if (!specs.ok()) {
    std::cerr << specs.status() << "\n";
    return 1;
  }

  std::cout << "== Figure 1(a)/(b): preprocessed data size and "
               "preprocessing time (budget="
            << TablePrinter::FormatBytes(args->budget_bytes) << ") ==\n";
  TablePrinter table(
      {"Dataset", "Method", "PreprocessedData", "PreprocessTime(s)"});

  for (const DatasetSpec& spec : *specs) {
    auto graph = MakePresetGraph(spec, args->scale);
    if (!graph.ok()) {
      std::cerr << graph.status() << "\n";
      return 1;
    }
    MethodConfig config;
    config.tpa_family_window = spec.s;
    config.tpa_stranger_start = spec.t;
    config.tpa_preprocess_threads = 1;

    for (std::string_view name : PreprocessingMethodNames()) {
      auto method = CreateMethod(name, config);
      if (!method.ok()) {
        std::cerr << method.status() << "\n";
        return 1;
      }
      auto result = MeasurePreprocess(**method, *graph, args->budget_bytes);
      if (!result.ok()) {
        std::cerr << spec.name << "/" << name << ": " << result.status()
                  << "\n";
        return 1;
      }
      if (result->out_of_memory) {
        table.AddRow({std::string(spec.name), std::string(name), "OOM",
                      "OOM"});
      } else {
        table.AddRow({std::string(spec.name), std::string(name),
                      TablePrinter::FormatBytes(result->preprocessed_bytes),
                      TablePrinter::FormatDouble(result->seconds, 3)});
      }
    }
  }
  Status emitted = EmitTable(table, *args);
  if (!emitted.ok()) std::cerr << emitted << "\n";

  // Cold-start comparison (informational): the preprocessing above is
  // one-time; what a serving process actually pays at startup is either a
  // full rebuild or a snapshot open+map.
  std::cout << "\n== TPA cold start: rebuild+preprocess vs snapshot "
               "open+map ==\n";
  TablePrinter cold_table({"Dataset", "Rebuild(s)", "SnapshotSize",
                           "OpenMap(s)", "VerifiedLoad(s)", "Speedup"});
  std::vector<ColdStartRow> cold_rows;
  for (const DatasetSpec& spec : *specs) {
    auto row = MeasureColdStart(spec, args->scale,
                                "fig1_coldstart_" + std::string(spec.name) +
                                    ".tpasnap");
    if (!row.ok()) {
      std::cerr << spec.name << ": " << row.status() << "\n";
      return 1;
    }
    cold_table.AddRow(
        {row->dataset, TablePrinter::FormatDouble(row->rebuild_seconds, 3),
         TablePrinter::FormatBytes(row->snapshot_bytes),
         TablePrinter::FormatDouble(row->load_map_seconds, 4),
         TablePrinter::FormatDouble(row->load_verify_seconds, 4),
         TablePrinter::FormatDouble(
             row->load_map_seconds > 0.0
                 ? row->rebuild_seconds / row->load_map_seconds
                 : 0.0,
             1) +
             "x"});
    cold_rows.push_back(std::move(*row));
  }
  cold_table.PrintText(std::cout);
  if (!args->json_path.empty()) {
    Status json = WriteColdStartJson(cold_rows, args->json_path);
    if (!json.ok()) std::cerr << json << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace tpa

int main(int argc, char** argv) { return tpa::Run(argc, argv); }
