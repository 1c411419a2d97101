/// Figure 10 (Appendix A): TPA vs BePI — preprocessed data size,
/// preprocessing time, and online time across the dataset suite.  BePI is
/// exact; TPA trades its bounded approximation for a much faster online
/// phase and far smaller preprocessed data.  Both preprocess on one thread.

#include <iostream>

#include "eval/experiment.h"
#include "graph/presets.h"
#include "method/registry.h"
#include "util/table_printer.h"

namespace tpa {
namespace {

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

  std::cout << "== Figure 10: TPA vs BePI (exact), avg over " << args->seeds
            << " seeds ==\n";
  TablePrinter table({"Dataset", "Method", "PreprocessedData",
                      "PreprocessTime(s)", "OnlineTime(s)"});

  for (const DatasetSpec& spec : *specs) {
    auto graph = MakePresetGraph(spec, args->scale);
    if (!graph.ok()) {
      std::cerr << graph.status() << "\n";
      return 1;
    }
    const std::vector<NodeId> seeds = PickQuerySeeds(*graph, args->seeds);
    MethodConfig config;
    config.tpa_family_window = spec.s;
    config.tpa_stranger_start = spec.t;
    config.tpa_preprocess_threads = 1;

    for (std::string_view name : {"TPA", "BePI"}) {
      auto method = CreateMethod(name, config);
      if (!method.ok()) {
        std::cerr << method.status() << "\n";
        return 1;
      }
      // BePI's preprocessed data is linear in the graph; run unbudgeted as
      // in the paper's appendix.
      auto prep = MeasurePreprocess(**method, *graph, /*budget_bytes=*/0);
      if (!prep.ok()) {
        std::cerr << spec.name << "/" << name << ": " << prep.status() << "\n";
        return 1;
      }
      auto seconds = MeasureOnlineSeconds(**method, seeds);
      if (!seconds.ok()) {
        std::cerr << spec.name << "/" << name << ": " << seconds.status()
                  << "\n";
        return 1;
      }
      table.AddRow({std::string(spec.name), std::string(name),
                    TablePrinter::FormatBytes(prep->preprocessed_bytes),
                    TablePrinter::FormatDouble(prep->seconds, 3),
                    TablePrinter::FormatDouble(*seconds, 4)});
    }
  }
  Status emitted = EmitTable(table, *args);
  if (!emitted.ok()) std::cerr << emitted << "\n";
  return 0;
}

}  // namespace
}  // namespace tpa

int main(int argc, char** argv) { return tpa::Run(argc, argv); }
