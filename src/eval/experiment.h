#ifndef TPA_EVAL_EXPERIMENT_H_
#define TPA_EVAL_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/presets.h"
#include "method/registry.h"
#include "method/rwr_method.h"
#include "util/status.h"

namespace tpa {

/// Default logical memory budget for preprocessed data, standing in for the
/// paper's 200 GB workstation cap at our graph scale (README.md,
/// "Reproducing the paper").  Methods whose preprocessing footprint crosses
/// it are reported "OOM", reproducing the missing bars of Figure 1.
inline constexpr size_t kDefaultMemoryBudgetBytes = 192ull << 20;  // 192 MB

/// Number of random query seeds; the paper averages over 30 — experiments
/// default lower to keep single-core wall time reasonable and accept
/// `--seeds N` to match the paper exactly.
inline constexpr size_t kDefaultQuerySeeds = 3;

/// Deterministically picks `count` distinct query nodes.
std::vector<NodeId> PickQuerySeeds(const Graph& graph, size_t count,
                                   uint64_t rng_seed = 42);

/// Outcome of one method's preprocessing on one graph.
struct PreprocessMeasurement {
  bool out_of_memory = false;
  double seconds = 0.0;
  size_t preprocessed_bytes = 0;
};

/// Runs Preprocess under a fresh budget of `budget_bytes` and measures
/// wall-clock time and retained bytes.  RESOURCE_EXHAUSTED maps to
/// out_of_memory; other errors propagate.
StatusOr<PreprocessMeasurement> MeasurePreprocess(RwrMethod& method,
                                                  const Graph& graph,
                                                  size_t budget_bytes);

/// Average per-query wall-clock seconds over `seeds` (method must be
/// preprocessed).
StatusOr<double> MeasureOnlineSeconds(RwrMethod& method,
                                      const std::vector<NodeId>& seeds);

/// Shared command-line handling for the bench binaries: supports
/// `--scale F`, `--seeds N`, `--budget-mb N`, `--csv PATH`, `--datasets a,b`.
struct BenchArgs {
  double scale = 1.0;
  size_t seeds = kDefaultQuerySeeds;
  size_t budget_bytes = kDefaultMemoryBudgetBytes;
  std::string csv_path;
  std::string json_path;  // benchmark-specific machine-readable output
  std::vector<std::string> datasets;  // empty = experiment default

  static StatusOr<BenchArgs> Parse(int argc, char** argv);

  /// The dataset specs selected by --datasets (or `fallback` if none given).
  StatusOr<std::vector<DatasetSpec>> SelectDatasets(
      const std::vector<std::string>& fallback) const;
};

class TablePrinter;

/// Prints the table to stdout and, when args.csv_path is set, also writes it
/// there as CSV.  Returns a warning-level Status if the CSV file cannot be
/// written (the console output already happened).
Status EmitTable(const TablePrinter& table, const BenchArgs& args);

}  // namespace tpa

#endif  // TPA_EVAL_EXPERIMENT_H_
