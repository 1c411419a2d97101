/// Figure 9: effect of T (the stranger-start iteration) on the L1 errors of
/// the neighbor approximation (NA), stranger approximation (SA), and TPA,
/// with S fixed at 5, on the LiveJournal and Pokec stand-ins.
/// Expectation: NA error grows with T, SA error shrinks, TPA's total dips
/// and then rebounds.
///
/// One converged windowed CPI pass per seed provides the exact windows for
/// every T simultaneously.

#include <iostream>

#include "core/cpi.h"
#include "core/tpa.h"
#include "eval/experiment.h"
#include "graph/presets.h"
#include "la/vector_ops.h"
#include "util/table_printer.h"

namespace tpa {
namespace {

constexpr int kFamilyWindow = 5;  // the paper fixes S = 5 here

int Run(int argc, char** argv) {
  auto args = BenchArgs::Parse(argc, argv);
  if (!args.ok()) {
    std::cerr << args.status() << "\n";
    return 1;
  }
  auto specs = args->SelectDatasets({"livejournal-sim", "pokec-sim"});
  if (!specs.ok()) {
    std::cerr << specs.status() << "\n";
    return 1;
  }
  const std::vector<int> ts = {6, 8, 10, 15, 20, 25};

  std::cout << "== Figure 9: effect of T on NA / SA / TPA L1 error (S=5), "
               "avg over "
            << args->seeds << " seeds ==\n";
  TablePrinter table({"Dataset", "T", "NA-error", "SA-error", "TPA-error"});

  for (const DatasetSpec& spec : *specs) {
    auto graph = MakePresetGraph(spec, args->scale);
    if (!graph.ok()) {
      std::cerr << graph.status() << "\n";
      return 1;
    }
    const std::vector<NodeId> seeds = PickQuerySeeds(*graph, args->seeds);

    // Exact windows at every T boundary per seed:
    // breakpoints {0, S, t_0, t_1, ...}.
    std::vector<int> breakpoints = {0, kFamilyWindow};
    for (int t : ts) breakpoints.push_back(t);
    CpiOptions exact_options;
    exact_options.tolerance = 1e-12;

    // exact_windows[seed_idx][w] = window sum vectors.
    std::vector<std::vector<std::vector<double>>> exact_windows;
    for (NodeId seed : seeds) {
      std::vector<double> q(graph->num_nodes(), 0.0);
      q[seed] = 1.0;
      auto windows =
          Cpi::RunWindowed(*graph, q, breakpoints, exact_options);
      if (!windows.ok()) {
        std::cerr << windows.status() << "\n";
        return 1;
      }
      exact_windows.push_back(std::move(windows).value());
    }

    for (size_t ti = 0; ti < ts.size(); ++ti) {
      const int t = ts[ti];
      TpaOptions options;
      options.family_window = kFamilyWindow;
      options.stranger_start = t;
      auto tpa = Tpa::Preprocess(*graph, options);
      if (!tpa.ok()) {
        std::cerr << tpa.status() << "\n";
        return 1;
      }

      double na_error = 0.0, sa_error = 0.0, total_error = 0.0;
      for (size_t si = 0; si < seeds.size(); ++si) {
        const auto& windows = exact_windows[si];
        // Window layout: [0]=family, [1]=S..ts[0], [1+j]=ts[j-1]..ts[j],
        // last = ts.back()..∞.  The exact neighbor part for this T is the
        // sum of windows 1..ti+... windows from S up to t; the stranger part
        // is everything after.
        std::vector<double> exact_neighbor(graph->num_nodes(), 0.0);
        std::vector<double> exact_stranger(graph->num_nodes(), 0.0);
        for (size_t w = 1; w < windows.size(); ++w) {
          // window w covers [breakpoints[w], breakpoints[w+1]) (∞ for last)
          if (breakpoints[w] < t) {
            la::Axpy(1.0, windows[w], exact_neighbor);
          } else {
            la::Axpy(1.0, windows[w], exact_stranger);
          }
        }
        Tpa::QueryParts parts = tpa->QueryDecomposed(seeds[si]);
        na_error += la::L1Distance(parts.neighbor_est, exact_neighbor);
        sa_error += la::L1Distance(tpa->stranger_scores(), exact_stranger);
        std::vector<double> exact = windows[0];
        la::Axpy(1.0, exact_neighbor, exact);
        la::Axpy(1.0, exact_stranger, exact);
        total_error += la::L1Distance(parts.total, exact);
      }
      const double n = static_cast<double>(seeds.size());
      table.AddRow({std::string(spec.name), std::to_string(t),
                    TablePrinter::FormatDouble(na_error / n, 4),
                    TablePrinter::FormatDouble(sa_error / n, 4),
                    TablePrinter::FormatDouble(total_error / n, 4)});
    }
  }
  Status emitted = EmitTable(table, *args);
  if (!emitted.ok()) std::cerr << emitted << "\n";
  return 0;
}

}  // namespace
}  // namespace tpa

int main(int argc, char** argv) { return tpa::Run(argc, argv); }
