#ifndef TPA_METHOD_REGISTRY_H_
#define TPA_METHOD_REGISTRY_H_

#include <memory>
#include <string_view>
#include <vector>

#include "method/rwr_method.h"
#include "util/status.h"

namespace tpa {

/// Per-dataset knobs shared across methods when instantiating them for an
/// experiment.  Everything else uses each method's paper defaults.
struct MethodConfig {
  double restart_probability = 0.15;
  double tolerance = 1e-9;
  /// TPA's S and T (Table II values live in DatasetSpec).
  int tpa_family_window = 5;
  int tpa_stranger_start = 10;
  /// TpaOptions::preprocess_threads (0 = every hardware thread).  The
  /// paper-figure benches set 1, so TPA's preprocessing time is measured
  /// on one core like the baselines it is compared with.
  int tpa_preprocess_threads = 0;
};

/// Instantiates a method by display name ("TPA", "BEAR-APPROX", "NB-LIN",
/// "BRPPR", "FORA", "HubPPR", "BePI", "PowerIteration").
/// NOT_FOUND for unknown names.
StatusOr<std::unique_ptr<RwrMethod>> CreateMethod(std::string_view name,
                                                  const MethodConfig& config);

/// Methods with a preprocessing phase (the Figure 1(a)/(b) set).
std::vector<std::string_view> PreprocessingMethodNames();

/// All approximate methods compared in Figure 1(c) / Figure 7.
std::vector<std::string_view> ApproximateMethodNames();

}  // namespace tpa

#endif  // TPA_METHOD_REGISTRY_H_
