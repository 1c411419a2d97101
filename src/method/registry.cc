#include "method/registry.h"

#include <string>

#include "method/bear.h"
#include "method/bepi.h"
#include "method/brppr.h"
#include "method/fora.h"
#include "method/hubppr.h"
#include "method/nblin.h"
#include "method/power_iteration.h"
#include "method/tpa_method.h"

namespace tpa {

StatusOr<std::unique_ptr<RwrMethod>> CreateMethod(std::string_view name,
                                                  const MethodConfig& config) {
  if (name == "TPA") {
    TpaOptions options;
    options.restart_probability = config.restart_probability;
    options.tolerance = config.tolerance;
    options.family_window = config.tpa_family_window;
    options.stranger_start = config.tpa_stranger_start;
    options.preprocess_threads = config.tpa_preprocess_threads;
    return std::unique_ptr<RwrMethod>(new TpaMethod(options));
  }
  if (name == "BEAR-APPROX") {
    BearOptions options;
    options.restart_probability = config.restart_probability;
    return std::unique_ptr<RwrMethod>(new BearApprox(options));
  }
  if (name == "NB-LIN") {
    NbLinOptions options;
    options.restart_probability = config.restart_probability;
    return std::unique_ptr<RwrMethod>(new NbLin(options));
  }
  if (name == "BRPPR") {
    BrpprOptions options;
    options.restart_probability = config.restart_probability;
    options.tolerance = config.tolerance;
    return std::unique_ptr<RwrMethod>(new Brppr(options));
  }
  if (name == "FORA") {
    ForaOptions options;
    options.restart_probability = config.restart_probability;
    return std::unique_ptr<RwrMethod>(new Fora(options));
  }
  if (name == "HubPPR") {
    HubPprOptions options;
    options.restart_probability = config.restart_probability;
    return std::unique_ptr<RwrMethod>(new HubPpr(options));
  }
  if (name == "BePI") {
    BepiOptions options;
    options.restart_probability = config.restart_probability;
    options.gmres_tolerance = config.tolerance;
    return std::unique_ptr<RwrMethod>(new Bepi(options));
  }
  if (name == "PowerIteration") {
    CpiOptions options;
    options.restart_probability = config.restart_probability;
    options.tolerance = config.tolerance;
    return std::unique_ptr<RwrMethod>(new PowerIterationRwr(options));
  }
  return NotFoundError("unknown method: " + std::string(name));
}

std::vector<std::string_view> PreprocessingMethodNames() {
  return {"TPA", "BEAR-APPROX", "NB-LIN", "HubPPR", "FORA"};
}

std::vector<std::string_view> ApproximateMethodNames() {
  return {"TPA", "BRPPR", "BEAR-APPROX", "NB-LIN", "HubPPR", "FORA"};
}

}  // namespace tpa
