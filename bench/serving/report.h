#ifndef TPA_BENCH_SERVING_REPORT_H_
#define TPA_BENCH_SERVING_REPORT_H_

/// Summary statistics, result digests and the metric table of the serving
/// benchmark.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "la/topk.h"

namespace tpa::bench {

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  const size_t index = std::clamp<size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

/// FNV-1a over raw bytes: two results digest equal iff (up to a 2^-64
/// collision) they are bitwise equal, so the benchmark can drop a result
/// right after serving it and still compare it with a direct call later.
inline uint64_t Digest(const void* data, size_t bytes,
                       uint64_t hash = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash = (hash ^ p[i]) * 0x100000001b3ull;
  }
  return hash;
}

template <typename V>
uint64_t Digest(const std::vector<V>& values) {
  return Digest(values.data(), values.size() * sizeof(V));
}

inline uint64_t Digest(const std::vector<ScoredNode>& top) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const ScoredNode& entry : top) {
    hash = Digest(&entry.node, sizeof(entry.node), hash);
    hash = Digest(&entry.score, sizeof(entry.score), hash);
  }
  return hash;
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Metrics by name, printed in name order.
using Metrics = std::map<std::string, Metric>;

/// JSON object body {"name": {"value": v, "unit": "u"}, ...} with every
/// digit of each value.  Non-finite values are written as null, which the
/// runner rejects.
inline void WriteMetricsJson(std::FILE* out, const Metrics& metrics,
                             const char* indent) {
  std::fprintf(out, "{");
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::fprintf(out, "%s\n%s  \"%s\": {\"value\": ", first ? "" : ",",
                 indent, name.c_str());
    if (std::isfinite(metric.value)) {
      std::fprintf(out, "%.17g", metric.value);
    } else {
      std::fprintf(out, "null");
    }
    std::fprintf(out, ", \"unit\": \"%s\"}", metric.unit.c_str());
    first = false;
  }
  std::fprintf(out, "\n%s}", indent);
}

}  // namespace tpa::bench

#endif  // TPA_BENCH_SERVING_REPORT_H_
