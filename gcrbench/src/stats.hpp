// Clocks, order statistics and the result line of a benchmark run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gcrbench {

/// Monotonic seconds.
double now();

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 when
/// empty.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

/// "median X, pNN Y (n=K)": the highest of p99.9/p99/p95/p90/p75 that has at
/// least ten samples beyond it, as the report line of a timing.
std::string describeTiming(const std::vector<double>& v, double scale,
                           const char* unit);

/// Peak resident set of this process, MiB.
double selfPeakRssMb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: request accounting, self-check verdicts, metrics.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< errors, busy, transport, referee mismatches
  bool selfChecksOk = true;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Print every metric as "name = value unit", then the final JSON line.
  void print() const;
};

}  // namespace gcrbench
