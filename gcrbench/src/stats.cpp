#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace gcrbench {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(i, v.size() - 1)];
}

std::string describeTiming(const std::vector<double>& v, double scale,
                           const char* unit) {
  char buf[160];
  const double tails[] = {99.9, 99.0, 95.0, 90.0, 75.0};
  double tail = -1;
  for (double p : tails)
    if (static_cast<double>(v.size()) * (100.0 - p) / 100.0 >= 10.0) {
      tail = p;
      break;
    }
  if (tail < 0)
    std::snprintf(buf, sizeof buf, "median %.4g %s, max %.4g %s (n=%zu)",
                  median(v) * scale, unit,
                  percentile(v, 100.0) * scale, unit, v.size());
  else
    std::snprintf(buf, sizeof buf, "median %.4g %s, p%g %.4g %s (n=%zu)",
                  median(v) * scale, unit, tail, percentile(v, tail) * scale,
                  unit, v.size());
  return buf;
}

double selfPeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

void RunResult::print() const {
  for (const Metric& m : metrics)
    std::printf("metric %-40s = %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  const bool correct = failed == 0 && selfChecksOk && attempted > 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace gcrbench
