// Log2-binned histograms of reuse distances, as plotted in Figure 3 of the
// paper: a point at (x, y) means y thousand references had a reuse distance
// in [2^x, 2^(x+1)).  Distance 0 (consecutive accesses to the same datum) and
// "infinite" (first access / cold) get their own bins.  compareHistograms()
// scores two such histograms by CDF agreement — the metric of every
// model-vs-referee gate in the repo.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gcr {

class Log2Histogram {
 public:
  static constexpr int kMaxBin = 63;

  /// Record one sample.  `distance` is a reuse distance; pass `kCold` for a
  /// first access.
  static constexpr std::uint64_t kCold = ~std::uint64_t{0};

  void add(std::uint64_t distance, std::uint64_t count = 1);

  /// Bin index a finite distance falls into: 0 for distance 0, otherwise
  /// 1 + floor(log2(distance)).
  static int binOf(std::uint64_t distance);

  /// Lower bound of the distance range covered by `bin`.
  static std::uint64_t binLow(int bin);

  std::uint64_t binCount(int bin) const;
  std::uint64_t coldCount() const { return cold_; }
  std::uint64_t totalFinite() const;
  int highestNonEmptyBin() const;

  /// Count of samples with distance >= `threshold` (cold misses excluded).
  std::uint64_t countAtLeast(std::uint64_t threshold) const;

  void merge(const Log2Histogram& other);

  /// Render as "bin lowEdge count" lines, for plotting / bench output.
  std::string toCsv() const;

 private:
  std::vector<std::uint64_t> bins_;  // grown on demand
  std::uint64_t cold_ = 0;
};

/// Agreement between a predicted and a measured histogram: the mean and max
/// absolute CDF difference over the occupied log2 bins (both normalized over
/// finite reuses).  0 = identical shape; 1 = all mass in disjoint tails.
struct ProfileComparison {
  double avgCdfError = 0.0;
  double maxCdfError = 0.0;
  int bins = 0;
};

ProfileComparison compareHistograms(const Log2Histogram& predicted,
                                    const Log2Histogram& measured);

}  // namespace gcr
