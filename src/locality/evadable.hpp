// Evadable-reuse classification (Section 2.1/2.2 of the paper).
//
// "We call those reuses whose reuse distance increases with the input size
// evadable reuses" — they become cache misses once the input is large enough,
// no matter the cache size.
//
// Operational definition used here: group dynamic reuses by the (source
// statement, destination statement) pair — the statement that last touched
// the datum and the statement reusing it.  Run the program at two input
// sizes.  A pair class is *evadable* when its mean reuse distance grows by
// more than a threshold factor as the input grows; the evadable-reuse count
// of a run is the number of reuses belonging to evadable classes.
#pragma once

#include <cstdint>

#include "interp/trace.hpp"
#include "locality/reuse_distance.hpp"
#include "support/flat_map.hpp"
#include "support/histogram.hpp"

namespace gcr {

struct ReusePairStats {
  std::uint64_t count = 0;
  double sumDistance = 0.0;

  double mean() const {
    return count ? sumDistance / static_cast<double>(count) : 0.0;
  }
};

/// Collects per-(producer stmt, consumer stmt) reuse-distance statistics plus
/// the overall histogram: a ReuseDistanceTracker for the distances, and a
/// per-datum table of the statement that last touched each datum.  Stmt ids
/// identify the statement performing each access; for reordered traces feed
/// accesses via accessFrom().
class PairwiseReuseCollector final : public InstrSink {
 public:
  explicit PairwiseReuseCollector(std::int64_t granularity = 8);

  void onInstr(int stmtId, std::span<const std::int64_t> reads,
               std::int64_t write) override;
  void onBlock(const InstrBlock& b) override;

  /// Feed one access outside instruction context (for reordered traces).
  void accessFrom(int stmtId, std::int64_t addr);

  /// Index the data footprint [0, expectedDistinctBytes) densely, as
  /// ReuseDistanceTracker::reserve does; `expectedAccesses` is ignored.
  /// Call before the first access.
  void reserve(std::uint64_t expectedAccesses,
               std::uint64_t expectedDistinctBytes = 0);

  const FlatMap64<ReusePairStats>& pairs() const { return pairs_; }
  const Log2Histogram& histogram() const { return histogram_; }
  std::uint64_t totalReuses() const { return totalReuses_; }
  std::uint64_t accesses() const { return tracker_.accesses(); }

 private:
  std::int64_t granularity_;
  ReuseDistanceTracker tracker_;
  ElementIndex<int> lastStmt_;  // datum -> statement of its latest access
  FlatMap64<ReusePairStats> pairs_;
  Log2Histogram histogram_;
  std::uint64_t totalReuses_ = 0;
};

struct EvadableReport {
  std::uint64_t totalReuses = 0;     ///< reuses at the larger input
  std::uint64_t evadableReuses = 0;  ///< reuses in growing classes
  double fraction() const {
    return totalReuses ? static_cast<double>(evadableReuses) /
                             static_cast<double>(totalReuses)
                       : 0.0;
  }
};

/// Compare statistics collected at a smaller and a larger input size.  A pair
/// class present in both is evadable when meanLarge > growthFactor *
/// meanSmall and meanLarge clears an absolute floor; classes appearing only
/// at the larger size are judged by the floor alone.
EvadableReport classifyEvadable(const PairwiseReuseCollector& small,
                                const PairwiseReuseCollector& large,
                                double growthFactor = 1.5,
                                double absoluteFloor = 64.0);

}  // namespace gcr
