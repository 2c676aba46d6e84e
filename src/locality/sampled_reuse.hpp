// Sampled reuse-distance analysis (SHARDS-style spatial hash sampling), and
// the one InstrSink adapter that builds a ReuseProfile at any sampling rate.
//
// Exact tracking pays for every access and holds state per distinct datum.
// Spatial sampling cuts both: a datum is *sampled* iff a hash of its address
// falls under a threshold T_R = R * 2^64, so a rate-R tracker monitors an
// unbiased ~R fraction of all data and only pays for accesses to those.
// Because the sampled data are a uniform random subset of all data, the
// number of distinct *sampled* data between two accesses to a sampled datum
// is ~R times the true reuse distance; scaling the measured distance by 1/R
// gives an unbiased estimate, and scaling each histogram count by 1/R
// estimates the full histogram (cf. Waldspurger et al., "SHARDS", and the
// reuse-distance sampling literature referenced in PAPERS.md).
//
// At rate 1 the hash filter and both scalings are identity: the tracker is
// bit-for-bit the exact ReuseDistanceTracker, which the differential tests
// in tests/locality/sampled_reuse_test.cpp pin down.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "interp/trace.hpp"
#include "locality/reuse_distance.hpp"
#include "support/prng.hpp"

namespace gcr {

class SampledReuseTracker {
 public:
  static constexpr std::uint64_t kCold = Log2Histogram::kCold;
  /// Returned for accesses to data outside the sample; distinct from every
  /// finite distance and from kCold.
  static constexpr std::uint64_t kNotSampled = kCold - 1;

  /// rate is clamped to (0, 1]; 1.0 (the default) is exact tracking.
  explicit SampledReuseTracker(double rate = 1.0);

  /// Process one access.  Returns the *scaled* reuse distance (measured
  /// distance times 1/rate), kCold for the first access to a sampled datum,
  /// or kNotSampled for data outside the sample.
  std::uint64_t access(std::int64_t addr) {
    ++accesses_;
    if (!isSampled(addr)) return kNotSampled;
    const std::uint64_t d = exact_.access(addr);
    if (exact_mode_ || d == kCold) return d;
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(d) * inverseRate_));
  }

  bool isSampled(std::int64_t addr) const {
    return exact_mode_ || mix64(static_cast<std::uint64_t>(addr)) < threshold_;
  }

  double rate() const { return rate_; }
  /// Histogram weight of one sampled access: round(1/rate).
  std::uint64_t countScale() const { return countScale_; }

  std::uint64_t accesses() const { return accesses_; }  ///< all, sampled or not
  std::uint64_t sampledAccesses() const { return exact_.accesses(); }
  std::uint64_t distinctSampled() const { return exact_.distinctData(); }

  /// ReuseDistanceTracker::reserve: index [0, elementRange) densely (the
  /// whole range — the sampled keys are spread over all of it).
  void reserve(std::uint64_t expectedAccesses,
               std::uint64_t elementRange = 0) {
    exact_.reserve(expectedAccesses, elementRange);
  }

 private:
  double rate_;
  double inverseRate_;
  std::uint64_t threshold_;   // sampled iff mix64(addr) < threshold_
  bool exact_mode_;
  std::uint64_t countScale_;
  std::uint64_t accesses_ = 0;
  ReuseDistanceTracker exact_;  // over the sampled data only
};

/// InstrSink adapter: flattens instructions (reads in order, then the write)
/// through a SampledReuseTracker and builds a ReuseProfile.  Addresses are
/// divided by `granularity` (pass the element size to measure element-level
/// reuse, a cache-line size to measure block-level reuse).  At rate 1 (the
/// default) the profile is exact; below it, distances and histogram counts
/// are scaled by 1/rate, `accesses` is the true total and `distinctData`
/// the scaled estimate.
class ReuseDistanceSink final : public InstrSink {
 public:
  explicit ReuseDistanceSink(std::int64_t granularity = 8, double rate = 1.0);

  void onInstr(int stmtId, std::span<const std::int64_t> reads,
               std::int64_t write) override;
  void onBlock(const InstrBlock& b) override;

  /// Index the keys of the data footprint [0, dataBytes) densely — pass the
  /// layout's totalBytes().  Call before the first instruction.
  void reserve(std::uint64_t dataBytes);

  /// The profile of the accesses so far: at the end of a run, or at a
  /// time-step boundary with more to come.
  ReuseProfile profile() const;

 private:
  void touch(std::int64_t addr) {
    const std::uint64_t d = tracker_.access(addr / granularity_);
    if (d != SampledReuseTracker::kNotSampled)
      histogram_.add(d, tracker_.countScale());
  }

  std::int64_t granularity_;
  SampledReuseTracker tracker_;
  Log2Histogram histogram_;
};

/// Run a trace (already flattened to addresses) through the sink's tracker
/// and build a profile; convenience for tests and the reuse-driven-execution
/// study.
ReuseProfile profileAddresses(const std::vector<std::int64_t>& addrs,
                              std::int64_t granularity = 1,
                              double rate = 1.0);

}  // namespace gcr
