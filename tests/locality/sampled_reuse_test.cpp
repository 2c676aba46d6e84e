// Differential tests pinning the sampled reuse-distance tracker to the
// exact one: at rate 1 the two are bit-identical; at rate >= 1/64 the
// sampled missFractionAtCapacity must sit within 5% absolute of the exact
// value, on synthetic traces and on randomProgram pipelines alike.
#include "locality/sampled_reuse.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "apps/registry.hpp"
#include "driver/measure.hpp"
#include "common/random_program.hpp"
#include "support/prng.hpp"

namespace gcr {
namespace {

constexpr double kRate64 = 1.0 / 64.0;
constexpr double kBound = 0.05;  // 5% absolute, per the acceptance criterion

// A trace with layered locality: repeated scans over nested working sets
// plus a uniform-random component, so the reuse-distance histogram has mass
// both below and above the capacities we probe.
std::vector<std::int64_t> layeredTrace(std::uint64_t seed, std::size_t len,
                                       std::int64_t span) {
  SplitMix64 rng(seed);
  std::vector<std::int64_t> trace;
  trace.reserve(len);
  while (trace.size() < len) {
    switch (rng.nextBelow(3)) {
      case 0: {  // sequential scan of a random subrange
        const std::int64_t base = rng.nextInRange(0, span / 2);
        const std::int64_t w = rng.nextInRange(64, span / 4);
        for (std::int64_t i = 0; i < w && trace.size() < len; ++i)
          trace.push_back(base + i);
        break;
      }
      case 1: {  // tight loop over a small hot set
        const std::int64_t base = rng.nextInRange(0, span - 40);
        for (int rep = 0; rep < 6; ++rep)
          for (std::int64_t i = 0; i < 32 && trace.size() < len; ++i)
            trace.push_back(base + i);
        break;
      }
      default:  // uniform random
        for (int i = 0; i < 128 && trace.size() < len; ++i)
          trace.push_back(rng.nextInRange(0, span - 1));
    }
  }
  return trace;
}

TEST(SampledReuse, Rate1IsBitIdenticalPerAccess) {
  SplitMix64 rng(99);
  ReuseDistanceTracker exact;
  SampledReuseTracker sampled(1.0);
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t addr = rng.nextInRange(0, 300);
    ASSERT_EQ(sampled.access(addr), exact.access(addr)) << "access " << i;
  }
  EXPECT_EQ(sampled.sampledAccesses(), exact.accesses());
  EXPECT_EQ(sampled.distinctSampled(), exact.distinctData());
}

TEST(SampledReuse, Rate1ProfileEqualsExactProfile) {
  const std::vector<std::int64_t> trace = layeredTrace(7, 20000, 4096);
  const ReuseProfile exact = profileAddresses(trace);
  const ReuseProfile sampled = profileAddresses(trace, 1, 1.0);
  EXPECT_EQ(sampled.histogram.toCsv(), exact.histogram.toCsv());
  EXPECT_EQ(sampled.histogram.coldCount(), exact.histogram.coldCount());
  EXPECT_EQ(sampled.accesses, exact.accesses);
  EXPECT_EQ(sampled.distinctData, exact.distinctData);
}

TEST(SampledReuse, WithinBoundOnLayeredTraces) {
  // Spatial sampling at rate R resolves capacities well above 1/R: probe
  // caps >= 16/R over a span wide enough to sample ~1000 distinct data.
  for (std::uint64_t seed : {11u, 23u, 42u}) {
    const std::vector<std::int64_t> trace = layeredTrace(seed, 400000, 65536);
    const ReuseProfile exact = profileAddresses(trace);
    const ReuseProfile sampled = profileAddresses(trace, 1, kRate64);
    for (std::uint64_t cap : {1024ull, 8192ull, 65536ull}) {
      const double e = exact.missFractionAtCapacity(cap);
      const double s = sampled.missFractionAtCapacity(cap);
      EXPECT_NEAR(s, e, kBound) << "seed " << seed << " cap " << cap;
    }
  }
}

TEST(SampledReuse, WithinBoundAtCoarserRates) {
  // Rates above 1/64 must only get more accurate.
  const std::vector<std::int64_t> trace = layeredTrace(5, 150000, 8192);
  const ReuseProfile exact = profileAddresses(trace);
  for (double rate : {1.0 / 32.0, 1.0 / 16.0, 1.0 / 4.0}) {
    const ReuseProfile sampled = profileAddresses(trace, 1, rate);
    for (std::uint64_t cap : {64ull, 1024ull, 8192ull}) {
      EXPECT_NEAR(sampled.missFractionAtCapacity(cap),
                  exact.missFractionAtCapacity(cap), kBound)
          << "rate " << rate << " cap " << cap;
    }
  }
}

TEST(SampledReuse, WithinBoundOnRandomProgramPipelines) {
  // End-to-end through reuseProfileOf() on random programs.  n is grown per
  // seed until the program touches >= 64K distinct elements, so rate 1/64
  // samples ~1000 distinct data — enough for the histogram *shape* (which
  // missFractionAtCapacity normalizes by) to stabilize.  Accuracy is judged
  // the way the sampling literature does: mean absolute error across the
  // whole miss-ratio curve, plus a pointwise check at well-resolved caps.
  testing::RandomProgramOptions opts;
  opts.allowTwoDim = true;
  opts.allowReversed = true;
  for (std::uint64_t seed : {3u, 17u, 29u}) {
    Program p = testing::randomProgram(seed, opts);
    ProgramVersion v = makeVersion(p, Strategy::NoOpt);
    std::int64_t n = 256;
    while (n < 16384 &&
           v.layoutAt(n).totalBytes() / 8 < std::int64_t{64} * 1024)
      n *= 2;
    const ReuseProfile exact = reuseProfileOf(v, n);
    const ReuseProfile sampled =
        reuseProfileOf(v, n, 1, kRate64);
    EXPECT_EQ(sampled.accesses, exact.accesses);  // all refs are observed

    double sumErr = 0.0;
    int caps = 0;
    for (std::uint64_t cap = 1024; cap <= 4 * exact.distinctData; cap *= 2) {
      sumErr += std::abs(sampled.missFractionAtCapacity(cap) -
                         exact.missFractionAtCapacity(cap));
      ++caps;
    }
    ASSERT_GT(caps, 0) << "seed " << seed;
    EXPECT_LT(sumErr / caps, kBound) << "seed " << seed << " n " << n;

    // Far above the data-set size, both curves must agree pointwise: no
    // sampled distance can overshoot that far.
    const std::uint64_t big = 8 * exact.distinctData;
    EXPECT_NEAR(sampled.missFractionAtCapacity(big),
                exact.missFractionAtCapacity(big), kBound)
        << "seed " << seed;
  }
}

TEST(SampledReuse, RealAppProfileWithinBound) {
  // The tentpole use case: paper-app reuse profiles at rate 1/64.
  for (const char* app : {"ADI", "Swim"}) {
    Program prog = apps::buildApp(app);
    ProgramVersion v = makeVersion(prog, Strategy::NoOpt);
    const std::int64_t n = 128;
    const ReuseProfile exact = reuseProfileOf(v, n);
    const ReuseProfile sampled =
        reuseProfileOf(v, n, 1, kRate64);
    for (std::uint64_t cap : {1024ull, 8192ull, 65536ull}) {
      EXPECT_NEAR(sampled.missFractionAtCapacity(cap),
                  exact.missFractionAtCapacity(cap), kBound)
          << app << " cap " << cap;
    }
  }
}

TEST(SampledReuse, ScaledDistancesLandInScaledBins) {
  // A two-pass scan over M items has all pass-2 reuses at distance M-1.
  // Sampling measures ~rate*(M-1) among sampled data and scales back: the
  // estimates must cluster near M, i.e. within one log2 bin of the truth.
  constexpr std::int64_t kM = 1 << 14;
  std::vector<std::int64_t> trace;
  for (int pass = 0; pass < 2; ++pass)
    for (std::int64_t i = 0; i < kM; ++i) trace.push_back(i);
  const ReuseProfile sampled = profileAddresses(trace, 1, kRate64);
  const int trueBin = Log2Histogram::binOf(kM - 1);
  std::uint64_t near = 0, far = 0;
  for (int b = 0; b <= Log2Histogram::kMaxBin; ++b) {
    if (std::abs(b - trueBin) <= 1)
      near += sampled.histogram.binCount(b);
    else
      far += sampled.histogram.binCount(b);
  }
  EXPECT_GT(near, 0u);
  EXPECT_LT(static_cast<double>(far),
            0.05 * static_cast<double>(near + far));
}

}  // namespace
}  // namespace gcr
