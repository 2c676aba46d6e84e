// Direct edge-case coverage for Log2Histogram and compareHistograms — the
// metric every agreement gate in this repo rides on.
#include <gtest/gtest.h>

#include "support/histogram.hpp"

namespace gcr {
namespace {

TEST(Log2Histogram, BinBoundaries) {
  EXPECT_EQ(Log2Histogram::binOf(0), 0);
  EXPECT_EQ(Log2Histogram::binOf(1), 1);
  EXPECT_EQ(Log2Histogram::binOf(2), 2);
  EXPECT_EQ(Log2Histogram::binOf(3), 2);
  EXPECT_EQ(Log2Histogram::binOf(4), 3);
  EXPECT_EQ(Log2Histogram::binOf((1ull << 40) - 1), 40);
  EXPECT_EQ(Log2Histogram::binOf(1ull << 40), 41);
  EXPECT_EQ(Log2Histogram::binLow(0), 0u);
  EXPECT_EQ(Log2Histogram::binLow(1), 1u);
  EXPECT_EQ(Log2Histogram::binLow(3), 4u);
  // binOf/binLow are mutually consistent on every bin edge.
  for (int b = 1; b < 50; ++b) {
    EXPECT_EQ(Log2Histogram::binOf(Log2Histogram::binLow(b)), b);
    EXPECT_EQ(Log2Histogram::binOf(Log2Histogram::binLow(b + 1) - 1), b);
  }
}

TEST(Log2Histogram, ColdAndCountAtLeast) {
  Log2Histogram h;
  h.add(Log2Histogram::kCold, 3);
  h.add(0, 2);
  h.add(5, 4);
  h.add(1000, 1);
  EXPECT_EQ(h.coldCount(), 3u);
  EXPECT_EQ(h.totalFinite(), 7u);
  EXPECT_EQ(h.countAtLeast(0), 7u);
  // countAtLeast works on bin granularity: threshold 4 covers bin 3 up.
  EXPECT_EQ(h.countAtLeast(4), 5u);
  EXPECT_EQ(h.countAtLeast(1 << 20), 0u);  // cold excluded
}

TEST(Log2Histogram, MergeAccumulates) {
  Log2Histogram a, b;
  a.add(2, 1);
  a.add(Log2Histogram::kCold, 1);
  b.add(2, 2);
  b.add(1 << 10, 5);
  a.merge(b);
  EXPECT_EQ(a.binCount(Log2Histogram::binOf(2)), 3u);
  EXPECT_EQ(a.binCount(Log2Histogram::binOf(1 << 10)), 5u);
  EXPECT_EQ(a.coldCount(), 1u);
  EXPECT_EQ(a.totalFinite(), 8u);
}

TEST(CompareHistograms, EmptyVsEmptyIsPerfectAgreement) {
  const ProfileComparison c = compareHistograms({}, {});
  EXPECT_EQ(c.avgCdfError, 0.0);
  EXPECT_EQ(c.maxCdfError, 0.0);
}

TEST(CompareHistograms, EmptyVsMassIsTotalDisagreement) {
  Log2Histogram m;
  m.add(64, 10);
  const ProfileComparison c1 = compareHistograms({}, m);
  EXPECT_EQ(c1.maxCdfError, 1.0);
  const ProfileComparison c2 = compareHistograms(m, {});
  EXPECT_EQ(c2.maxCdfError, 1.0);
}

TEST(CompareHistograms, IdenticalSingleBinIsZeroError) {
  Log2Histogram a, b;
  a.add(100, 7);
  b.add(100, 7);
  const ProfileComparison c = compareHistograms(a, b);
  EXPECT_EQ(c.avgCdfError, 0.0);
  EXPECT_EQ(c.maxCdfError, 0.0);
  // Scale invariance: the CDF comparison normalizes mass.
  Log2Histogram b10;
  b10.add(100, 70);
  const ProfileComparison cs = compareHistograms(a, b10);
  EXPECT_EQ(cs.avgCdfError, 0.0);
}

TEST(CompareHistograms, DisjointSingleBinsAreMaximallyApart) {
  Log2Histogram lo, hi;
  lo.add(2, 5);        // bin 2
  hi.add(1 << 20, 5);  // bin 21
  const ProfileComparison c = compareHistograms(lo, hi);
  EXPECT_EQ(c.maxCdfError, 1.0);
  EXPECT_GT(c.avgCdfError, 0.5);  // the gap dominates the occupied range
}

TEST(CompareHistograms, MismatchedBinRangesCoverTheUnion) {
  // One histogram occupies bins the other does not; the comparison must
  // walk the union of occupied ranges, not either one's own range.
  Log2Histogram a, b;
  a.add(1, 10);             // bin 1 only
  b.add(1, 9);
  b.add(1ull << 30, 1);     // plus a far tail
  const ProfileComparison c = compareHistograms(a, b);
  EXPECT_GT(c.bins, 25);    // union span, not a's single bin
  EXPECT_GT(c.maxCdfError, 0.05);
  EXPECT_LT(c.maxCdfError, 0.15);  // 10% of b's mass sits in the tail
}

TEST(CompareHistograms, ColdMassDoesNotAffectCdf) {
  Log2Histogram a, b;
  a.add(8, 4);
  b.add(8, 4);
  b.add(Log2Histogram::kCold, 1000);
  const ProfileComparison c = compareHistograms(a, b);
  EXPECT_EQ(c.avgCdfError, 0.0);
}

}  // namespace
}  // namespace gcr
