// The referee's Fenwick tree (tests/locality/tracker_referee.hpp).
#include <gtest/gtest.h>

#include "locality/tracker_referee.hpp"
#include "support/prng.hpp"

namespace gcr {
namespace {

using testing::FenwickTree;

TEST(Fenwick, BasicAddAndPrefix) {
  FenwickTree t;
  t.add(3, 1);
  t.add(7, 1);
  EXPECT_EQ(t.prefixSum(2), 0);
  EXPECT_EQ(t.prefixSum(3), 1);
  EXPECT_EQ(t.prefixSum(7), 2);
  EXPECT_EQ(t.prefixSum(1000000), 2);  // beyond capacity saturates
}

TEST(Fenwick, RangeSum) {
  FenwickTree t;
  for (std::uint64_t i = 0; i < 10; ++i) t.add(i, 1);
  EXPECT_EQ(t.rangeSum(2, 5), 4);
  EXPECT_EQ(t.rangeSum(0, 9), 10);
  EXPECT_EQ(t.rangeSum(5, 4), 0);  // empty range
}

TEST(Fenwick, RemoveMarks) {
  FenwickTree t;
  t.add(4, 1);
  t.add(4, -1);
  EXPECT_EQ(t.prefixSum(10), 0);
}

TEST(Fenwick, GrowthPreservesMarks) {
  FenwickTree t;
  t.add(10, 1);
  t.add(100000, 1);  // triggers growth
  EXPECT_EQ(t.prefixSum(10), 1);
  EXPECT_EQ(t.prefixSum(100000), 2);
}

TEST(Fenwick, MatchesNaiveUnderRandomOps) {
  FenwickTree t;
  std::vector<int> naive(2000, 0);
  SplitMix64 rng(3);
  for (int op = 0; op < 5000; ++op) {
    const auto i = static_cast<std::uint64_t>(rng.nextBelow(2000));
    if (naive[i] == 0) {
      t.add(i, 1);
      naive[i] = 1;
    } else {
      t.add(i, -1);
      naive[i] = 0;
    }
    if (op % 100 == 0) {
      const auto lo = static_cast<std::uint64_t>(rng.nextBelow(2000));
      const auto hi = lo + rng.nextBelow(2000 - lo);
      std::int64_t expect = 0;
      for (std::uint64_t k = lo; k <= hi; ++k) expect += naive[k];
      EXPECT_EQ(t.rangeSum(lo, hi), expect);
    }
  }
}

}  // namespace
}  // namespace gcr
