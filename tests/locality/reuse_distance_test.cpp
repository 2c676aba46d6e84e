#include "locality/reuse_distance.hpp"

#include <gtest/gtest.h>

#include "locality/sampled_reuse.hpp"
#include "locality/tracker_referee.hpp"
#include "support/prng.hpp"

namespace gcr {
namespace {

using testing::naiveReuseDistances;

TEST(ReuseDistance, PaperFigure1Example) {
  // Figure 1(a): sequence a b c a a c b a with distances 2, 0, 1, 2 on the
  // reuses of a, a, c, b, a... the paper annotates rd=2 (a..a), rd=0 (a a),
  // rd=1 (c..c), rd=2 (b..b) — verify each reuse.
  ReuseDistanceTracker t;
  const std::int64_t a = 1, b = 2, c = 3;
  EXPECT_EQ(t.access(a), ReuseDistanceTracker::kCold);
  EXPECT_EQ(t.access(b), ReuseDistanceTracker::kCold);
  EXPECT_EQ(t.access(c), ReuseDistanceTracker::kCold);
  EXPECT_EQ(t.access(a), 2u);  // b, c in between
  EXPECT_EQ(t.access(a), 0u);  // immediate reuse
  EXPECT_EQ(t.access(c), 1u);  // a in between
  EXPECT_EQ(t.access(b), 2u);  // c, a in between
  EXPECT_EQ(t.access(a), 2u);  // c, b in between
  EXPECT_EQ(t.distinctData(), 3u);
  EXPECT_EQ(t.accesses(), 8u);
}

TEST(ReuseDistance, PaperFigure1FusedAllZero) {
  // Figure 1(b): a a a b b c c — after fusion all reuse distances are zero.
  ReuseDistanceTracker t;
  std::vector<std::int64_t> seq{1, 1, 1, 2, 2, 3, 3};
  std::uint64_t zeroReuses = 0;
  for (std::int64_t x : seq) {
    const auto d = t.access(x);
    if (d != ReuseDistanceTracker::kCold) {
      EXPECT_EQ(d, 0u);
      ++zeroReuses;
    }
  }
  EXPECT_EQ(zeroReuses, 4u);
}

TEST(ReuseDistance, MatchesNaiveOnRandomTraces) {
  SplitMix64 rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::int64_t> trace;
    const int len = 200 + static_cast<int>(rng.nextBelow(300));
    for (int i = 0; i < len; ++i)
      trace.push_back(rng.nextInRange(0, 40));
    const auto expected = naiveReuseDistances(trace);
    ReuseDistanceTracker t;
    for (std::size_t i = 0; i < trace.size(); ++i)
      EXPECT_EQ(t.access(trace[i]), expected[i]) << "trial " << trial
                                                 << " pos " << i;
  }
}

// Differential check of the streaming tracker against the O(T*D) reference
// on a trace chosen to stress one structural extreme.
void expectMatchesNaive(const std::vector<std::int64_t>& trace,
                        const char* what) {
  const auto expected = naiveReuseDistances(trace);
  ReuseDistanceTracker t;
  t.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i)
    ASSERT_EQ(t.access(trace[i]), expected[i]) << what << " pos " << i;
}

TEST(ReuseDistance, AdversarialAllSameAddress) {
  // Every access after the first reuses at distance 0; the tracker holds
  // exactly one live mark the whole time, and compacts it again and again.
  expectMatchesNaive(std::vector<std::int64_t>(500, 7), "all-same");
}

TEST(ReuseDistance, AdversarialAllDistinct) {
  // No reuse at all: the mark count grows monotonically to the trace
  // length (the worst case for the slots' grow/compact path).
  std::vector<std::int64_t> trace;
  for (std::int64_t i = 0; i < 600; ++i) trace.push_back(i * 3 - 100);
  expectMatchesNaive(trace, "all-distinct");
}

TEST(ReuseDistance, AdversarialSawTooth) {
  // 0..k up then k..0 down, repeatedly: every element's reuse distance
  // oscillates between 0 (at the turning points) and its depth in the
  // tooth — dense coverage of mark add/remove interleavings.
  std::vector<std::int64_t> trace;
  constexpr std::int64_t kTooth = 47;
  for (int rep = 0; rep < 6; ++rep) {
    for (std::int64_t i = 0; i <= kTooth; ++i) trace.push_back(i);
    for (std::int64_t i = kTooth; i >= 0; --i) trace.push_back(i);
  }
  expectMatchesNaive(trace, "saw-tooth");
}

TEST(ReuseDistance, SequentialScanHasNoFiniteReuse) {
  ReuseDistanceTracker t;
  for (std::int64_t i = 0; i < 1000; ++i)
    EXPECT_EQ(t.access(i), ReuseDistanceTracker::kCold);
}

TEST(ReuseDistance, RepeatedScanDistanceEqualsWorkingSet) {
  // Scanning M items twice: every reuse in pass 2 has distance M-1.
  constexpr std::int64_t kM = 257;
  ReuseDistanceTracker t;
  for (std::int64_t i = 0; i < kM; ++i) t.access(i);
  for (std::int64_t i = 0; i < kM; ++i)
    EXPECT_EQ(t.access(i), static_cast<std::uint64_t>(kM - 1));
}

TEST(ReuseProfile, MissFractionAtCapacity) {
  // 257-element working set scanned twice: all reuses have distance 256, so
  // they miss below capacity 257 and hit at or above 512 (bin granularity
  // rounds the threshold).
  std::vector<std::int64_t> trace;
  for (int pass = 0; pass < 2; ++pass)
    for (std::int64_t i = 0; i < 257; ++i) trace.push_back(i);
  ReuseProfile prof = profileAddresses(trace);
  EXPECT_DOUBLE_EQ(prof.missFractionAtCapacity(64), 1.0);
  EXPECT_DOUBLE_EQ(prof.missFractionAtCapacity(1024), 0.0);
}

TEST(ReuseDistanceSink, GranularityGroupsNeighbors) {
  // With 32-byte granularity, consecutive 8-byte elements in one block are
  // the same "datum" — the tracker sees block-level reuse.
  ReuseDistanceSink sink(32);
  const std::int64_t reads[] = {0, 8, 16, 24};
  sink.onInstr(0, reads, 32);
  ReuseProfile prof = sink.profile();
  // Accesses: blocks 0,0,0,0,1 → three reuses at distance 0, two cold.
  EXPECT_EQ(prof.histogram.binCount(0), 3u);
  EXPECT_EQ(prof.histogram.coldCount(), 2u);
}

}  // namespace
}  // namespace gcr
