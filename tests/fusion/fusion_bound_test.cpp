// The paper's reuse-distance bound (Section 2.3): after maximal fusion with
// minimal alignment, "the upper bound on the distance of reuse is k*m*a,
// which is independent of array sizes or data inputs", where k is the loop
// count, m the per-iteration data, a the array count — and the bound is
// asymptotically tight via the chain  B=A(i+1); B=B(i+1) x(k-2); A=B(i).
#include <gtest/gtest.h>

#include "common/random_program.hpp"
#include "fusion/fusion.hpp"
#include "interp/interp.hpp"
#include "ir/builder.hpp"
#include "locality/sampled_reuse.hpp"

namespace gcr {
namespace {

std::uint64_t maxReuseDistance(const Program& p, std::int64_t n) {
  DataLayout l = contiguousLayout(p, n);
  ReuseDistanceSink sink(8);
  trace(p, l, {.n = n}, sink);
  const ReuseProfile prof = sink.profile();
  const int top = prof.histogram.highestNonEmptyBin();
  return top < 0 ? 0 : (std::uint64_t{1} << top);  // bin upper edge
}

// The paper's worst case: k loops whose only reuse chain forces an
// alignment of one iteration per loop, so the A-reuse distance grows
// linearly with k but never with N.
Program chainProgram(int k) {
  ProgramBuilder b("chain" + std::to_string(k));
  const AffineN n = AffineN::N();
  ArrayId a = b.array("A", {n + AffineN(2)});
  ArrayId bb = b.array("B", {n + AffineN(2)});
  b.loop("i", 1, n, [&](IxVar i) {
    b.assign(b.ref(bb, {i}), {b.ref(a, {i + 1})});
  });
  for (int mid = 0; mid < k - 2; ++mid)
    b.loop("i", 1, n, [&](IxVar i) {
      b.assign(b.ref(bb, {i}), {b.ref(bb, {i + 1})});
    });
  b.loop("i", 1, n, [&](IxVar i) { b.assign(b.ref(a, {i}), {b.ref(bb, {i})}); });
  return b.take();
}

TEST(FusionBound, WorstCaseChainFusesWithBoundedDistance) {
  for (int k : {3, 5, 8}) {
    Program p = chainProgram(k);
    FusionReport report;
    Program fused = fuseProgram(p, {}, &report);
    EXPECT_EQ(report.fusions, k - 1) << "k=" << k;

    // Distance bounded and independent of N...
    const std::uint64_t d64 = maxReuseDistance(fused, 64);
    const std::uint64_t d512 = maxReuseDistance(fused, 512);
    EXPECT_EQ(d64, d512) << "k=" << k;
    // ...but the unfused program's distance grows with N.
    EXPECT_GT(maxReuseDistance(p, 512), maxReuseDistance(p, 64));
  }
}

TEST(FusionBound, DistanceGrowsWithChainLengthNotInput) {
  // The tightness direction: longer chains -> larger (constant) distance.
  const std::uint64_t d3 = maxReuseDistance(fuseProgram(chainProgram(3)), 256);
  const std::uint64_t d8 = maxReuseDistance(fuseProgram(chainProgram(8)), 256);
  EXPECT_GT(d8, d3);
  EXPECT_LT(d8, 256u);  // far below anything input-dependent
}

std::uint64_t longReuses(const Program& p, std::int64_t n,
                         std::uint64_t threshold) {
  DataLayout l = contiguousLayout(p, n);
  ReuseDistanceSink sink(8);
  trace(p, l, {.n = n}, sink);
  return sink.profile().histogram.countAtLeast(threshold);
}

class FusionBoundProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FusionBoundProperty, FusionNeverAddsLongDistanceReuses) {
  // Random programs may contain genuinely infusible parts whose distances
  // keep growing (that is correct behavior); the invariant is that fusion
  // never *increases* the number of capacity-busting reuses.
  Program p = testing::randomProgram(GetParam() * 7 + 1);
  Program fused = fuseProgram(p);
  for (std::int64_t n : {128, 512}) {
    EXPECT_LE(longReuses(fused, n, 256), longReuses(p, n, 256))
        << "seed " << GetParam() << " n " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusionBoundProperty,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace gcr
