#include "driver/measure.hpp"

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "ir/builder.hpp"
#include "ir/stats.hpp"

namespace gcr {
namespace {

// Two scans of two large arrays: fusion halves the distance between the
// write of A[i] and its reread; regrouping makes A/B access contiguous.
Program twoScans() {
  ProgramBuilder b("scans");
  const AffineN hi = AffineN::N() - AffineN(1);
  ArrayId a = b.array("A", {AffineN::N()});
  ArrayId c = b.array("B", {AffineN::N()});
  b.loop("i", 0, hi, [&](IxVar i) { b.assign(b.ref(a, {i}), {b.ref(a, {i})}); });
  b.loop("i", 0, hi, [&](IxVar i) { b.assign(b.ref(c, {i}), {b.ref(a, {i})}); });
  return b.take();
}

TEST(Measure, CountsAndCyclesPopulated) {
  Program p = twoScans();
  Measurement m = measure(makeVersion(p, Strategy::NoOpt), 1 << 16, MachineConfig::origin2000());
  EXPECT_GT(m.counts.refs, 0u);
  EXPECT_GT(m.counts.l1Misses, 0u);
  EXPECT_GT(m.cycles, static_cast<double>(m.counts.refs));
  EXPECT_EQ(m.memoryTrafficBytes % 128, 0u);
}

TEST(Measure, FusionReducesMissesWhenDataExceedsCache) {
  // 2^21 elements * 8B * 2 arrays = 32MB >> 4MB L2: the second scan of A
  // misses everywhere without fusion.
  Program p = twoScans();
  const std::int64_t n = 1 << 21;
  const MachineConfig machine = MachineConfig::origin2000();
  Measurement noOpt = measure(makeVersion(p, Strategy::NoOpt), n, machine);
  Measurement fused = measure(makeVersion(p, Strategy::Fused), n, machine);
  EXPECT_LT(fused.counts.l2Misses, noOpt.counts.l2Misses * 3 / 4);
  EXPECT_LT(fused.cycles, noOpt.cycles);
}

TEST(Measure, ReuseProfileMatchesVersionStructure) {
  Program p = twoScans();
  const std::int64_t n = 4096;
  ReuseProfile noOpt = reuseProfileOf(makeVersion(p, Strategy::NoOpt), n);
  ReuseProfile fused = reuseProfileOf(makeVersion(p, Strategy::Fused), n);
  // Unfused: the cross-loop reuse sits at distance ~2n; fused: constant.
  EXPECT_GT(noOpt.histogram.countAtLeast(1024), 0u);
  EXPECT_EQ(fused.histogram.countAtLeast(1024), 0u);
}

TEST(Measure, SpeedupOverEmptyMeasurementIsNaN) {
  Measurement base;
  base.cycles = 100.0;
  Measurement empty;  // cycles == 0: a ratio against it has no meaning
  EXPECT_TRUE(std::isnan(empty.speedupOver(base)));
  EXPECT_TRUE(std::isnan(empty.speedupOver(empty)));
  EXPECT_DOUBLE_EQ(base.speedupOver(base), 1.0);
  Measurement fast;
  fast.cycles = 50.0;
  EXPECT_DOUBLE_EQ(fast.speedupOver(base), 2.0);
  // NaN must poison aggregates rather than read as "infinitely slow".
  EXPECT_TRUE(std::isnan(empty.speedupOver(base) + 1.0));
}

TEST(Measure, TimeStepsScaleRefs) {
  Program p = twoScans();
  Measurement one = measure(makeVersion(p, Strategy::NoOpt), 1024, MachineConfig::octane(), 1);
  Measurement three = measure(makeVersion(p, Strategy::NoOpt), 1024, MachineConfig::octane(), 3);
  EXPECT_EQ(three.counts.refs, 3 * one.counts.refs);
}

TEST(Measure, OverflowingProblemSizeIsAnErrorForEveryLayout) {
  // SP at n = 3,000,000: its arrays' byte sizes overflow int64.  The
  // contiguous, padded and regrouped layouts must refuse with gcr::Error
  // instead of wrapping to a negative size, and so must a measurement or
  // a profile at that size (the profile used to size its tracker from the
  // wrapped reference count and never return).
  const Program sp = apps::buildApp("SP");
  constexpr std::int64_t kN = 3'000'000;
  for (const Strategy s :
       {Strategy::NoOpt, Strategy::SgiLike, Strategy::FusedRegrouped}) {
    const ProgramVersion v = makeVersion(sp, s);
    EXPECT_THROW(v.layoutAt(kN), Error) << v.name;
    EXPECT_THROW(reuseProfileOf(v, kN), Error) << v.name;
    EXPECT_THROW(measure(v, kN, MachineConfig::origin2000()), Error) << v.name;
  }
  EXPECT_THROW(estimateDynamicRefs(sp, kN), Error);
  // A size that fits, run for more steps than 64 bits can count.
  EXPECT_THROW(estimateDynamicRefs(sp, 8, std::uint64_t{1} << 62), Error);
  EXPECT_GT(estimateDynamicRefs(sp, 8, 2), 0u);
}

}  // namespace
}  // namespace gcr
