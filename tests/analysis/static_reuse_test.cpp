// The static reuse-profile estimate — analyzeSymbolicReuse() evaluated at a
// size — on small programs with known reuse classes and on the paper's four
// applications, cross-checked against the dynamic reuse-distance
// measurement.  The documented tolerance: geometric-mean CDF error <= 0.10
// across the apps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "analysis/symbolic_reuse.hpp"
#include "apps/registry.hpp"
#include "interp/interp.hpp"
#include "interp/layout.hpp"
#include "ir/builder.hpp"
#include "locality/sampled_reuse.hpp"

namespace gcr {
namespace {

ReuseProfile measuredProfile(const Program& p, std::int64_t n) {
  const DataLayout l = contiguousLayout(p, n);
  ReuseDistanceSink sink(8);  // element-level, matching the estimate
  sink.reserve(static_cast<std::uint64_t>(l.totalBytes()));
  trace(p, l, {.n = n}, sink);
  return sink.profile();
}

double evadableFraction(const SymbolicEvaluation& ev) {
  return ev.totalReuses ? static_cast<double>(ev.evadableReuses) /
                              static_cast<double>(ev.totalReuses)
                        : 0.0;
}

TEST(StaticReuse, ScanHasLoopCarriedDistanceOne) {
  ProgramBuilder b("scan");
  const ArrayId A = b.array("A", {AffineN::N()});
  b.loop("i", 1, AffineN::N() - 1,
         [&](IxVar i) { b.assign(b.ref(A, {i}), {b.ref(A, {i - 1})}); });
  Program p = b.take();
  const SymbolicReuseProfile sym = analyzeSymbolicReuse(p);
  ASSERT_EQ(sym.perSite.size(), 2u);
  // The read A[i-1] reuses the write A[i] of the previous iteration.
  const SymbolicSiteProfile& read = sym.perSite[0];
  EXPECT_EQ(read.cls, ReuseClass::LoopCarried);
  EXPECT_EQ(read.carryLevel, 0);
  ASSERT_TRUE(read.distance.valid());
  EXPECT_EQ(read.distance.eval(64), 1);
  EXPECT_FALSE(read.evadable);  // distance constant in N
  EXPECT_GT(evaluateSymbolicProfile(sym, 64).accesses, 0u);
}

TEST(StaticReuse, CrossLoopReuseGrowsWithN) {
  // A written by one loop, read by the next: the reuse spans a full array
  // sweep — distance ~N, evadable.
  ProgramBuilder b("crossloop");
  const ArrayId A = b.array("A", {AffineN::N()});
  const ArrayId B = b.array("B", {AffineN::N()});
  b.loop("i", 0, AffineN::N() - 1,
         [&](IxVar i) { b.assign(b.ref(A, {i}), {}); });
  b.loop("i", 0, AffineN::N() - 1,
         [&](IxVar i) { b.assign(b.ref(B, {i}), {b.ref(A, {i})}); });
  Program p = b.take();
  const SymbolicReuseProfile sym = analyzeSymbolicReuse(p);
  bool sawCrossUnit = false;
  for (const SymbolicSiteProfile& e : sym.perSite)
    if (e.cls == ReuseClass::CrossUnit) {
      sawCrossUnit = true;
      EXPECT_TRUE(e.evadable);
      ASSERT_TRUE(e.distance.valid());
      EXPECT_GE(e.distance.eval(64), 32);  // ~ footprint of a sweep at n=64
    }
  EXPECT_TRUE(sawCrossUnit);
  EXPECT_GT(evadableFraction(evaluateSymbolicProfile(sym, 64)), 0.0);
}

TEST(StaticReuse, EvadableSeamClassifiedFromSymbolicDegree) {
  // A read whose distance is min(128, 2N-3): the loop-carried candidate
  // (2N-3) is nearest up to N = 65, then the same-iteration constant 128
  // caps it.  A growth test that samples the n-nearest candidate at n=64
  // and 2n=128 sees 125 -> 253 (growth 2.02 > 1.5) and misclassifies this
  // bounded class as evadable; the degree of the min is 0.
  ProgramBuilder b("seam");
  const ArrayId A = b.array("A", {AffineN::N(), AffineN::N()});
  const ArrayId C = b.array("C", {AffineN::N()});
  const ArrayId E = b.array("E", {AffineN::N(), AffineN::N()});
  b.loop2("i", 1, AffineN::N() - 2, "j", 1, AffineN::N() - 2,
          [&](IxVar i, IxVar j) {
            b.assign(b.ref(A, {i, j}), {b.ref(A, {i - 1, j})});
            for (int k = 0; k < 63; ++k)  // 126 sites between the two reads
              b.assign(b.ref(C, {i}), {b.ref(C, {i})});
            b.assign(b.ref(E, {i, j}), {b.ref(A, {i - 1, j})});
          });
  const Program p = b.take();
  const SymbolicReuseProfile sym = analyzeSymbolicReuse(p);
  int idx = -1;  // the LAST read of A is the capped site
  for (std::size_t k = 0; k < sym.sites.size(); ++k)
    if (sym.sites[k].array == A && !sym.sites[k].isWrite)
      idx = static_cast<int>(k);
  ASSERT_GE(idx, 0);
  const SymbolicSiteProfile& e = sym.perSite[static_cast<std::size_t>(idx)];
  EXPECT_EQ(e.cls, ReuseClass::LoopCarried);
  ASSERT_TRUE(e.distance.valid());
  EXPECT_EQ(e.distance.eval(64), 125);    // 2*64 - 3
  EXPECT_EQ(e.distance.eval(128), 128);   // n and 2n straddle the seam
  EXPECT_EQ(e.distance.eval(1024), 128);
  ASSERT_TRUE(e.degree.has_value());
  EXPECT_EQ(*e.degree, 0);  // the formula min(128, 2N-3) is bounded:
  EXPECT_FALSE(e.evadable);  // not evadable
}

TEST(StaticReuse, AccountingIsConsistent) {
  for (const char* name : {"ADI", "Swim", "Tomcatv", "SP"}) {
    const SymbolicReuseProfile sym = analyzeSymbolicReuse(apps::buildApp(name));
    const SymbolicEvaluation ev = evaluateSymbolicProfile(sym, 64);
    EXPECT_EQ(ev.accesses, ev.cold + ev.totalReuses) << name;
    EXPECT_EQ(ev.histogram.totalFinite(), ev.totalReuses) << name;
    EXPECT_LE(ev.evadableReuses, ev.totalReuses) << name;
    EXPECT_EQ(ev.bailedAccesses, 0u) << name;
  }
}

TEST(StaticReuse, MatchesDynamicProfileWithinTolerance) {
  const std::int64_t n = 64;
  double logSum = 0.0;
  int count = 0;
  for (const char* name : {"Swim", "Tomcatv", "ADI", "SP"}) {
    const Program p = apps::buildApp(name);
    const SymbolicEvaluation est =
        evaluateSymbolicProfile(analyzeSymbolicReuse(p), n);
    const ReuseProfile dyn = measuredProfile(p, n);
    // The trip counts are exact, so the access totals agree; the CDF
    // comparison below normalizes them away.
    EXPECT_EQ(est.accesses, dyn.accesses) << name;
    const ProfileComparison cmp =
        compareHistograms(est.histogram, dyn.histogram);
    ::testing::Test::RecordProperty(name, cmp.avgCdfError);
    std::printf("[profile] %-8s avgCdfError=%.4f maxCdfError=%.4f bins=%d\n",
                name, cmp.avgCdfError, cmp.maxCdfError, cmp.bins);
    EXPECT_LT(cmp.avgCdfError, 0.25) << name;  // per-app sanity bound
    logSum += std::log(std::max(cmp.avgCdfError, 1e-4));
    ++count;
  }
  const double geomean = std::exp(logSum / count);
  std::printf("[profile] geomean avgCdfError=%.4f\n", geomean);
  // The documented tolerance gate (EXPERIMENTS.md).
  EXPECT_LE(geomean, 0.10);
}

TEST(StaticReuse, EvadablePredictionAgreesWithDynamicTrend) {
  // Evadable reuse is the paper's target class: distances growing with the
  // data size.  The static fraction should be substantial for these stencil
  // apps, matching the dynamic observation (Figure 2's premise).
  for (const char* name : {"Swim", "Tomcatv", "ADI", "SP"}) {
    const SymbolicReuseProfile sym = analyzeSymbolicReuse(apps::buildApp(name));
    const double fraction = evadableFraction(evaluateSymbolicProfile(sym, 64));
    EXPECT_GT(fraction, 0.1) << name;
    EXPECT_LE(fraction, 1.0) << name;
  }
}

}  // namespace
}  // namespace gcr
