// The symbolic pass must reproduce the numeric referee scan wherever it
// claims a formula: evaluating a profile at any n >= minN with timeSteps ==
// 1 yields the scan's per-site distances, histogram and totals EXACTLY (same
// candidate scan, same min selection), and the closed-form degree decides
// evadability without sampling sizes.
#include "analysis/symbolic_reuse.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "apps/registry.hpp"
#include "common/random_program.hpp"
#include "driver/pipeline.hpp"
#include "interp/interp.hpp"
#include "interp/layout.hpp"
#include "ir/builder.hpp"
#include "locality/sampled_reuse.hpp"
#include "numeric_reuse_referee.hpp"

namespace gcr {
namespace {

using testing::expectMatchesReferee;

/// Every program the registry builds by name.
const std::vector<std::string>& registryNames() {
  static const std::vector<std::string> names = {
      "Swim",    "Tomcatv",               "ADI",    "SP",
      "Sweep3D", "Tomcatv-noInterchange", "Jacobi", "Livermore"};
  return names;
}

TEST(SymbolicReuse, RegistryAppsAnalyzeSymbolically) {
  // Every registry program, original and optimized: fusion, splitting,
  // peeling and regrouping stress the cross-unit and guard paths.
  for (const std::string& name : registryNames()) {
    const Program original = apps::buildApp(name);
    for (const Strategy s : {Strategy::NoOpt, Strategy::SgiLike,
                             Strategy::Fused, Strategy::FusedRegrouped,
                             Strategy::RegroupedOnly}) {
      SCOPED_TRACE(name + "/" + versionNameFor(s));
      const ProgramVersion v = makeVersion(original, s);
      const Program& p = s == Strategy::NoOpt ? original : v.program;
      const SymbolicReuseProfile sym = analyzeSymbolicReuse(p);
      EXPECT_TRUE(sym.fullySymbolic())
          << "bailed sites: " << sym.bailedSites();
      for (const std::int64_t n : {32, 64, 96, 128}) {
        EXPECT_EQ(evaluateSymbolicProfile(sym, n).bailedAccesses, 0u)
            << "n=" << n;
        expectMatchesReferee(p, sym, n);
      }
    }
  }
}

TEST(SymbolicReuse, ScanSiteHasConstantDegree) {
  ProgramBuilder b("scan");
  const ArrayId A = b.array("A", {AffineN::N()});
  b.loop("i", 1, AffineN::N() - 1,
         [&](IxVar i) { b.assign(b.ref(A, {i}), {b.ref(A, {i - 1})}); });
  const Program p = b.take();
  const SymbolicReuseProfile sym = analyzeSymbolicReuse(p);
  ASSERT_EQ(sym.perSite.size(), 2u);
  const SymbolicSiteProfile& read = sym.perSite[0];
  EXPECT_EQ(read.cls, ReuseClass::LoopCarried);
  ASSERT_TRUE(read.distance.valid());
  ASSERT_TRUE(read.degree.has_value());
  EXPECT_EQ(*read.degree, 0);  // carried distance is constant in N
  EXPECT_FALSE(read.evadable);
}

TEST(SymbolicReuse, CrossLoopDistanceGrowsLinearly) {
  ProgramBuilder b("crossloop");
  const ArrayId A = b.array("A", {AffineN::N()});
  const ArrayId B = b.array("B", {AffineN::N()});
  b.loop("i", 0, AffineN::N() - 1,
         [&](IxVar i) { b.assign(b.ref(A, {i}), {}); });
  b.loop("i", 0, AffineN::N() - 1,
         [&](IxVar i) { b.assign(b.ref(B, {i}), {b.ref(A, {i})}); });
  const Program p = b.take();
  const SymbolicReuseProfile sym = analyzeSymbolicReuse(p);
  bool sawCrossUnit = false;
  for (const SymbolicSiteProfile& e : sym.perSite)
    if (e.cls == ReuseClass::CrossUnit) {
      sawCrossUnit = true;
      ASSERT_TRUE(e.degree.has_value());
      EXPECT_EQ(*e.degree, 1);
      EXPECT_TRUE(e.evadable);
    }
  EXPECT_TRUE(sawCrossUnit);
}

TEST(SymbolicReuse, MissRateCurveIsMonotoneInCapacity) {
  const Program p = apps::buildApp("Swim");
  const SymbolicReuseProfile sym = analyzeSymbolicReuse(p);
  for (const std::int64_t n : {64, 256, 1024}) {
    double prev = 1.0;
    for (std::uint64_t c = 1; c <= (1ull << 24); c <<= 2) {
      const double miss = symbolicMissRate(sym, c, n);
      EXPECT_LE(miss, prev + 1e-12) << "n=" << n << " c=" << c;
      EXPECT_GE(miss, 0.0);
      prev = miss;
    }
    // A cache big enough for every distance misses only on cold.
    EXPECT_EQ(symbolicMissRate(sym, 1ull << 62, n), 0.0);
  }
}

TEST(SymbolicReuse, TimeStepsScaleMassAndAddColdRetouch) {
  const Program p = apps::buildApp("ADI");
  const SymbolicReuseProfile sym = analyzeSymbolicReuse(p);
  ASSERT_TRUE(sym.fullySymbolic());
  const std::int64_t n = 64;
  const SymbolicEvaluation e1 = evaluateSymbolicProfile(sym, n, 1);
  const SymbolicEvaluation e4 = evaluateSymbolicProfile(sym, n, 4);
  EXPECT_EQ(e4.accesses, 4 * e1.accesses);
  EXPECT_EQ(e4.cold, e1.cold);  // first touches happen once
  // Every access that is not a first touch is a reuse.
  EXPECT_EQ(e4.totalReuses + e4.cold, e4.accesses);
  ASSERT_TRUE(sym.footprint.valid());
  EXPECT_GT(sym.footprint.eval(n), 0);
}

TEST(SymbolicReuse, FootprintMatchesWholeProgramSweep) {
  // Two arrays of extent N each, both fully touched: footprint ~ 2N.
  ProgramBuilder b("twosweeps");
  const ArrayId A = b.array("A", {AffineN::N()});
  const ArrayId B = b.array("B", {AffineN::N()});
  b.loop("i", 0, AffineN::N() - 1,
         [&](IxVar i) { b.assign(b.ref(A, {i}), {}); });
  b.loop("i", 0, AffineN::N() - 1,
         [&](IxVar i) { b.assign(b.ref(B, {i}), {}); });
  const Program p = b.take();
  const SymbolicReuseProfile sym = analyzeSymbolicReuse(p);
  EXPECT_EQ(sym.footprint.eval(100), 200);
  EXPECT_EQ(sym.footprint.degreeInN().value_or(-1), 1);
}

TEST(SymbolicReuse, FuzzExactAgainstNumericEstimator) {
  // Random affine programs are guard-comparable and constant-delta, so the
  // symbolic pass must go formula-only and match the referee bit for bit at
  // every size: 2-D nests, then reversed (downto) loops in 1-D and 2-D.
  struct Corpus {
    bool twoDim;
    bool reversed;
    std::uint64_t seeds;
  };
  for (const Corpus c : {Corpus{true, false, 20}, Corpus{false, true, 40},
                         Corpus{true, true, 40}}) {
    std::uint64_t fullySymbolic = 0;
    for (std::uint64_t seed = 1; seed <= c.seeds; ++seed) {
      testing::RandomProgramOptions opts;
      opts.allowTwoDim = c.twoDim;
      opts.allowReversed = c.reversed;
      const Program p = testing::randomProgram(seed, opts);
      const SymbolicReuseProfile sym = analyzeSymbolicReuse(p);
      if (sym.fullySymbolic()) ++fullySymbolic;
      for (const std::int64_t n : {32, 64}) expectMatchesReferee(p, sym, n);
    }
    // The corpus is overwhelmingly affine.
    EXPECT_GE(4 * fullySymbolic, 3 * c.seeds)
        << "twoDim=" << c.twoDim << " reversed=" << c.reversed;
  }
}

TEST(SymbolicReuse, AgreementWithDynamicProfileWithinGate) {
  // The end-to-end gate the CI job enforces: symbolic CDF vs measured CDF,
  // geomean error over the registry apps <= 0.10.
  double logSum = 0.0;
  int count = 0;
  for (const apps::AppInfo& app : apps::evaluationApps()) {
    const Program p = app.build();
    const SymbolicReuseProfile sym = analyzeSymbolicReuse(p);
    const std::int64_t n = 64;
    const SymbolicEvaluation ev = evaluateSymbolicProfile(sym, n);
    const DataLayout l = contiguousLayout(p, n);
    ReuseDistanceSink sink(8);
    sink.reserve(static_cast<std::uint64_t>(l.totalBytes()));
    trace(p, l, {.n = n}, sink);
    const ReuseProfile measured = sink.profile();
    const ProfileComparison c =
        compareHistograms(ev.histogram, measured.histogram);
    EXPECT_LT(c.avgCdfError, 0.25) << app.name;
    logSum += std::log(std::max(c.avgCdfError, 1e-6));
    ++count;
  }
  EXPECT_LE(std::exp(logSum / count), 0.10);
}

}  // namespace
}  // namespace gcr
