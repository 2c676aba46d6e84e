// Multicore locality engine (locality/multicore.hpp): the concurrency
// scaling must be the documented exact bin shift, one core must reproduce
// the serial line-granularity profile bit for bit (model == referee with no
// interleaving), the per-core private simulations must be thread-count
// independent, and the shared-LLC CDF composition must track the exact
// interleaved referee within the model-error gate on ADI/Swim at 2 and 4
// threads.
#include "locality/multicore.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "apps/registry.hpp"
#include "driver/pipeline.hpp"
#include "interp/plan.hpp"
#include "store/codec.hpp"
#include "support/histogram.hpp"

namespace gcr {
namespace {

// Heap-allocated so the compiled plan's borrowed Program/DataLayout
// pointers stay stable (the plan must not outlive or out-move them).
struct CompiledVersion {
  ProgramVersion version;
  DataLayout layout;
  PlanCompileResult compiled;

  CompiledVersion(ProgramVersion v, std::int64_t n)
      : version(std::move(v)), layout(version.layoutAt(n)) {
    compiled = compilePlan(version.program, layout, ExecOptions{.n = n});
  }
};

std::unique_ptr<CompiledVersion> compileApp(const std::string& app,
                                            Strategy strategy,
                                            std::int64_t n) {
  Program p = apps::buildApp(app);
  return std::make_unique<CompiledVersion>(makeVersion(p, strategy), n);
}

TEST(MulticoreScaling, PowerOfTwoScaleIsAnExactBinShift) {
  Log2Histogram h;
  h.add(0, 10);
  h.add(1, 7);
  h.add(5, 3);
  h.add(1000, 2);
  h.add(Log2Histogram::kCold, 4);

  for (int cores : {2, 4, 8}) {
    const Log2Histogram scaled = scaleReuseDistances(h, cores);
    EXPECT_EQ(scaled.totalFinite(), h.totalFinite()) << cores;
    EXPECT_EQ(scaled.coldCount(), h.coldCount()) << cores;
    // Every occupied bin lands where its scaled lower edge lands.
    for (int b = 0; b <= h.highestNonEmptyBin(); ++b) {
      if (h.binCount(b) == 0) continue;
      const int target = Log2Histogram::binOf(
          Log2Histogram::binLow(b) * static_cast<std::uint64_t>(cores));
      EXPECT_EQ(scaled.binCount(target), h.binCount(b))
          << cores << " cores, bin " << b;
    }
  }
  // cores == 1 is the identity.
  const Log2Histogram same = scaleReuseDistances(h, 1);
  for (int b = 0; b <= h.highestNonEmptyBin(); ++b)
    EXPECT_EQ(same.binCount(b), h.binCount(b));
}

TEST(MulticoreModel, OneCoreMatchesTheRefereeBitForBit) {
  // With one core there is no interleaving and no scaling: the model's
  // shared profile IS the serial line-granularity profile, which is exactly
  // what the referee measures.
  for (const char* app : {"ADI", "Swim"}) {
    SCOPED_TRACE(app);
    const auto c = compileApp(app, Strategy::Fused, 20);
    ASSERT_TRUE(c->compiled.ok()) << c->compiled.reason;
    const CacheTopology topo = CacheTopology::symmetric(1);

    const MulticoreProfile model = analyzeMulticore(*c->compiled.plan, topo);
    const ReuseProfile exact =
        interleavedSharedProfile(*c->compiled.plan, topo);
    ASSERT_EQ(model.cores, 1);
    EXPECT_EQ(model.sharedAccesses, exact.accesses);
    EXPECT_EQ(model.sharedColdLines, exact.distinctData);
    const int top = std::max(model.shared.highestNonEmptyBin(),
                             exact.histogram.highestNonEmptyBin());
    for (int b = 0; b <= top; ++b)
      EXPECT_EQ(model.shared.binCount(b), exact.histogram.binCount(b))
          << "bin " << b;
    EXPECT_EQ(model.shared.coldCount(), exact.histogram.coldCount());
  }
}

TEST(MulticoreModel, PerCoreStatsCoverTheWholePlan) {
  const auto c = compileApp("ADI", Strategy::NoOpt, 24);
  ASSERT_TRUE(c->compiled.ok()) << c->compiled.reason;
  InstrTrace serial;
  executePlan(*c->compiled.plan, {.n = 24}, &serial);
  std::uint64_t serialRefs = 0;
  for (std::size_t i = 0; i < serial.size(); ++i)
    serialRefs += serial.reads(i).size() + 1;

  for (int cores : {2, 4}) {
    const MulticoreProfile mp = analyzeMulticore(
        *c->compiled.plan, CacheTopology::symmetric(cores));
    ASSERT_EQ(mp.perCore.size(), static_cast<std::size_t>(cores));
    EXPECT_EQ(mp.totalRefs(), serialRefs) << cores << " cores";
    std::uint64_t lineAccesses = 0;
    for (const CoreCacheStats& core : mp.perCore) {
      lineAccesses += core.lineAccesses;
      EXPECT_LE(core.l2Misses, core.l1Misses);
      EXPECT_LE(core.l1Misses, core.refs);
    }
    EXPECT_EQ(mp.sharedAccesses, lineAccesses);
    EXPECT_GE(mp.llcMissFraction, 0.0);
    EXPECT_LE(mp.llcMissFraction, 1.0);
    EXPECT_GT(mp.cycles, 0.0);
  }
}

TEST(MulticoreModel, ThreadPoolDoesNotChangeTheResult) {
  const auto c = compileApp("Swim", Strategy::FusedRegrouped, 20);
  ASSERT_TRUE(c->compiled.ok()) << c->compiled.reason;
  const CacheTopology topo = CacheTopology::symmetric(4);

  MulticoreProfile inline_ = analyzeMulticore(*c->compiled.plan, topo);
  ThreadPool one(1), four(4);
  MulticoreProfile p1 = analyzeMulticore(*c->compiled.plan, topo, {}, &one);
  MulticoreProfile p4 = analyzeMulticore(*c->compiled.plan, topo, {}, &four);

  const std::vector<std::uint8_t> a = store::encodeMulticoreProfile(inline_);
  EXPECT_EQ(a, store::encodeMulticoreProfile(p1));
  EXPECT_EQ(a, store::encodeMulticoreProfile(p4));
}

TEST(MulticoreModel, SharedCdfTracksTheInterleavedReferee) {
  // The satellite gate: 2- and 4-thread ADI and Swim at small n, model CDF
  // vs the exact interleaved trace.  Per-case bound loose (documented model
  // error sources), geomean tight — mirroring gcr-verify --multicore.
  double logSum = 0.0;
  int cases = 0;
  for (const char* app : {"ADI", "Swim"}) {
    for (int cores : {2, 4}) {
      SCOPED_TRACE(std::string(app) + "/" + std::to_string(cores));
      const auto c = compileApp(app, Strategy::Fused, 24);
      ASSERT_TRUE(c->compiled.ok()) << c->compiled.reason;
      const CacheTopology topo = CacheTopology::symmetric(cores);

      const MulticoreProfile model = analyzeMulticore(*c->compiled.plan, topo);
      const ReuseProfile exact =
          interleavedSharedProfile(*c->compiled.plan, topo);
      ASSERT_EQ(model.sharedAccesses, exact.accesses);

      const ProfileComparison cmp =
          compareHistograms(model.shared, exact.histogram);
      EXPECT_LE(cmp.avgCdfError, 0.15);
      logSum += std::log(std::max(cmp.avgCdfError, 1e-6));
      ++cases;
    }
  }
  EXPECT_LE(std::exp(logSum / cases), 0.10) << "geomean CDF error";
}

TEST(MulticoreModel, CyclicAndBlockSchedulesBothAnalyze) {
  const auto c = compileApp("ADI", Strategy::NoOpt, 20);
  ASSERT_TRUE(c->compiled.ok()) << c->compiled.reason;
  for (ParallelSchedule sched :
       {ParallelSchedule::Block, ParallelSchedule::Cyclic}) {
    const CacheTopology topo = CacheTopology::symmetric(2, sched);
    const MulticoreProfile mp = analyzeMulticore(*c->compiled.plan, topo);
    EXPECT_EQ(mp.schedule, sched);
    EXPECT_GT(mp.sharedAccesses, 0u);
    // The referee accepts both schedules too.
    const ReuseProfile exact =
        interleavedSharedProfile(*c->compiled.plan, topo);
    EXPECT_EQ(exact.accesses, mp.sharedAccesses);
  }
}

}  // namespace
}  // namespace gcr
