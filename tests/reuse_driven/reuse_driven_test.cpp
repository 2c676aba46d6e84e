#include "reuse_driven/reuse_driven.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "interp/interp.hpp"
#include "ir/builder.hpp"
#include "locality/sampled_reuse.hpp"

namespace gcr {
namespace {

// Two disjoint loops over A: for i: A[i] = f(A[i]); for i: B[i] = g(A[i]).
// Reuse-driven execution should interleave them (distance 0 reuses).
Program twoScans(bool dependent = true) {
  ProgramBuilder b("two-scans");
  ArrayId a = b.array("A", {AffineN::N()});
  ArrayId c = b.array("B", {AffineN::N()});
  b.loop("i", 0, AffineN::N() - AffineN(1),
         [&](IxVar i) { b.assign(b.ref(a, {i}), {b.ref(a, {i})}); });
  b.loop("i", 0, AffineN::N() - AffineN(1), [&](IxVar i) {
    if (dependent)
      b.assign(b.ref(c, {i}), {b.ref(a, {i})});
    else
      b.assign(b.ref(c, {i}), {b.ref(c, {i})});
  });
  return b.take();
}

InstrTrace traceOf(const Program& p, std::int64_t n) {
  InstrTrace t;
  DataLayout l = contiguousLayout(p, n);
  trace(p, l, {.n = n}, t);
  return t;
}

bool isPermutation(const std::vector<std::uint32_t>& order, std::size_t n) {
  if (order.size() != n) return false;
  std::vector<std::uint8_t> seen(n, 0);
  for (std::uint32_t i : order) {
    if (i >= n || seen[i]) return false;
    seen[i] = 1;
  }
  return true;
}

// Flow producers must come before consumers in any legal execution order.
bool respectsFlowDeps(const InstrTrace& t,
                      const std::vector<std::uint32_t>& order) {
  std::vector<std::uint32_t> pos(t.size());
  for (std::uint32_t p = 0; p < order.size(); ++p) pos[order[p]] = p;
  for (std::size_t i = 0; i < t.size(); ++i) {
    for (std::int64_t r : t.reads(i)) {
      // find most recent j < i with writeAddr == r
      for (std::size_t j = i; j-- > 0;) {
        if (t.writeAddr(j) == r) {
          if (pos[j] > pos[i]) return false;
          break;
        }
      }
    }
  }
  return true;
}

TEST(IdealSchedule, LevelsRespectFlowDeps) {
  Program p = twoScans();
  InstrTrace t = traceOf(p, 8);
  IdealSchedule s = idealParallelOrder(t);
  ASSERT_EQ(s.level.size(), 16u);
  // Consumer instances (second loop) read what the first loop wrote: level 1.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(s.level[i], 0u);
    EXPECT_EQ(s.level[8 + i], 1u);
  }
  EXPECT_TRUE(isPermutation(s.order, 16));
}

TEST(ReuseDriven, ProducesLegalPermutation) {
  Program p = twoScans();
  InstrTrace t = traceOf(p, 32);
  const auto order = reuseDrivenOrder(t);
  EXPECT_TRUE(isPermutation(order, t.size()));
  EXPECT_TRUE(respectsFlowDeps(t, order));
}

TEST(ReuseDriven, InterleavesDataSharingLoops) {
  Program p = twoScans();
  InstrTrace t = traceOf(p, 64);
  const auto rdOrder = reuseDrivenOrder(t);
  const Log2Histogram programHist = profileOrder(t, programOrder(t));
  const Log2Histogram rdHist = profileOrder(t, rdOrder);

  // Program order: the second loop's read of A[i] is ~N elements away.
  // Reuse-driven order: the consumer should run right after the producer.
  EXPECT_GT(programHist.countAtLeast(32), 0u);
  EXPECT_EQ(rdHist.countAtLeast(32), 0u);
}

TEST(ReuseDriven, IndependentLoopsKeepOrderLegal) {
  Program p = twoScans(/*dependent=*/false);
  InstrTrace t = traceOf(p, 16);
  const auto order = reuseDrivenOrder(t);
  EXPECT_TRUE(isPermutation(order, t.size()));
  EXPECT_TRUE(respectsFlowDeps(t, order));
}

TEST(ReuseDriven, RecurrenceChainStaysSequential) {
  ProgramBuilder b("chain");
  ArrayId a = b.array("A", {AffineN::N()});
  b.loop("i", 1, AffineN::N() - AffineN(1),
         [&](IxVar i) { b.assign(b.ref(a, {i}), {b.ref(a, {i - 1})}); });
  Program p = b.take();
  InstrTrace t = traceOf(p, 20);
  const auto order = reuseDrivenOrder(t);
  // A pure dependence chain admits exactly one legal order.
  for (std::size_t i = 0; i < order.size(); ++i)
    EXPECT_EQ(order[i], static_cast<std::uint32_t>(i));
}

TEST(ReuseDriven, FarReuseHeuristicStillLegal) {
  Program p = twoScans();
  InstrTrace t = traceOf(p, 32);
  ReuseDrivenOptions opts;
  opts.skipFarReuse = true;
  opts.farThresholdIdealSlots = 4;
  const auto order = reuseDrivenOrder(t, opts);
  EXPECT_TRUE(isPermutation(order, t.size()));
  EXPECT_TRUE(respectsFlowDeps(t, order));
}

TEST(ProfileOrder, ProgramOrderMatchesDirectProfile) {
  Program p = twoScans();
  InstrTrace t = traceOf(p, 16);
  const Log2Histogram viaOrder = profileOrder(t, programOrder(t));
  // Rebuild directly.
  std::vector<std::int64_t> flat;
  for (std::size_t i = 0; i < t.size(); ++i) {
    for (std::int64_t r : t.reads(i)) flat.push_back(r);
    flat.push_back(t.writeAddr(i));
  }
  const ReuseProfile direct = profileAddresses(flat, 8);
  for (int bin = 0; bin <= 20; ++bin)
    EXPECT_EQ(viaOrder.binCount(bin), direct.histogram.binCount(bin));
}

}  // namespace
}  // namespace gcr
