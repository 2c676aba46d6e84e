#include "regroup/regroup.hpp"

#include <gtest/gtest.h>

#include "cachesim/hierarchy.hpp"
#include "interp/interp.hpp"
#include "ir/builder.hpp"

namespace gcr {
namespace {

// The paper's Figure 7 program:
//   for i { for j: g(A[i][j], B[i][j]); for j: t(C[i][j]) }
// (row-major; the paper's column-major A[j,i] reads the same way).
struct Fig7 {
  Program p;
  ArrayId a, b, c;
};

Fig7 figure7() {
  Fig7 out;
  ProgramBuilder b("fig7");
  const AffineN hi = AffineN::N() - AffineN(1);
  out.a = b.array("A", {AffineN::N(), AffineN::N()});
  out.b = b.array("B", {AffineN::N(), AffineN::N()});
  out.c = b.array("C", {AffineN::N(), AffineN::N()});
  b.loop("i", 0, hi, [&](IxVar i) {
    b.loop("j", 0, hi, [&](IxVar j) {
      b.assign(b.ref(out.a, {i, j}), {b.ref(out.b, {i, j})});
    });
    b.loop("j", 0, hi, [&](IxVar j) {
      b.assign(b.ref(out.c, {i, j}), {b.ref(out.c, {i, j})});
    });
  });
  out.p = b.take();
  return out;
}

TEST(Regroup, Figure7Partitions) {
  Fig7 f = figure7();
  RegroupReport report;
  Regrouping rg = Regrouping::analyze(f.p, {}, &report);

  // Dim 0 (rows): all three arrays are accessed together in the i loop.
  const auto& p0 = rg.partitionAt(0);
  ASSERT_EQ(p0.size(), 1u);
  EXPECT_EQ(p0[0], (std::vector<ArrayId>{f.a, f.b, f.c}));

  // Dim 1 (elements): {A,B} together, C alone.
  const auto& p1 = rg.partitionAt(1);
  ASSERT_EQ(p1.size(), 2u);
  EXPECT_EQ(rg.groupedWith(f.a, 1), (std::vector<ArrayId>{f.b}));
  EXPECT_TRUE(rg.groupedWith(f.c, 1).empty());
  EXPECT_GE(report.partitionsFormed, 2);
}

TEST(Regroup, Figure7LayoutMatchesPaper) {
  // Expected (row-major translation of Fig 7): row i occupies 3N elements;
  // A[i][j] at i*24N + 16j, B at +8, C at i*24N + 16N + 8j.
  Fig7 f = figure7();
  Regrouping rg = Regrouping::analyze(f.p);
  const std::int64_t n = 8;
  DataLayout l = rg.layout(f.p, n);

  const ArrayLayout& la = l.layoutOf(f.a);
  const ArrayLayout& lb = l.layoutOf(f.b);
  const ArrayLayout& lc = l.layoutOf(f.c);
  EXPECT_EQ(la.strides[0], 3 * n * 8);
  EXPECT_EQ(la.strides[1], 16);
  EXPECT_EQ(lb.base - la.base, 8);
  EXPECT_EQ(lb.strides[0], 3 * n * 8);
  EXPECT_EQ(lc.strides[0], 3 * n * 8);
  EXPECT_EQ(lc.strides[1], 8);
  EXPECT_EQ(lc.base - la.base, 2 * n * 8);
  EXPECT_EQ(l.totalBytes(), 3 * n * n * 8);
}

TEST(Regroup, NotAlwaysTogetherNotGrouped) {
  // Phase 1 accesses A and B; phase 2 accesses A only -> no grouping.
  ProgramBuilder b("split");
  const AffineN hi = AffineN::N() - AffineN(1);
  ArrayId a = b.array("A", {AffineN::N()});
  ArrayId c = b.array("B", {AffineN::N()});
  b.loop("i", 0, hi, [&](IxVar i) { b.assign(b.ref(a, {i}), {b.ref(c, {i})}); });
  b.loop("i", 0, hi, [&](IxVar i) { b.assign(b.ref(a, {i}), {b.ref(a, {i})}); });
  Program p = b.take();
  Regrouping rg = Regrouping::analyze(p);
  EXPECT_TRUE(rg.groupedWith(a, 0).empty());
}

TEST(Regroup, IncompatibleShapesNotGrouped) {
  // A is NxN, B is N — different ranks, never compatible.
  ProgramBuilder b("shapes");
  const AffineN hi = AffineN::N() - AffineN(1);
  ArrayId a = b.array("A", {AffineN::N(), AffineN::N()});
  ArrayId c = b.array("B", {AffineN::N()});
  b.loop2("i", 0, hi, "j", 0, hi, [&](IxVar i, IxVar j) {
    b.assign(b.ref(a, {i, j}), {b.ref(c, {i})});
  });
  Program p = b.take();
  Regrouping rg = Regrouping::analyze(p);
  EXPECT_TRUE(rg.groupedWith(a, 0).empty());
}

TEST(Regroup, ConstantExtentDifferenceIsCompatible) {
  // N and N+2 extents: compatible (sizes differ by a constant); grouped when
  // accessed together.
  ProgramBuilder b("pad");
  const AffineN hi = AffineN::N() - AffineN(1);
  ArrayId a = b.array("A", {AffineN::N()});
  ArrayId c = b.array("B", {AffineN::N() + AffineN(2)});
  b.loop("i", 0, hi, [&](IxVar i) { b.assign(b.ref(a, {i}), {b.ref(c, {i})}); });
  Program p = b.take();
  Regrouping rg = Regrouping::analyze(p);
  EXPECT_EQ(rg.groupedWith(a, 0), (std::vector<ArrayId>{c}));
  // Layout pads to the larger extent; all addresses stay distinct.
  DataLayout l = rg.layout(p, 8);
  EXPECT_EQ(l.layoutOf(a).strides[0], 16);
  EXPECT_EQ(l.totalBytes(), 10 * 16);
}

TEST(Regroup, TransposedIterationBlocksOuterGrouping) {
  // A accessed as A[j][i] with i outer: dim 0 is iterated by the inner loop
  // -> cannot group at dim 0 (Figure 8 step 1).
  ProgramBuilder b("transposed");
  const AffineN hi = AffineN::N() - AffineN(1);
  ArrayId a = b.array("A", {AffineN::N(), AffineN::N()});
  ArrayId c = b.array("B", {AffineN::N(), AffineN::N()});
  b.loop2("i", 0, hi, "j", 0, hi, [&](IxVar i, IxVar j) {
    b.assign(b.ref(a, {j, i}), {b.ref(c, {j, i})});
  });
  Program p = b.take();
  Regrouping rg = Regrouping::analyze(p);
  EXPECT_TRUE(rg.groupedWith(a, 0).empty());
}

TEST(Regroup, SkipInnermostOption) {
  Fig7 f = figure7();
  RegroupOptions opts;
  opts.skipInnermostDim = true;
  Regrouping rg = Regrouping::analyze(f.p, opts);
  EXPECT_EQ(rg.groupedWith(f.a, 0), (std::vector<ArrayId>{f.b, f.c}));
  EXPECT_TRUE(rg.groupedWith(f.a, 1).empty());  // no element interleaving
}

TEST(Regroup, InnermostOnlyOption) {
  // Single-level (element) regrouping fully interleaves always-together
  // arrays: A and B form an array of pairs, C stays separate.
  Fig7 f = figure7();
  RegroupOptions opts;
  opts.innermostOnly = true;
  Regrouping rg = Regrouping::analyze(f.p, opts);
  EXPECT_EQ(rg.groupedWith(f.a, 1), (std::vector<ArrayId>{f.b}));
  EXPECT_TRUE(rg.groupedWith(f.c, 1).empty());
  const std::int64_t n = 6;
  DataLayout l = rg.layout(f.p, n);
  EXPECT_EQ(l.layoutOf(f.a).strides[1], 16);
  EXPECT_EQ(l.layoutOf(f.a).strides[0], n * 16);
  EXPECT_EQ(l.layoutOf(f.b).base - l.layoutOf(f.a).base, 8);
}

TEST(Regroup, SemanticsUnchangedUnderRegroupedLayout) {
  Fig7 f = figure7();
  Regrouping rg = Regrouping::analyze(f.p);
  const std::int64_t n = 10;
  DataLayout plain = contiguousLayout(f.p, n);
  DataLayout grouped = rg.layout(f.p, n);
  ExecResult r1 = execute(f.p, plain, {.n = n});
  ExecResult r2 = execute(f.p, grouped, {.n = n});
  EXPECT_TRUE(sameArrayContents(f.p, r1, plain, r2, grouped, n));
}

TEST(Regroup, ProfitabilityNoUselessDataInBlocks) {
  // The guaranteed-profitability claim: for a loop that accesses A and B
  // together element-wise, regrouping cannot increase the number of cache
  // blocks fetched.
  ProgramBuilder b("profit");
  const AffineN hi = AffineN::N() - AffineN(1);
  ArrayId a = b.array("A", {AffineN::N()});
  ArrayId c = b.array("B", {AffineN::N()});
  b.loop("i", 0, hi, [&](IxVar i) { b.assign(b.ref(a, {i}), {b.ref(c, {i})}); });
  Program p = b.take();
  Regrouping rg = Regrouping::analyze(p);
  const std::int64_t n = 4096;

  auto l1Misses = [&](const DataLayout& layout) {
    MemoryHierarchy h(MachineConfig::origin2000());
    trace(p, layout, {.n = n}, h);
    return h.counts().l1Misses;
  };
  EXPECT_LE(l1Misses(rg.layout(p, n)), l1Misses(contiguousLayout(p, n)));
}

}  // namespace
}  // namespace gcr
