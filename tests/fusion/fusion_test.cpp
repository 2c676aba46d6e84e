#include "fusion/fusion.hpp"

#include <gtest/gtest.h>

#include "interp/interp.hpp"
#include "ir/builder.hpp"
#include "ir/print.hpp"
#include "ir/stats.hpp"
#include "ir/validate.hpp"
#include "locality/sampled_reuse.hpp"

namespace gcr {
namespace {

// Interpret both versions at a given size and compare all array contents.
::testing::AssertionResult semanticallyEqual(const Program& a,
                                             const Program& b,
                                             std::int64_t n) {
  DataLayout la = contiguousLayout(a, n);
  DataLayout lb = contiguousLayout(b, n);
  ExecResult ra = execute(a, la, {.n = n});
  ExecResult rb = execute(b, lb, {.n = n});
  if (a.arrays.size() != b.arrays.size())
    return ::testing::AssertionFailure() << "array sets differ";
  for (std::size_t ar = 0; ar < a.arrays.size(); ++ar) {
    if (extractArray(ra, la, a, static_cast<ArrayId>(ar), n) !=
        extractArray(rb, lb, b, static_cast<ArrayId>(ar), n))
      return ::testing::AssertionFailure()
             << "array " << a.arrays[ar].name << " differs at n=" << n;
  }
  return ::testing::AssertionSuccess();
}

// Maximum finite reuse distance of a program at size n (element granularity).
std::uint64_t maxReuseDistance(const Program& p, std::int64_t n) {
  DataLayout l = contiguousLayout(p, n);
  ReuseDistanceSink sink(8);
  trace(p, l, {.n = n}, sink);
  const ReuseProfile prof = sink.profile();
  const int top = prof.histogram.highestNonEmptyBin();
  return top < 0 ? 0 : Log2Histogram::binLow(top);
}

TEST(Fusion, TwoDataSharingScansFuseIntoOne) {
  ProgramBuilder b("scans");
  ArrayId a = b.array("A", {AffineN::N()});
  ArrayId c = b.array("B", {AffineN::N()});
  b.loop("i", 0, AffineN::N() - AffineN(1),
         [&](IxVar i) { b.assign(b.ref(a, {i}), {b.ref(a, {i})}); });
  b.loop("i", 0, AffineN::N() - AffineN(1),
         [&](IxVar i) { b.assign(b.ref(c, {i}), {b.ref(a, {i})}); });
  Program p = b.take();

  FusionReport report;
  Program fused = fuseProgram(p, {}, &report);
  validate(fused);
  EXPECT_EQ(report.fusions, 1);
  EXPECT_EQ(computeStats(fused).numLoops, 1);
  EXPECT_TRUE(semanticallyEqual(p, fused, 40));
}

TEST(Fusion, FusionBoundsReuseDistance) {
  // Before fusion the cross-loop reuse distance grows with N; after fusion
  // it must be a constant independent of N (the paper's central claim).
  ProgramBuilder b("rd");
  ArrayId a = b.array("A", {AffineN::N()});
  ArrayId c = b.array("B", {AffineN::N()});
  ArrayId d = b.array("C", {AffineN::N()});
  b.loop("i", 0, AffineN::N() - AffineN(1),
         [&](IxVar i) { b.assign(b.ref(a, {i}), {b.ref(a, {i})}); });
  b.loop("i", 0, AffineN::N() - AffineN(1),
         [&](IxVar i) { b.assign(b.ref(c, {i}), {b.ref(a, {i})}); });
  b.loop("i", 0, AffineN::N() - AffineN(1),
         [&](IxVar i) { b.assign(b.ref(d, {i}), {b.ref(c, {i})}); });
  Program p = b.take();
  Program fused = fuseProgram(p);

  const std::uint64_t small = maxReuseDistance(fused, 64);
  const std::uint64_t large = maxReuseDistance(fused, 512);
  EXPECT_EQ(small, large) << "fused reuse distance must not grow with N";
  EXPECT_LT(large, 64u);
  // The original grows.
  EXPECT_GT(maxReuseDistance(p, 512), maxReuseDistance(p, 64));
}

TEST(Fusion, AlignmentShiftsStencilConsumer) {
  // L2 reads A[i-2]: fusion aligns by -2 and rewrites subscripts.
  ProgramBuilder b("stencil");
  ArrayId a = b.array("A", {AffineN::N() + AffineN(2)});
  ArrayId c = b.array("B", {AffineN::N() + AffineN(2)});
  b.loop("i", 2, AffineN::N(),
         [&](IxVar i) { b.assign(b.ref(a, {i}), {b.ref(c, {i})}); });
  b.loop("i", 2, AffineN::N(),
         [&](IxVar i) { b.assign(b.ref(c, {i}), {b.ref(a, {i - 2})}); });
  Program p = b.take();
  FusionReport report;
  Program fused = fuseProgram(p, {}, &report);
  validate(fused);
  EXPECT_TRUE(semanticallyEqual(p, fused, 30));
  EXPECT_TRUE(semanticallyEqual(p, fused, 16));
}

TEST(Fusion, PaperFigure4aFullyFuses) {
  // for i=3,N-2: A[i] = f(A[i-1])
  // A[1] = A[N];  A[2] = 0.0
  // for i=3,N:   B[i] = g(A[i-2])
  ProgramBuilder b("fig4a");
  ArrayId a = b.array("A", {AffineN::N() + AffineN(1)});
  ArrayId c = b.array("B", {AffineN::N() + AffineN(1)});
  b.loop("i", 3, AffineN::N() - AffineN(2),
         [&](IxVar i) { b.assign(b.ref(a, {i}), {b.ref(a, {i - 1})}); });
  b.assign(b.ref(a, {cst(1)}), {b.ref(a, {cst(AffineN::N())})});
  b.assign(b.ref(a, {cst(2)}), {});
  b.loop("i", 3, AffineN::N(),
         [&](IxVar i) { b.assign(b.ref(c, {i}), {b.ref(a, {i - 2})}); });
  Program p = b.take();

  FusionReport report;
  Program fused = fuseProgram(p, {}, &report);
  validate(fused);
  // Everything merges into a single loop (embedding + alignment; peeling
  // allowed but not required for correctness of this check).
  EXPECT_EQ(computeStats(fused).numLoopNests, 1);
  EXPECT_GE(report.embeddings, 2);
  for (std::int64_t n : {16, 25, 64})
    EXPECT_TRUE(semanticallyEqual(p, fused, n)) << "n=" << n;
}

TEST(Fusion, PaperFigure4bDoesNotFuseTheLoops) {
  // for i=2,N: A[i] = f(A[i-1]);  A[1] = A[N];  for i=2,N: A[i] = f(A[i-1])
  ProgramBuilder b("fig4b");
  ArrayId a = b.array("A", {AffineN::N() + AffineN(1)});
  b.loop("i", 2, AffineN::N(),
         [&](IxVar i) { b.assign(b.ref(a, {i}), {b.ref(a, {i - 1})}); });
  b.assign(b.ref(a, {cst(1)}), {b.ref(a, {cst(AffineN::N())})});
  b.loop("i", 2, AffineN::N(),
         [&](IxVar i) { b.assign(b.ref(a, {i}), {b.ref(a, {i - 1})}); });
  Program p = b.take();

  FusionReport report;
  Program fused = fuseProgram(p, {}, &report);
  validate(fused);
  // The two recurrences must stay separate loops.
  EXPECT_EQ(report.fusions, 0);
  EXPECT_GE(computeStats(fused).numLoopNests, 2);
  for (std::int64_t n : {16, 33}) EXPECT_TRUE(semanticallyEqual(p, fused, n));
}

TEST(Fusion, EmbeddingPlacesBorderStatement) {
  ProgramBuilder b("embed");
  ArrayId a = b.array("A", {AffineN::N() + AffineN(1)});
  b.loop("i", 1, AffineN::N(),
         [&](IxVar i) { b.assign(b.ref(a, {i}), {b.ref(a, {i - 1})}); });
  b.assign(b.ref(a, {cst(0)}), {b.ref(a, {cst(AffineN::N())})});
  Program p = b.take();
  FusionReport report;
  Program fused = fuseProgram(p, {}, &report);
  validate(fused);
  EXPECT_EQ(report.embeddings, 1);
  EXPECT_EQ(computeStats(fused).numLoopNests, 1);
  for (std::int64_t n : {16, 40}) EXPECT_TRUE(semanticallyEqual(p, fused, n));
}

TEST(Fusion, ReverseEmbeddingPullsOlderStatementIn) {
  // Statement first, then a loop reading its result.
  ProgramBuilder b("rembed");
  ArrayId a = b.array("A", {AffineN::N() + AffineN(1)});
  ArrayId c = b.array("B", {AffineN::N() + AffineN(1)});
  b.assign(b.ref(a, {cst(0)}), {});
  b.loop("i", 1, AffineN::N(),
         [&](IxVar i) { b.assign(b.ref(c, {i}), {b.ref(a, {i - 1})}); });
  Program p = b.take();
  FusionReport report;
  Program fused = fuseProgram(p, {}, &report);
  validate(fused);
  EXPECT_EQ(report.embeddings, 1);
  EXPECT_EQ(computeStats(fused).numLoopNests, 1);
  for (std::int64_t n : {16, 40}) EXPECT_TRUE(semanticallyEqual(p, fused, n));
}

TEST(Fusion, PeelingEnablesFusionAcrossBoundaryConflict) {
  // L1 writes A[0] every iteration; L2 reads A[i-2] (A[0] only at i=2).
  // Peeling L2's first iteration makes the rest fusible.
  ProgramBuilder b("peel");
  ArrayId a = b.array("A", {AffineN::N() + AffineN(1)});
  ArrayId c = b.array("B", {AffineN::N() + AffineN(1)});
  b.loop("i", 2, AffineN::N(),
         [&](IxVar i) { b.assign(b.ref(a, {cst(0)}), {b.ref(c, {i})}); });
  b.loop("i", 2, AffineN::N(),
         [&](IxVar i) { b.assign(b.ref(c, {i}), {b.ref(a, {i - 2})}); });
  Program p = b.take();
  FusionReport report;
  Program fused = fuseProgram(p, {}, &report);
  validate(fused);
  EXPECT_GE(report.peels, 1);
  for (std::int64_t n : {16, 40}) EXPECT_TRUE(semanticallyEqual(p, fused, n));
}

TEST(Fusion, SplittingDisabledOnlySignals) {
  ProgramBuilder b("nosplit");
  ArrayId a = b.array("A", {AffineN::N() + AffineN(1)});
  ArrayId c = b.array("B", {AffineN::N() + AffineN(1)});
  b.loop("i", 2, AffineN::N(),
         [&](IxVar i) { b.assign(b.ref(a, {cst(0)}), {b.ref(c, {i})}); });
  b.loop("i", 2, AffineN::N(),
         [&](IxVar i) { b.assign(b.ref(c, {i}), {b.ref(a, {i - 2})}); });
  Program p = b.take();
  FusionOptions opts;
  opts.enableSplitting = false;
  FusionReport report;
  Program fused = fuseProgram(p, opts, &report);
  EXPECT_EQ(report.peels, 0);
  EXPECT_FALSE(report.signals.empty());
  for (std::int64_t n : {16, 40}) EXPECT_TRUE(semanticallyEqual(p, fused, n));
}

TEST(Fusion, TwoLevelNestsFuseAtBothLevels) {
  ProgramBuilder b("2d");
  const AffineN hi = AffineN::N() - AffineN(1);
  ArrayId a = b.array("A", {AffineN::N(), AffineN::N()});
  ArrayId c = b.array("B", {AffineN::N(), AffineN::N()});
  b.loop2("i", 0, hi, "j", 0, hi, [&](IxVar i, IxVar j) {
    b.assign(b.ref(a, {i, j}), {});
  });
  b.loop2("i", 0, hi, "j", 0, hi, [&](IxVar i, IxVar j) {
    b.assign(b.ref(c, {i, j}), {b.ref(a, {i, j})});
  });
  Program p = b.take();
  FusionReport report;
  Program fused = fuseProgram(p, {}, &report);
  validate(fused);
  const ProgramStats st = computeStats(fused);
  EXPECT_EQ(st.numLoopNests, 1);
  EXPECT_EQ(st.numLoops, 2);  // one i loop, one fused j loop
  EXPECT_EQ(report.fusions, 2);
  EXPECT_TRUE(semanticallyEqual(p, fused, 24));
}

TEST(Fusion, OneLevelFusionLeavesInnerLoopsAlone) {
  ProgramBuilder b("1lvl");
  const AffineN hi = AffineN::N() - AffineN(1);
  ArrayId a = b.array("A", {AffineN::N(), AffineN::N()});
  ArrayId c = b.array("B", {AffineN::N(), AffineN::N()});
  b.loop2("i", 0, hi, "j", 0, hi,
          [&](IxVar i, IxVar j) { b.assign(b.ref(a, {i, j}), {}); });
  b.loop2("i", 0, hi, "j", 0, hi,
          [&](IxVar i, IxVar j) { b.assign(b.ref(c, {i, j}), {b.ref(a, {i, j})}); });
  Program p = b.take();
  Program fused = fuseProgramLevels(p, 1);
  validate(fused);
  const ProgramStats st = computeStats(fused);
  EXPECT_EQ(st.numLoopNests, 1);
  EXPECT_EQ(st.numLoops, 3);  // outer fused; two inner j loops survive
  EXPECT_TRUE(semanticallyEqual(p, fused, 24));
}

TEST(Fusion, StencilNeighborhoodReadsStayCorrect) {
  // Jacobi-like: B[i] = f(A[i-1], A[i], A[i+1]); then A[i] = B[i].
  ProgramBuilder b("jacobi");
  ArrayId a = b.array("A", {AffineN::N() + AffineN(2)});
  ArrayId c = b.array("B", {AffineN::N() + AffineN(2)});
  b.loop("i", 1, AffineN::N(), [&](IxVar i) {
    b.assign(b.ref(c, {i}), {b.ref(a, {i - 1}), b.ref(a, {i}), b.ref(a, {i + 1})});
  });
  b.loop("i", 1, AffineN::N(),
         [&](IxVar i) { b.assign(b.ref(a, {i}), {b.ref(c, {i})}); });
  Program p = b.take();
  FusionReport report;
  Program fused = fuseProgram(p, {}, &report);
  validate(fused);
  // The second loop must shift by at least +1: A[i] may not be overwritten
  // before the first loop reads A[i+1].
  EXPECT_EQ(report.fusions, 1);
  for (std::int64_t n : {16, 41}) EXPECT_TRUE(semanticallyEqual(p, fused, n));
}

TEST(Fusion, IndependentLoopsAreNotFused) {
  // No shared arrays: fusion has no reuse to exploit; loops stay apart.
  ProgramBuilder b("indep");
  ArrayId a = b.array("A", {AffineN::N()});
  ArrayId c = b.array("B", {AffineN::N()});
  b.loop("i", 0, AffineN::N() - AffineN(1),
         [&](IxVar i) { b.assign(b.ref(a, {i}), {}); });
  b.loop("i", 0, AffineN::N() - AffineN(1),
         [&](IxVar i) { b.assign(b.ref(c, {i}), {}); });
  Program p = b.take();
  FusionReport report;
  Program fused = fuseProgram(p, {}, &report);
  EXPECT_EQ(report.fusions, 0);
  EXPECT_EQ(computeStats(fused).numLoopNests, 2);
}

TEST(Fusion, ReportTracksLoopCountsPerLevel) {
  ProgramBuilder b("counts");
  ArrayId a = b.array("A", {AffineN::N()});
  for (int k = 0; k < 4; ++k)
    b.loop("i", 0, AffineN::N() - AffineN(1),
           [&](IxVar i) { b.assign(b.ref(a, {i}), {b.ref(a, {i})}); });
  Program p = b.take();
  FusionReport report;
  fuseProgram(p, {}, &report);
  ASSERT_FALSE(report.loopsPerLevelBefore.empty());
  EXPECT_EQ(report.loopsPerLevelBefore[0], 4);
  EXPECT_EQ(report.loopsPerLevelAfter[0], 1);
}

}  // namespace
}  // namespace gcr
