#include "interp/interp.hpp"

#include <gtest/gtest.h>

#include "ir/builder.hpp"

namespace gcr {
namespace {

// A[i] = f(A[i-1]) for i in 1..N-1 — a linear recurrence.
Program recurrence() {
  ProgramBuilder b("rec");
  ArrayId a = b.array("A", {AffineN::N()});
  b.loop("i", 1, AffineN::N() - AffineN(1),
         [&](IxVar i) { b.assign(b.ref(a, {i}), {b.ref(a, {i - 1})}); });
  return b.take();
}

TEST(Interp, ExecutesAndCounts) {
  Program p = recurrence();
  DataLayout l = contiguousLayout(p, 10);
  ExecResult r = execute(p, l, {.n = 10});
  EXPECT_EQ(r.instrCount, 9u);
}

TEST(Interp, DeterministicAcrossRuns) {
  Program p = recurrence();
  DataLayout l = contiguousLayout(p, 16);
  ExecResult a = execute(p, l, {.n = 16});
  ExecResult b = execute(p, l, {.n = 16});
  EXPECT_EQ(a.memory, b.memory);
}

TEST(Interp, RecurrenceOrderMatters) {
  // Reversing a flow-dependent loop must change the result: each A[i]
  // depends on the freshly-computed A[i-1].
  ProgramBuilder fwd("fwd");
  ArrayId a1 = fwd.array("A", {AffineN::N()});
  fwd.loop("i", 1, AffineN::N() - AffineN(1),
           [&](IxVar i) { fwd.assign(fwd.ref(a1, {i}), {fwd.ref(a1, {i - 1})}); });
  Program pf = fwd.take();

  // Same statement, but iterating only the first iteration is different from
  // the full loop; use guard to cut the range and verify contents change.
  Program pg = pf.clone();
  pg.top[0].node->loop().body[0].guards = {GuardSpec{0, AffineN(1), AffineN(1)}};

  DataLayout lf = contiguousLayout(pf, 12);
  ExecResult rf = execute(pf, lf, {.n = 12});
  ExecResult rg = execute(pg, lf, {.n = 12});
  EXPECT_FALSE(sameArrayContents(pf, rf, lf, rg, lf, 12));
}

TEST(Interp, GuardLimitsExecution) {
  Program p = recurrence();
  p.top[0].node->loop().body[0].guards = {GuardSpec{0, AffineN(3), AffineN(5)}};
  DataLayout l = contiguousLayout(p, 10);
  ExecResult r = execute(p, l, {.n = 10});
  EXPECT_EQ(r.instrCount, 3u);  // i = 3, 4, 5 only
}

TEST(Interp, SameContentsAcrossDifferentLayouts) {
  // A layout change alone must never change logical array contents.
  Program p = recurrence();
  DataLayout l1 = contiguousLayout(p, 10);
  DataLayout l2 = paddedLayout(p, 10, 256);
  ExecResult r1 = execute(p, l1, {.n = 10});
  ExecResult r2 = execute(p, l2, {.n = 10});
  EXPECT_TRUE(sameArrayContents(p, r1, l1, r2, l2, 10));
}

TEST(Interp, BoundsCheckCatchesOverflow) {
  ProgramBuilder b("oob");
  ArrayId a = b.array("A", {AffineN::N()});
  b.loop("i", 0, AffineN::N(),  // one past the end
         [&](IxVar i) { b.assign(b.ref(a, {i}), {}); });
  Program p = b.take();
  DataLayout l = contiguousLayout(p, 8);
  EXPECT_THROW(execute(p, l, {.n = 8}), Error);
}

TEST(Interp, TimeStepsRepeatProgram) {
  Program p = recurrence();
  DataLayout l = contiguousLayout(p, 10);
  ExecResult r = execute(p, l, {.n = 10, .timeSteps = 3});
  EXPECT_EQ(r.instrCount, 27u);
}

TEST(Interp, TraceSinkSeesReadsAndWrite) {
  Program p = recurrence();
  DataLayout l = contiguousLayout(p, 4);
  InstrTrace t;
  trace(p, l, {.n = 4}, t);
  ASSERT_EQ(t.size(), 3u);
  // First instance: reads A[0] (addr 0), writes A[1] (addr 8).
  EXPECT_EQ(t.reads(0).size(), 1u);
  EXPECT_EQ(t.reads(0)[0], 0);
  EXPECT_EQ(t.writeAddr(0), 8);
  // Statement id is stable across instances.
  EXPECT_EQ(t.stmtId(0), t.stmtId(2));
}

TEST(Interp, ExtractArrayIsLogicalOrder) {
  ProgramBuilder b("extract");
  ArrayId a = b.array("A", {AffineN(2), AffineN(3)});
  b.loop2("i", 0, 1, "j", 0, 2,
          [&](IxVar i, IxVar j) { b.assign(b.ref(a, {i, j}), {}); });
  Program p = b.take();
  DataLayout l = contiguousLayout(p, 1);
  ExecResult r = execute(p, l, {.n = 1});
  const auto contents = extractArray(r, l, p, a, 1);
  EXPECT_EQ(contents.size(), 6u);
}

}  // namespace
}  // namespace gcr
