// Tests for the offset-signature strengthening of "always accessed
// together" — the condition that preserves the paper's guaranteed
// profitability at cache-block granularity (see EXPERIMENTS.md: without it,
// grouping *increased* Swim's L1 misses).
#include <gtest/gtest.h>

#include "cachesim/hierarchy.hpp"
#include "interp/interp.hpp"
#include "ir/builder.hpp"
#include "regroup/regroup.hpp"

namespace gcr {
namespace {

TEST(RegroupSignature, MismatchedRowOffsetsSplitTheGroup) {
  // One loop reads rows i and i-1 of A but only row i of B: grouping their
  // rows would put unused B bytes in every row-(i-1) block.
  ProgramBuilder b("rows");
  const AffineN n = AffineN::N();
  ArrayId a = b.array("A", {n + AffineN(2), n + AffineN(2)});
  ArrayId c = b.array("B", {n + AffineN(2), n + AffineN(2)});
  ArrayId d = b.array("OUT", {n + AffineN(2), n + AffineN(2)});
  b.loop2("i", 1, n, "j", 1, n, [&](IxVar i, IxVar j) {
    b.assign(b.ref(d, {i, j}),
             {b.ref(a, {i, j}), b.ref(a, {i - 1, j}), b.ref(c, {i, j})});
  });
  Program p = b.take();
  Regrouping rg = Regrouping::analyze(p);
  EXPECT_TRUE(rg.groupedWith(a, 0).empty());  // A: rows {0,-1}; B: {0}
}

TEST(RegroupSignature, MatchingOffsetsStayGrouped) {
  // Both A and B read at rows i and i-1: their signatures match, blocks are
  // fully used, grouping stands.
  ProgramBuilder b("match");
  const AffineN n = AffineN::N();
  ArrayId a = b.array("A", {n + AffineN(2), n + AffineN(2)});
  ArrayId c = b.array("B", {n + AffineN(2), n + AffineN(2)});
  ArrayId d = b.array("OUT", {n + AffineN(2), n + AffineN(2)});
  b.loop2("i", 1, n, "j", 1, n, [&](IxVar i, IxVar j) {
    b.assign(b.ref(d, {i, j}),
             {b.ref(a, {i, j}), b.ref(a, {i - 1, j}), b.ref(c, {i, j}),
              b.ref(c, {i - 1, j})});
  });
  Program p = b.take();
  Regrouping rg = Regrouping::analyze(p);
  EXPECT_EQ(rg.groupedWith(a, 0), (std::vector<ArrayId>{c}));
}

TEST(RegroupSignature, ColumnOffsetsCheckedAtInnerDim) {
  // A read at columns j and j-1, B only at j: element-level grouping would
  // waste half of each A/B pair line at column j-1 — must split at dim 1,
  // while row-level grouping (dim 0, both {0}) stands.
  ProgramBuilder b("cols");
  const AffineN n = AffineN::N();
  ArrayId a = b.array("A", {n + AffineN(2), n + AffineN(2)});
  ArrayId c = b.array("B", {n + AffineN(2), n + AffineN(2)});
  ArrayId d = b.array("OUT", {n + AffineN(2), n + AffineN(2)});
  b.loop2("i", 1, n, "j", 1, n, [&](IxVar i, IxVar j) {
    b.assign(b.ref(d, {i, j}),
             {b.ref(a, {i, j}), b.ref(a, {i, j - 1}), b.ref(c, {i, j})});
  });
  Program p = b.take();
  Regrouping rg = Regrouping::analyze(p);
  // Row level: A, B and OUT all have signature {0} -> grouped together.
  EXPECT_EQ(rg.groupedWith(a, 0), (std::vector<ArrayId>{c, d}));
  // Element level: A's {−1, 0} column signature differs -> A separate.
  EXPECT_TRUE(rg.groupedWith(a, 1).empty());
}

TEST(RegroupSignature, GroupingNeverIncreasesFetchedLines) {
  // The profitability guarantee, measured: for stencil loops with mixed
  // offsets, the signature-refined grouping must not increase L1 misses
  // relative to the contiguous layout (fully-associative cache isolates
  // traffic from conflicts).
  ProgramBuilder b("profit2");
  const AffineN n = AffineN::N();
  ArrayId a = b.array("A", {n + AffineN(2), n + AffineN(2)});
  ArrayId c = b.array("B", {n + AffineN(2), n + AffineN(2)});
  ArrayId d = b.array("OUT", {n + AffineN(2), n + AffineN(2)});
  b.loop2("i", 1, n, "j", 1, n, [&](IxVar i, IxVar j) {
    b.assign(b.ref(d, {i, j}),
             {b.ref(a, {i, j}), b.ref(a, {i - 1, j}), b.ref(c, {i, j})});
  });
  Program p = b.take();
  Regrouping rg = Regrouping::analyze(p);
  const std::int64_t size = 512;

  MachineConfig fa = MachineConfig::origin2000();
  fa.l1.ways = 64;  // conflict-free
  auto misses = [&](const DataLayout& layout) {
    MemoryHierarchy h(fa);
    trace(p, layout, {.n = size}, h);
    return h.counts().l1Misses;
  };
  EXPECT_LE(misses(rg.layout(p, size)), misses(contiguousLayout(p, size)));
}

}  // namespace
}  // namespace gcr
