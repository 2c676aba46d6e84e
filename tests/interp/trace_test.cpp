#include "interp/trace.hpp"

#include <gtest/gtest.h>

namespace gcr {
namespace {

TEST(InstrTrace, RoundTripsInstructions) {
  InstrTrace t;
  const std::int64_t reads0[] = {8, 16};
  const std::int64_t reads1[] = {24};
  t.onInstr(5, reads0, 32);
  t.onInstr(7, reads1, 40);
  t.onInstr(5, {}, 48);

  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.stmtId(0), 5);
  EXPECT_EQ(t.stmtId(1), 7);
  EXPECT_EQ(t.writeAddr(0), 32);
  EXPECT_EQ(t.writeAddr(2), 48);
  ASSERT_EQ(t.reads(0).size(), 2u);
  EXPECT_EQ(t.reads(0)[1], 16);
  ASSERT_EQ(t.reads(1).size(), 1u);
  EXPECT_EQ(t.reads(2).size(), 0u);
}

TEST(CountingSink, CountsInstrsAndRefs) {
  CountingSink s;
  const std::int64_t reads[] = {0, 8, 16};
  s.onInstr(0, reads, 24);
  s.onInstr(1, {}, 32);
  EXPECT_EQ(s.instrs(), 2u);
  EXPECT_EQ(s.refs(), 4u + 1u);
}

TEST(TeeSink, ForwardsToAll) {
  CountingSink a, b;
  TeeSink tee({&a, &b});
  tee.onInstr(0, {}, 8);
  EXPECT_EQ(a.instrs(), 1u);
  EXPECT_EQ(b.instrs(), 1u);
}

// Build a block holding the three instructions of RoundTripsInstructions.
InstrBlock sampleBlock() {
  static const int stmtIds[] = {5, 7, 5};
  static const std::uint64_t offsets[] = {0, 2, 3, 3};  // size()+1 fencepost
  static const std::int64_t pool[] = {8, 16, 24};
  static const std::int64_t writes[] = {32, 40, 48};
  return InstrBlock{stmtIds, offsets, pool, writes};
}

TEST(InstrBlock, ReadsSliceThePool) {
  const InstrBlock b = sampleBlock();
  ASSERT_EQ(b.size(), 3u);
  ASSERT_EQ(b.reads(0).size(), 2u);
  EXPECT_EQ(b.reads(0)[1], 16);
  ASSERT_EQ(b.reads(1).size(), 1u);
  EXPECT_EQ(b.reads(1)[0], 24);
  EXPECT_EQ(b.reads(2).size(), 0u);
}

TEST(InstrSink, DefaultOnBlockReplaysIntoOnInstr) {
  // A sink that only implements onInstr must see blocks instance-by-instance
  // through the compatibility shim.
  class Recorder final : public InstrSink {
   public:
    void onInstr(int stmtId, std::span<const std::int64_t> reads,
                 std::int64_t write) override {
      trace.onInstr(stmtId, reads, write);
    }
    InstrTrace trace;
  };
  Recorder r;
  static_cast<InstrSink&>(r).onBlock(sampleBlock());
  ASSERT_EQ(r.trace.size(), 3u);
  EXPECT_EQ(r.trace.stmtId(1), 7);
  EXPECT_EQ(r.trace.writeAddr(2), 48);
  ASSERT_EQ(r.trace.reads(0).size(), 2u);
  EXPECT_EQ(r.trace.reads(0)[0], 8);
}

TEST(CountingSink, BlockAndInstrPathsAgree) {
  CountingSink byInstr, byBlock;
  const InstrBlock b = sampleBlock();
  static_cast<InstrSink&>(byInstr).InstrSink::onBlock(b);  // shim path
  byBlock.onBlock(b);                                      // bulk path
  EXPECT_EQ(byInstr.instrs(), byBlock.instrs());
  EXPECT_EQ(byInstr.refs(), byBlock.refs());
  EXPECT_EQ(byBlock.instrs(), 3u);
  EXPECT_EQ(byBlock.refs(), 3u + 3u);
}

TEST(InstrTrace, BlockAppendMatchesInstrAppend) {
  InstrTrace byInstr, byBlock;
  const InstrBlock b = sampleBlock();
  static_cast<InstrSink&>(byInstr).InstrSink::onBlock(b);
  // Two bulk appends: the second must rebase read offsets past the first.
  byBlock.onBlock(b);
  byBlock.onBlock(b);
  ASSERT_EQ(byBlock.size(), 2 * byInstr.size());
  for (std::size_t i = 0; i < byBlock.size(); ++i) {
    const std::size_t j = i % byInstr.size();
    EXPECT_EQ(byBlock.stmtId(i), byInstr.stmtId(j));
    EXPECT_EQ(byBlock.writeAddr(i), byInstr.writeAddr(j));
    const auto ra = byBlock.reads(i);
    const auto rb = byInstr.reads(j);
    ASSERT_EQ(ra.size(), rb.size());
    EXPECT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin()));
  }
}

TEST(InstrTrace, ReadPoolOffsetsAreSixtyFourBit) {
  // Regression for the uint32_t offset truncation: a read pool past 2^32
  // entries must not wrap.  The offset type itself is pinned, and the offset
  // math is exercised around a forced-small boundary by seeding the pool via
  // reserve() + appends whose cumulative offsets cross a block edge.
  static_assert(sizeof(InstrTrace::ReadOffset) == 8,
                "read-pool offsets must be 64-bit to index >2^32 reads");
  static_assert(std::is_unsigned_v<InstrTrace::ReadOffset>);
  InstrTrace t;
  t.reserve(8, 16);
  const std::int64_t reads3[] = {1, 2, 3};
  for (int i = 0; i < 5; ++i) t.onInstr(i, reads3, 100 + i);
  // Offsets 0,3,6,9,12 — verify the slices after the boundary of an earlier
  // (hypothetically wrapping) narrow type remain exact.
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_EQ(t.reads(i).size(), 3u);
    EXPECT_EQ(t.reads(i)[2], 3);
    EXPECT_EQ(t.writeAddr(i), 100 + static_cast<std::int64_t>(i));
  }
}

}  // namespace
}  // namespace gcr
