// Schedule-aware plan replay (interp/schedule.hpp): the per-core slice
// streams of a static parallel schedule must partition the serial stream
// (each slice a subsequence, the union exact), cores == 1 must reproduce
// executePlan instruction for instruction over the whole schedule corpus
// (schedule_corpus.hpp), and the interleaved referee stream must be a
// permutation of the serial stream with the documented round-robin order.
#include "interp/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "driver/pipeline.hpp"
#include "interp/plan.hpp"
#include "interp/schedule_corpus.hpp"
#include "ir/builder.hpp"

namespace gcr {
namespace {

// Heap-allocated so the compiled plan's borrowed Program/DataLayout
// pointers stay stable (the plan must not outlive or out-move them).
struct CompiledVersion {
  ProgramVersion version;
  DataLayout layout;
  PlanCompileResult compiled;

  CompiledVersion(ProgramVersion v, std::int64_t n, std::uint64_t timeSteps)
      : version(std::move(v)), layout(version.layoutAt(n)) {
    compiled = compilePlan(version.program, layout,
                           ExecOptions{.n = n, .timeSteps = timeSteps});
  }
};

std::unique_ptr<CompiledVersion> compileApp(const std::string& app,
                                            Strategy strategy, std::int64_t n,
                                            std::uint64_t timeSteps = 1) {
  Program p = apps::buildApp(app);
  return std::make_unique<CompiledVersion>(makeVersion(p, strategy), n,
                                           timeSteps);
}

std::string instanceKey(const InstrTrace& t, std::size_t i) {
  std::ostringstream os;
  os << t.stmtId(i) << "|" << t.writeAddr(i) << "|";
  for (std::int64_t r : t.reads(i)) os << r << ",";
  return os.str();
}

std::vector<std::string> traceKeys(const InstrTrace& t) {
  std::vector<std::string> keys;
  keys.reserve(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) keys.push_back(instanceKey(t, i));
  return keys;
}

// True iff `sub` appears in `full` in order (as a subsequence).
bool isSubsequence(const std::vector<std::string>& sub,
                   const std::vector<std::string>& full) {
  std::size_t j = 0;
  for (const std::string& k : full) {
    if (j < sub.size() && sub[j] == k) ++j;
  }
  return j == sub.size();
}

// The valued walk (executePlan) and the address-only walk (replaySlice)
// must emit the same stream, over every app, strategy and fuzz program of
// the schedule corpus.
void expectSingleCoreSliceIsSerial(const testing::CorpusCase& c) {
  InstrTrace serial;
  executePlan(c.plan(), c.opts, &serial);
  for (ParallelSchedule sched :
       {ParallelSchedule::Block, ParallelSchedule::Cyclic}) {
    InstrTrace slice;
    replaySlice(c.plan(), {1, 0, sched}, &slice);
    ASSERT_EQ(testing::firstStreamMismatch(serial, slice), -1)
        << c.name << ", " << parallelScheduleName(sched) << ": serial "
        << serial.size() << " instances, slice " << slice.size();
  }
}

TEST(Schedule, SingleCoreSliceReproducesExecutePlan) {
  testing::forEachRegistryCase(expectSingleCoreSliceIsSerial);
  testing::forEachFuzzCase(Strategy::NoOpt, expectSingleCoreSliceIsSerial);
  testing::forEachFuzzCase(Strategy::FusedRegrouped,
                           expectSingleCoreSliceIsSerial);
}

TEST(Schedule, SlicesPartitionTheSerialStream) {
  for (const char* app : {"ADI", "SP"}) {
    SCOPED_TRACE(app);
    const auto c = compileApp(app, Strategy::Fused, 12);
    ASSERT_TRUE(c->compiled.ok()) << c->compiled.reason;
    InstrTrace serialTrace;
    executePlan(*c->compiled.plan, {.n = 12}, &serialTrace);
    const std::vector<std::string> serial = traceKeys(serialTrace);

    for (int cores : {2, 3, 4, 8}) {
      for (ParallelSchedule sched :
           {ParallelSchedule::Block, ParallelSchedule::Cyclic}) {
        SCOPED_TRACE(std::string(parallelScheduleName(sched)) + "/" +
                     std::to_string(cores));
        std::vector<std::string> merged;
        for (int core = 0; core < cores; ++core) {
          InstrTrace t;
          replaySlice(*c->compiled.plan, {cores, core, sched}, &t);
          const std::vector<std::string> keys = traceKeys(t);
          // Every slice preserves serial order: it is a subsequence.
          EXPECT_TRUE(isSubsequence(keys, serial))
              << "core " << core << " stream is not in serial order";
          merged.insert(merged.end(), keys.begin(), keys.end());
        }
        // The slices cover the serial stream exactly once (multiset equality).
        ASSERT_EQ(merged.size(), serial.size());
        std::vector<std::string> a = merged, b = serial;
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        EXPECT_EQ(a, b);
      }
    }
  }
}

TEST(Schedule, BlockAndCyclicAssignTheDocumentedIterations) {
  // One parallel loop, one statement writing A[i]: the write addresses ARE
  // the iteration numbers (times 8), so the slice contents are directly
  // checkable against the schedule definition.
  ProgramBuilder b("onestmt");
  ArrayId a = b.array("A", {AffineN::N() + 1});
  b.loop("i", 0, AffineN::N() - 1,
         [&](IxVar i) { b.assign(b.ref(a, {i}), {}); });
  Program p = b.take();
  const std::int64_t n = 10;  // trips = 10
  DataLayout layout = contiguousLayout(p, n);
  const PlanCompileResult c = compilePlan(p, layout, {.n = n});
  ASSERT_TRUE(c.ok()) << c.reason;

  auto sliceWrites = [&](int cores, int core, ParallelSchedule sched) {
    InstrTrace t;
    replaySlice(*c.plan, {cores, core, sched}, &t);
    std::vector<std::int64_t> iters;
    for (std::size_t i = 0; i < t.size(); ++i)
      iters.push_back(t.writeAddr(i) / 8);
    return iters;
  };

  // Block over 4 cores, 10 trips: chunks of 3,3,2,2.
  EXPECT_EQ(sliceWrites(4, 0, ParallelSchedule::Block),
            (std::vector<std::int64_t>{0, 1, 2}));
  EXPECT_EQ(sliceWrites(4, 1, ParallelSchedule::Block),
            (std::vector<std::int64_t>{3, 4, 5}));
  EXPECT_EQ(sliceWrites(4, 2, ParallelSchedule::Block),
            (std::vector<std::int64_t>{6, 7}));
  EXPECT_EQ(sliceWrites(4, 3, ParallelSchedule::Block),
            (std::vector<std::int64_t>{8, 9}));

  // Cyclic over 4 cores: position p -> core p mod 4.
  EXPECT_EQ(sliceWrites(4, 0, ParallelSchedule::Cyclic),
            (std::vector<std::int64_t>{0, 4, 8}));
  EXPECT_EQ(sliceWrites(4, 1, ParallelSchedule::Cyclic),
            (std::vector<std::int64_t>{1, 5, 9}));
  EXPECT_EQ(sliceWrites(4, 3, ParallelSchedule::Cyclic),
            (std::vector<std::int64_t>{3, 7}));
}

TEST(Schedule, ReversedLoopDistributesExecutionOrder) {
  // A reversed loop's iteration SEQUENCE is its reversed order; Block
  // distributes that sequence, so core 0 owns the highest indices.
  ProgramBuilder b("rev");
  ArrayId a = b.array("A", {AffineN::N() + 2});
  b.loopDown("i", 1, AffineN::N(),
             [&](IxVar i) { b.assign(b.ref(a, {i}), {}); });
  Program p = b.take();
  const std::int64_t n = 6;
  DataLayout layout = contiguousLayout(p, n);
  const PlanCompileResult c = compilePlan(p, layout, {.n = n});
  ASSERT_TRUE(c.ok()) << c.reason;

  InstrTrace t;
  replaySlice(*c.plan, {2, 0, ParallelSchedule::Block}, &t);
  std::vector<std::int64_t> iters;
  for (std::size_t i = 0; i < t.size(); ++i)
    iters.push_back(t.writeAddr(i) / 8);
  EXPECT_EQ(iters, (std::vector<std::int64_t>{6, 5, 4}));
}

TEST(Schedule, InterleavedIsAPermutationOfSerial) {
  for (const char* app : {"ADI", "Swim"}) {
    SCOPED_TRACE(app);
    const auto c = compileApp(app, Strategy::FusedRegrouped, 16,
                                         /*timeSteps=*/2);
    ASSERT_TRUE(c->compiled.ok()) << c->compiled.reason;
    InstrTrace serialTrace;
    executePlan(*c->compiled.plan, {.n = 16, .timeSteps = 2}, &serialTrace);
    std::vector<std::string> serial = traceKeys(serialTrace);
    std::sort(serial.begin(), serial.end());

    for (int cores : {1, 2, 4}) {
      InstrTrace t;
      replayInterleaved(*c->compiled.plan, cores, ParallelSchedule::Block, &t);
      std::vector<std::string> inter = traceKeys(t);
      if (cores == 1) {
        // Degenerate case: exactly the serial stream, order included.
        ASSERT_EQ(t.size(), serialTrace.size());
        for (std::size_t i = 0; i < t.size(); ++i)
          ASSERT_EQ(instanceKey(t, i), instanceKey(serialTrace, i));
      }
      std::sort(inter.begin(), inter.end());
      EXPECT_EQ(inter, serial) << cores << " cores";
    }
  }
}

TEST(Schedule, InterleavedRoundRobinOrder) {
  // Single parallel loop, 2 cores, Block over 6 trips: slices {0,1,2} and
  // {3,4,5} interleave round-robin starting at core 0.
  ProgramBuilder b("rr");
  ArrayId a = b.array("A", {AffineN::N() + 1});
  b.loop("i", 0, AffineN::N() - 1,
         [&](IxVar i) { b.assign(b.ref(a, {i}), {}); });
  Program p = b.take();
  const std::int64_t n = 6;
  DataLayout layout = contiguousLayout(p, n);
  const PlanCompileResult c = compilePlan(p, layout, {.n = n});
  ASSERT_TRUE(c.ok()) << c.reason;

  InstrTrace t;
  replayInterleaved(*c.plan, 2, ParallelSchedule::Block, &t);
  std::vector<std::int64_t> iters;
  for (std::size_t i = 0; i < t.size(); ++i)
    iters.push_back(t.writeAddr(i) / 8);
  EXPECT_EQ(iters, (std::vector<std::int64_t>{0, 3, 1, 4, 2, 5}));
}

}  // namespace
}  // namespace gcr
