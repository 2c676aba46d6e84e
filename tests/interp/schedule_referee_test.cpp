// Differential suite: replaySlice against the shipped slice walker
// (slice_walker.hpp), the test referee for the schedule replays.  For every
// core of every static schedule the two streams must agree instance for
// instance — statement id, reads in order, write — over the whole schedule
// corpus (schedule_corpus.hpp).  Core counts run from 1 to 64, which is more
// than any loop's trip count, so empty, one-iteration and uneven slices all
// occur.  Partition checks alone cannot catch a slice that starts its
// progression at the wrong position of a segment yet still covers the
// stream; this suite can.
#include <gtest/gtest.h>

#include <string>

#include "interp/schedule.hpp"
#include "interp/schedule_corpus.hpp"
#include "interp/slice_walker.hpp"

namespace gcr {
namespace {

using testing::CorpusCase;

void expectSlicesMatchReferee(const CorpusCase& c) {
  for (int cores : {1, 2, 3, 7, 8, 64}) {
    for (ParallelSchedule sched :
         {ParallelSchedule::Block, ParallelSchedule::Cyclic}) {
      for (int core = 0; core < cores; ++core) {
        const ScheduleSlice slice{cores, core, sched};
        InstrTrace referee;
        testing::SliceWalker(c.plan(), slice, &referee).runAll();
        InstrTrace walked;
        replaySlice(c.plan(), slice, &walked);
        ASSERT_EQ(testing::firstStreamMismatch(referee, walked), -1)
            << c.name << ", " << parallelScheduleName(sched) << " core "
            << core << " of " << cores << ": referee " << referee.size()
            << " instances, replaySlice " << walked.size();
      }
    }
  }
}

TEST(ScheduleReferee, RegistryAppsEveryStrategy) {
  testing::forEachRegistryCase(expectSlicesMatchReferee);
}

TEST(ScheduleReferee, FuzzProgramsAsGenerated) {
  testing::forEachFuzzCase(Strategy::NoOpt, expectSlicesMatchReferee);
}

TEST(ScheduleReferee, FuzzProgramsFusedRegrouped) {
  testing::forEachFuzzCase(Strategy::FusedRegrouped, expectSlicesMatchReferee);
}

}  // namespace
}  // namespace gcr
