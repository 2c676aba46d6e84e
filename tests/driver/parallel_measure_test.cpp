// Determinism of the parallel measurement engine: the Figure-10 version
// sets, swept through Engine::measureAll / Engine::reuseProfilesOf on a
// fresh memory-only Engine with 1, 2, and 4 threads, must produce results
// bit-identical to plain sequential measure() calls — same MissCounts, same
// cycles, same histogram contents.
#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "driver/measure.hpp"
#include "engine/engine.hpp"

namespace gcr {
namespace {

void expectIdentical(const Measurement& a, const Measurement& b,
                     const std::string& what) {
  EXPECT_EQ(a.counts.refs, b.counts.refs) << what;
  EXPECT_EQ(a.counts.l1Misses, b.counts.l1Misses) << what;
  EXPECT_EQ(a.counts.l2Misses, b.counts.l2Misses) << what;
  EXPECT_EQ(a.counts.tlbMisses, b.counts.tlbMisses) << what;
  EXPECT_EQ(a.counts.l2Writebacks, b.counts.l2Writebacks) << what;
  EXPECT_EQ(a.counts.l2Prefetches, b.counts.l2Prefetches) << what;
  EXPECT_EQ(a.counts.l2PrefetchHits, b.counts.l2PrefetchHits) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;  // exact double equality
  EXPECT_EQ(a.memoryTrafficBytes, b.memoryTrafficBytes) << what;
  EXPECT_EQ(a.effectiveBandwidth, b.effectiveBandwidth) << what;
}

/// A fresh memory-only session: nothing cached, no disk tier.
EngineConfig freshSession(int threads) {
  return EngineConfig().withThreads(threads).withCacheDir("");
}

// The Figure-10 version set of one app as a task list.
std::vector<MeasureTask> fig10Tasks(const std::string& app, std::int64_t n,
                                    std::uint64_t steps) {
  Program p = apps::buildApp(app);
  const MachineConfig machine = MachineConfig::origin2000();
  std::vector<MeasureTask> tasks;
  tasks.push_back({.version = makeVersion(p, Strategy::NoOpt),
                   .n = n,
                   .machine = machine,
                   .timeSteps = steps});
  tasks.push_back({.version = makeVersion(p, Strategy::Fused),
                   .n = n,
                   .machine = machine,
                   .timeSteps = steps});
  tasks.push_back({.version = makeVersion(p, Strategy::FusedRegrouped),
                   .n = n,
                   .machine = machine,
                   .timeSteps = steps});
  return tasks;
}

class ParallelMeasureDeterminism
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ParallelMeasureDeterminism, BitIdenticalForEveryThreadCount) {
  const std::string app = GetParam();
  const std::int64_t n = app == "ADI" ? 96 : 48;
  const std::uint64_t steps = 2;
  const std::vector<MeasureTask> tasks = fig10Tasks(app, n, steps);

  // Sequential reference: plain measure() calls, no pool involved.
  std::vector<Measurement> reference;
  for (const MeasureTask& t : tasks)
    reference.push_back(measure(t.version, t.n, t.machine, t.timeSteps));

  for (int threads : {1, 2, 4}) {
    Engine engine(freshSession(threads));
    const std::vector<Measurement> got = engine.measureAll(tasks);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      expectIdentical(got[i], reference[i],
                      app + " version " + std::to_string(i) + " threads " +
                          std::to_string(threads));
  }
}

TEST_P(ParallelMeasureDeterminism, ReuseProfilesBitIdentical) {
  const std::string app = GetParam();
  const std::int64_t n = app == "ADI" ? 96 : 48;
  Program p = apps::buildApp(app);
  std::vector<ReuseTask> tasks;
  tasks.push_back({.version = makeVersion(p, Strategy::NoOpt), .n = n});
  tasks.push_back({.version = makeVersion(p, Strategy::Fused), .n = n});

  std::vector<ReuseProfile> reference;
  for (const ReuseTask& t : tasks)
    reference.push_back(reuseProfileOf(t.version, t.n, t.timeSteps));

  for (int threads : {1, 2, 4}) {
    Engine engine(freshSession(threads));
    const std::vector<ReuseProfile> got = engine.reuseProfilesOf(tasks);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      // Full histogram contents, cold bin included.
      EXPECT_EQ(got[i].histogram.toCsv(), reference[i].histogram.toCsv());
      EXPECT_EQ(got[i].histogram.coldCount(),
                reference[i].histogram.coldCount());
      EXPECT_EQ(got[i].accesses, reference[i].accesses);
      EXPECT_EQ(got[i].distinctData, reference[i].distinctData);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fig10Apps, ParallelMeasureDeterminism,
                         ::testing::Values("ADI", "Swim"));

// Merging per-task histograms through Log2Histogram::merge() must equal the
// histogram of the tasks analyzed one after another only when the tasks are
// disjoint traces; here we only pin down that merge order doesn't matter
// and that totals add up.
TEST(ParallelMeasure, MergedProfileSumsTasks) {
  Program p = apps::buildApp("ADI");
  std::vector<ReuseTask> tasks;
  tasks.push_back({.version = makeVersion(p, Strategy::NoOpt), .n = 32});
  tasks.push_back({.version = makeVersion(p, Strategy::NoOpt), .n = 64});
  Engine engine(freshSession(0));
  const std::vector<ReuseProfile> profs = engine.reuseProfilesOf(tasks);
  const ReuseProfile merged = mergeProfiles(profs);
  EXPECT_EQ(merged.accesses, profs[0].accesses + profs[1].accesses);
  EXPECT_EQ(merged.histogram.totalFinite(),
            profs[0].histogram.totalFinite() +
                profs[1].histogram.totalFinite());
  EXPECT_EQ(merged.histogram.coldCount(), profs[0].histogram.coldCount() +
                                              profs[1].histogram.coldCount());
}

}  // namespace
}  // namespace gcr
