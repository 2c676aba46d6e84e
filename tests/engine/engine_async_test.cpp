// Async scheduler: futures, in-flight deduplication, slot-per-task batch
// determinism across thread counts.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "apps/registry.hpp"
#include "engine/engine.hpp"
#include "ir/print.hpp"

namespace gcr {
namespace {

bool sameSimulatedFields(const Measurement& a, const Measurement& b) {
  return std::memcmp(&a.counts, &b.counts, sizeof a.counts) == 0 &&
         a.cycles == b.cycles &&
         a.memoryTrafficBytes == b.memoryTrafficBytes &&
         a.effectiveBandwidth == b.effectiveBandwidth;
}

TEST(EngineAsync, SubmitResolvesToSyncResult) {
  Engine engine;
  Program p = apps::buildApp("ADI");
  ProgramVersion v = engine.version(p, Strategy::Fused);
  const MachineConfig m = MachineConfig::origin2000();

  Future<Reply> f =
      engine.submit(MeasureTask{v.clone(), 32, m, 1, CostModel{}});
  const Measurement async = replyAs<Measurement>(f.get());
  const Measurement sync = engine.measure(v, 32, m);
  // The second call is a cache hit on the first, so all fields agree.
  EXPECT_TRUE(sameSimulatedFields(async, sync));
}

TEST(EngineAsync, InFlightDuplicatesCoalesceUnderFourThreads) {
  EngineConfig opts;
  opts.threads = 4;
  Engine engine(opts);
  Program p = apps::buildApp("Swim");
  ProgramVersion v = engine.version(p, Strategy::FusedRegrouped);
  const MachineConfig m = MachineConfig::origin2000();

  // 16 identical submissions racing on 4 threads: exactly one simulation
  // runs; every other submission is either coalesced onto the in-flight
  // computation or served from the cache after it lands.
  constexpr int kDup = 16;
  std::vector<Future<Reply>> futures;
  futures.reserve(kDup);
  for (int i = 0; i < kDup; ++i)
    futures.push_back(engine.submit(MeasureTask{v.clone(), 28, m, 2,
                                                CostModel{}}));
  std::vector<Measurement> results;
  results.reserve(kDup);
  for (Future<Reply>& f : futures)
    results.push_back(replyAs<Measurement>(f.get()));

  for (int i = 1; i < kDup; ++i)
    EXPECT_TRUE(sameSimulatedFields(results[0], results[i]));
  // Every submission after the first is either a cache hit (the simulation
  // already landed) or coalesced onto the in-flight computation; the cache
  // ends up with exactly one entry either way.  (A coalescing submission
  // still records a cache miss first, so `misses` alone is timing-dependent.)
  const Engine::Stats s = engine.stats();
  EXPECT_EQ(s.measurement.hits + s.inflightCoalesced,
            static_cast<std::uint64_t>(kDup - 1));
  EXPECT_EQ(s.measurement.entries, 1u);
}

TEST(EngineAsync, PipelineFutureMatchesDirectRun) {
  Engine engine;
  Program p = apps::buildApp("Tomcatv");
  Future<Reply> f =
      engine.submit(PipelineRequest{p.clone(), PipelineOptions{}});
  const PipelineResult& async = replyAs<PipelineResult>(f.get());
  const PipelineResult direct = runPipeline(p);
  EXPECT_EQ(toString(async.program), toString(direct.program));
}

TEST(EngineAsync, MeasureAllKeepsSlotPerTaskOrder) {
  EngineConfig opts;
  opts.threads = 4;
  Engine engine(opts);
  const MachineConfig m = MachineConfig::origin2000();

  // Distinct apps in a deliberate order; result i must describe tasks[i].
  const char* appNames[] = {"SP", "ADI", "Swim", "ADI", "Tomcatv", "SP"};
  const std::int64_t sizes[] = {14, 48, 24, 32, 24, 14};
  std::vector<MeasureTask> tasks;
  for (int i = 0; i < 6; ++i) {
    Program p = apps::buildApp(appNames[i]);
    tasks.push_back(
        {engine.version(p, Strategy::NoOpt), sizes[i], m, 1, CostModel{}});
  }
  const std::vector<Measurement> batch = engine.measureAll(tasks);
  ASSERT_EQ(batch.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    const Measurement solo =
        engine.measure(tasks[static_cast<std::size_t>(i)].version, sizes[i], m);
    EXPECT_TRUE(sameSimulatedFields(batch[static_cast<std::size_t>(i)], solo))
        << "slot " << i << " (" << appNames[i] << ")";
  }
}

TEST(EngineAsync, BatchResultsIdenticalAcrossThreadCounts) {
  const MachineConfig m = MachineConfig::origin2000();
  auto runBatch = [&](int threads) {
    EngineConfig opts;
    opts.threads = threads;
    Engine engine(opts);
    std::vector<MeasureTask> tasks;
    for (const char* app : {"ADI", "Swim", "SP"}) {
      Program p = apps::buildApp(app);
      tasks.push_back({engine.version(p, Strategy::FusedRegrouped),
                       app[0] == 'S' ? 20 : 40, m, 1, CostModel{}});
    }
    return engine.measureAll(tasks);
  };
  const std::vector<Measurement> seq = runBatch(1);
  const std::vector<Measurement> par = runBatch(4);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i)
    EXPECT_TRUE(sameSimulatedFields(seq[i], par[i])) << "slot " << i;
}

TEST(EngineAsync, ReuseProfileBatchMatchesSingle) {
  Engine engine;
  Program p = apps::buildApp("ADI");
  std::vector<ReuseTask> tasks;
  tasks.push_back({engine.version(p, Strategy::NoOpt), 32, 1});
  tasks.push_back({engine.version(p, Strategy::Fused), 32, 1});
  const std::vector<ReuseProfile> batch = engine.reuseProfilesOf(tasks);
  ASSERT_EQ(batch.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const ReuseProfile solo = engine.reuseProfile(tasks[i].version, 32);
    EXPECT_EQ(batch[i].accesses, solo.accesses);
    EXPECT_EQ(batch[i].distinctData, solo.distinctData);
  }
}

}  // namespace
}  // namespace gcr
