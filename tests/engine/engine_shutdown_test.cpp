// Engine destruction under load: ~Engine with submitted tasks still in
// flight must complete every queued job (the pool drains, it does not
// abandon), leak nothing, and fulfill every handed-out future — the
// shutdown contract the server's drain path leans on.  The ordering that
// makes this safe: the thread pool is the LAST member of Engine::Impl, so
// it is destroyed FIRST, and its destructor finishes queued jobs while the
// caches, the in-flight map, and the store are all still alive.  ASan
// (leaks) and TSan (races) run this file in CI.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <vector>

#include "apps/registry.hpp"
#include "engine/engine.hpp"

namespace gcr {
namespace {

bool sameSimulatedFields(const Measurement& a, const Measurement& b) {
  return std::memcmp(&a.counts, &b.counts, sizeof a.counts) == 0 &&
         a.cycles == b.cycles &&
         a.memoryTrafficBytes == b.memoryTrafficBytes &&
         a.effectiveBandwidth == b.effectiveBandwidth;
}

TEST(EngineShutdown, DestructionFulfillsEveryInFlightFuture) {
  const MachineConfig m = MachineConfig::origin2000();
  std::vector<Future<Reply>> futures;
  {
    EngineConfig opts;
    opts.threads = 4;
    Engine engine(opts);
    Program p = apps::buildApp("ADI");
    // Distinct problem sizes: every task is real work, nothing coalesces,
    // so the queue is genuinely full when the destructor runs.
    for (int i = 0; i < 12; ++i) {
      ProgramVersion v = engine.version(
          p, i % 2 == 0 ? Strategy::Fused : Strategy::FusedRegrouped);
      futures.push_back(engine.submit(
          MeasureTask{std::move(v), 24 + 4 * (i / 2), m, 1, CostModel{}}));
    }
  }  // ~Engine while most of the queue has not started

  // The futures outlive the Engine (shared_future-backed) and every one
  // must resolve to a real result — a dropped job would deadlock get(),
  // an abandoned promise would throw broken_promise.
  for (Future<Reply>& f : futures) {
    ASSERT_TRUE(f.valid());
    EXPECT_GT(replyAs<Measurement>(f.get()).counts.refs, 0u);
  }

  // Cross-check values against a fresh engine: draining under destruction
  // must not change what was computed.
  Engine check;
  Program p = apps::buildApp("ADI");
  for (int i = 0; i < 12; ++i) {
    ProgramVersion v = check.version(
        p, i % 2 == 0 ? Strategy::Fused : Strategy::FusedRegrouped);
    const Measurement expect = check.measure(v, 24 + 4 * (i / 2), m);
    EXPECT_TRUE(sameSimulatedFields(
        replyAs<Measurement>(futures[static_cast<std::size_t>(i)].get()),
        expect))
        << "task " << i;
  }
}

TEST(EngineShutdown, DestructionWithDroppedFuturesLeaksNothing) {
  // The caller discards every future before the Engine dies: the pool still
  // finishes the jobs, and the shared state of each abandoned future must
  // be released (ASan flags the leak otherwise).
  const MachineConfig m = MachineConfig::origin2000();
  EngineConfig opts;
  opts.threads = 4;
  Engine engine(opts);
  Program p = apps::buildApp("Swim");
  for (int i = 0; i < 8; ++i) {
    ProgramVersion v = engine.version(p, Strategy::Fused);
    (void)engine.submit(MeasureTask{std::move(v), 20 + 4 * i, m, 1,
                                    CostModel{}});
  }
  // ~Engine at scope exit with all futures already dropped.
}

TEST(EngineShutdown, RepeatedConstructDestroyUnderLoadIsStable) {
  // The server starts and drains engines across its lifetime; a leaked
  // worker thread or an unjoined pool would accumulate across iterations
  // and TSan/ASan would flag it.
  const MachineConfig m = MachineConfig::origin2000();
  Program p = apps::buildApp("Tomcatv");
  for (int round = 0; round < 6; ++round) {
    EngineConfig opts;
    opts.threads = 2;
    Engine engine(opts);
    std::vector<Future<Reply>> futures;
    for (int i = 0; i < 4; ++i) {
      ProgramVersion v = engine.version(p, Strategy::Fused);
      futures.push_back(engine.submit(
          MeasureTask{std::move(v), 16 + 4 * i, m, 1, CostModel{}}));
    }
    // Wait for half, drop the rest mid-flight.
    futures[0].get();
    futures[1].get();
  }
}

TEST(EngineShutdown, DestructionWithPersistentStoreFlushesCleanly) {
  // ~Engine must not tear a store publication: jobs finishing inside the
  // pool destructor publish through a store that is still alive (member
  // order), and everything they published must validate afterwards.
  const MachineConfig m = MachineConfig::origin2000();
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = ::testing::TempDir() + std::string(info->name());
  {
    EngineConfig opts;
    opts.threads = 4;
    opts.cacheDir = dir;
    opts.storeFsync = false;
    Engine engine(opts);
    Program p = apps::buildApp("SP");
    for (int i = 0; i < 6; ++i) {
      ProgramVersion v = engine.version(p, Strategy::Fused);
      (void)engine.submit(
          MeasureTask{std::move(v), 10 + 2 * i, m, 1, CostModel{}});
    }
  }  // drain publishes to the store mid-destruction

  store::ArtifactStore::Options so;
  so.dir = dir;
  auto store = store::ArtifactStore::open(so);
  ASSERT_NE(store, nullptr);
  const auto entries = store->scan();
  EXPECT_FALSE(entries.empty());
  for (const auto& e : entries) EXPECT_TRUE(e.valid) << e.file;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace gcr
