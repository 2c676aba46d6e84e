// The multicore_profile artifact through gcr::Engine: memoized like every
// other artifact, coherent with the direct analyzeMulticore() primitive,
// reachable through the unified submit(Request), persisted to the disk
// store, and keyed by (program, layout, n, timeSteps, topology, cost).
#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "../common/temp_dir.hpp"
#include "engine/engine.hpp"
#include "interp/plan.hpp"
#include "locality/multicore.hpp"
#include "store/codec.hpp"

namespace gcr {
namespace {

CacheTopology smallTopo(int cores) {
  // Scaled-down geometry keeps the simulated footprints interesting at
  // test-sized n.
  return CacheTopology::symmetric(cores).scaledDown(16);
}

TEST(EngineMulticore, WarmProfileIsByteIdenticalToCold) {
  Engine engine;
  Program p = apps::buildApp("ADI");
  ProgramVersion v = engine.version(p, Strategy::Fused);

  const MulticoreProfile cold = engine.multicoreProfile(v, 20, smallTopo(4));
  const MulticoreProfile warm = engine.multicoreProfile(v, 20, smallTopo(4));
  // Cached values replay verbatim.
  EXPECT_EQ(store::encodeMulticoreProfile(cold),
            store::encodeMulticoreProfile(warm));
  const Engine::Stats s = engine.stats();
  EXPECT_EQ(s.multicore.misses, 1u);
  EXPECT_EQ(s.multicore.hits, 1u);
}

TEST(EngineMulticore, EngineAgreesWithDirectAnalysis) {
  Engine engine;
  Program p = apps::buildApp("Swim");
  ProgramVersion v = engine.version(p, Strategy::FusedRegrouped);
  const CacheTopology topo = smallTopo(2);

  MulticoreProfile viaEngine = engine.multicoreProfile(v, 20, topo);

  DataLayout layout = v.layoutAt(20);
  const PlanCompileResult c = compilePlan(v.program, layout, {.n = 20});
  ASSERT_TRUE(c.ok()) << c.reason;
  MulticoreProfile direct = analyzeMulticore(*c.plan, topo);

  EXPECT_EQ(store::encodeMulticoreProfile(viaEngine),
            store::encodeMulticoreProfile(direct));
}

TEST(EngineMulticore, DistinctTopologiesAndCostsAreDistinctKeys) {
  Engine engine;
  Program p = apps::buildApp("ADI");
  ProgramVersion v = engine.version(p, Strategy::NoOpt);

  (void)engine.multicoreProfile(v, 16, smallTopo(2));
  (void)engine.multicoreProfile(v, 16, smallTopo(4));  // different cores
  CacheTopology cyclic = smallTopo(2);
  cyclic.schedule = ParallelSchedule::Cyclic;
  (void)engine.multicoreProfile(v, 16, cyclic);  // different schedule
  MulticoreCostModel cost;
  cost.memoryCost = 120.0;
  (void)engine.multicoreProfile(v, 16, smallTopo(2), 1, cost);  // cost model
  const Engine::Stats s = engine.stats();
  EXPECT_EQ(s.multicore.misses, 4u);
  EXPECT_EQ(s.multicore.hits, 0u);
}

TEST(EngineMulticore, SubmitResolvesToSyncResultAndSharesTheCache) {
  Engine engine;
  Program p = apps::buildApp("ADI");
  ProgramVersion v = engine.version(p, Strategy::Fused);

  Future<Reply> f =
      engine.submit(MulticoreTask{v.clone(), 18, smallTopo(2), 1, {}});
  const MulticoreProfile async = replyAs<MulticoreProfile>(f.get());
  const MulticoreProfile sync = engine.multicoreProfile(v, 18, smallTopo(2));
  EXPECT_EQ(store::encodeMulticoreProfile(async),
            store::encodeMulticoreProfile(sync));
  const Engine::Stats s = engine.stats();
  EXPECT_EQ(s.multicore.misses, 1u);
  EXPECT_EQ(s.multicore.hits + s.inflightCoalesced, 1u);
}

TEST(EngineMulticore, RequestKindMapsToTheSharedArtifactEnum) {
  Program p = apps::buildApp("ADI");
  Engine engine;
  ProgramVersion v = engine.version(p, Strategy::NoOpt);
  const Request req = MulticoreTask{v.clone(), 16, smallTopo(2), 1, {}};
  EXPECT_EQ(requestKind(req), store::ArtifactKind::MulticoreProfile);

  // replyAs enforces the tag: asking a multicore reply for a Measurement
  // throws instead of mis-reading the variant.
  Future<Reply> f = engine.submit(MulticoreTask{v.clone(), 16, smallTopo(2),
                                                1, {}});
  EXPECT_THROW((void)replyAs<Measurement>(f.get()), Error);
  EXPECT_NO_THROW((void)replyAs<MulticoreProfile>(f.get()));
}

TEST(EngineMulticore, PersistsAcrossEngines) {
  testing::ScopedTempDir dir("gcr-engine-multicore");
  Program p = apps::buildApp("Tomcatv");

  std::vector<std::uint8_t> first;
  {
    EngineConfig opts;
    opts.withCacheDir(dir.path()).withStoreFsync(false);
    Engine warm(opts);
    ProgramVersion v = warm.version(p, Strategy::Fused);
    first = store::encodeMulticoreProfile(
        warm.multicoreProfile(v, 20, smallTopo(4)));
    EXPECT_GT(warm.stats().store.puts, 0u);
  }

  EngineConfig opts;
  opts.withCacheDir(dir.path()).withStoreFsync(false);
  Engine cold(opts);
  ProgramVersion v = cold.version(p, Strategy::Fused);
  const std::vector<std::uint8_t> replay = store::encodeMulticoreProfile(
      cold.multicoreProfile(v, 20, smallTopo(4)));
  EXPECT_EQ(replay, first);
  const Engine::Stats s = cold.stats();
  EXPECT_EQ(s.multicore.misses, 1u);  // in-memory miss, served from disk
  EXPECT_GT(s.store.hits, 0u);
  EXPECT_EQ(s.store.corruptRejected, 0u);
}

}  // namespace
}  // namespace gcr
