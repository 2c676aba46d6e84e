// Engine memoization: warm results must be byte-identical to the cold
// computation and computed by nothing, agree with the direct (engine-less)
// primitives, and the caches must honor their capacity bounds.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "../common/sweep_catalog.hpp"
#include "analysis/symbolic_reuse.hpp"
#include "apps/registry.hpp"
#include "engine/engine.hpp"
#include "ir/print.hpp"
#include "store/codec.hpp"

namespace gcr {
namespace {

bool sameSimulatedFields(const Measurement& a, const Measurement& b) {
  return std::memcmp(&a.counts, &b.counts, sizeof a.counts) == 0 &&
         a.cycles == b.cycles &&
         a.memoryTrafficBytes == b.memoryTrafficBytes &&
         a.effectiveBandwidth == b.effectiveBandwidth;
}

TEST(EngineCache, WarmMeasurementIsByteIdenticalToCold) {
  Engine engine;
  Program p = apps::buildApp("ADI");
  ProgramVersion v = engine.version(p, Strategy::FusedRegrouped);
  const MachineConfig m = MachineConfig::origin2000();

  const Measurement cold = engine.measure(v, 40, m);
  const Measurement warm = engine.measure(v, 40, m);
  EXPECT_EQ(store::encodeMeasurement(cold), store::encodeMeasurement(warm));
  const Engine::Stats s = engine.stats();
  EXPECT_EQ(s.measurement.hits, 1u);
  EXPECT_EQ(s.measurement.misses, 1u);
}

TEST(EngineCache, WarmSweepComputesNothing) {
  // A warm pass of the fig9/fig10 sweep replays the cold pass's bytes from
  // the memory tier alone: no tier misses, no compiled plan is looked up,
  // and nothing attaches to in-flight work.  Byte identity by itself cannot
  // tell a replay from a recompute; these counters can.
  Engine engine(EngineConfig().withCacheDir(""));
  const std::vector<std::vector<std::uint8_t>> cold =
      testing::runSweepCatalog(engine);
  const Engine::Stats before = engine.stats();
  const std::vector<std::vector<std::uint8_t>> warm =
      testing::runSweepCatalog(engine);
  const Engine::Stats after = engine.stats();

  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i)
    EXPECT_TRUE(warm[i] == cold[i]) << "result " << i;

  const std::pair<const char*, CacheCounters Engine::Stats::*> tiers[] = {
      {"pipeline", &Engine::Stats::pipeline},
      {"plan", &Engine::Stats::plan},
      {"measurement", &Engine::Stats::measurement},
      {"profile", &Engine::Stats::profile},
      {"symbolic", &Engine::Stats::symbolic},
      {"multicore", &Engine::Stats::multicore}};
  for (const auto& [name, tier] : tiers)
    EXPECT_EQ((after.*tier).misses, (before.*tier).misses) << name;
  EXPECT_EQ(after.plan.hits, before.plan.hits);
  EXPECT_EQ(after.inflightCoalesced, before.inflightCoalesced);
  // One hit per request: 4 apps x 4 strategies, and one profile per app.
  EXPECT_EQ(after.measurement.hits - before.measurement.hits, 16u);
  EXPECT_EQ(after.profile.hits - before.profile.hits, 4u);
}

TEST(EngineCache, FreshEnginesEncodeIdenticalBytes) {
  // Artifacts hold simulated fields only, so two sessions that compute the
  // same requests independently agree to the byte.
  const MachineConfig m = MachineConfig::origin2000();
  const CacheTopology topo = CacheTopology::symmetric(2).scaledDown(16);
  const Program p = apps::buildApp("Swim");
  std::vector<std::uint8_t> measured[2], multicore[2];
  for (int i = 0; i < 2; ++i) {
    Engine engine(EngineConfig().withCacheDir(""));
    const ProgramVersion v = engine.version(p, Strategy::FusedRegrouped);
    measured[i] = store::encodeMeasurement(engine.measure(v, 32, m));
    multicore[i] =
        store::encodeMulticoreProfile(engine.multicoreProfile(v, 20, topo));
  }
  EXPECT_EQ(measured[0], measured[1]);
  EXPECT_EQ(multicore[0], multicore[1]);
}

TEST(EngineCache, EngineAgreesWithDirectPrimitives) {
  Engine engine;
  Program p = apps::buildApp("Swim");
  const MachineConfig m = MachineConfig::origin2000();

  ProgramVersion direct = makeVersion(p, Strategy::FusedRegrouped);
  ProgramVersion cached = engine.version(p, Strategy::FusedRegrouped);
  EXPECT_EQ(cached.name, direct.name);
  EXPECT_EQ(toString(cached.program), toString(direct.program));

  const Measurement md = measure(direct, 32, m, 2);
  const Measurement me = engine.measure(cached, 32, m, 2);
  EXPECT_TRUE(sameSimulatedFields(md, me));
}

TEST(EngineCache, VersionRequestsShareOnePipelineRun) {
  Engine engine;
  Program p = apps::buildApp("ADI");
  (void)engine.version(p, Strategy::Fused);
  (void)engine.version(p, Strategy::Fused);
  (void)engine.version(p, Strategy::Fused, VersionSpec{.fusionLevels = 2});
  const Engine::Stats s = engine.stats();
  EXPECT_EQ(s.pipeline.hits, 1u);    // identical request
  EXPECT_EQ(s.pipeline.misses, 2u);  // distinct fusionLevels -> distinct key
}

TEST(EngineCache, PipelineResultsCloneIndependently) {
  Engine engine;
  Program p = apps::buildApp("Tomcatv");
  PipelineResult r1 = engine.pipeline(p);
  PipelineResult r2 = engine.pipeline(p);
  EXPECT_EQ(toString(r1.program), toString(r2.program));
  EXPECT_EQ(r1.diagnostics.size(), r2.diagnostics.size());
  EXPECT_EQ(engine.stats().pipeline.hits, 1u);
}

TEST(EngineCache, ReuseProfileIsMemoized) {
  Engine engine;
  Program p = apps::buildApp("ADI");
  ProgramVersion v = engine.version(p, Strategy::NoOpt);
  const ReuseProfile cold = engine.reuseProfile(v, 48);
  const ReuseProfile warm = engine.reuseProfile(v, 48);
  EXPECT_EQ(cold.accesses, warm.accesses);
  EXPECT_EQ(cold.distinctData, warm.distinctData);
  EXPECT_EQ(cold.histogram.highestNonEmptyBin(),
            warm.histogram.highestNonEmptyBin());
  EXPECT_EQ(engine.stats().profile.hits, 1u);
}

TEST(EngineCache, CapacityOneMeasurementCacheEvicts) {
  EngineConfig opts;
  opts.measurementCacheCapacity = 1;
  Engine engine(opts);
  Program p = apps::buildApp("ADI");
  ProgramVersion v = engine.version(p, Strategy::NoOpt);
  const MachineConfig m = MachineConfig::origin2000();

  const Measurement a1 = engine.measure(v, 32, m);
  const Measurement b1 = engine.measure(v, 40, m);  // evicts the n=32 entry
  const Measurement a2 = engine.measure(v, 32, m);  // recomputed, not cached
  EXPECT_TRUE(sameSimulatedFields(a1, a2));

  const Engine::Stats s = engine.stats();
  EXPECT_EQ(s.measurement.hits, 0u);
  EXPECT_EQ(s.measurement.misses, 3u);
  EXPECT_GE(s.measurement.evictions, 1u);
  EXPECT_EQ(s.measurement.entries, 1u);
  (void)b1;
}

TEST(EngineCache, ClearCachesForcesRecomputeWithIdenticalResults) {
  Engine engine;
  Program p = apps::buildApp("ADI");
  ProgramVersion v = engine.version(p, Strategy::Fused);
  const MachineConfig m = MachineConfig::origin2000();
  const Measurement before = engine.measure(v, 32, m);
  engine.clearCaches();
  const Measurement after = engine.measure(v, 32, m);
  EXPECT_TRUE(sameSimulatedFields(before, after));
  const Engine::Stats s = engine.stats();
  EXPECT_EQ(s.measurement.misses, 2u);
  EXPECT_EQ(s.measurement.hits, 0u);
}

TEST(EngineCache, DistinctMachinesAreDistinctKeys) {
  Engine engine;
  Program p = apps::buildApp("ADI");
  ProgramVersion v = engine.version(p, Strategy::NoOpt);
  (void)engine.measure(v, 32, MachineConfig::origin2000());
  (void)engine.measure(v, 32, MachineConfig::octane());
  EXPECT_EQ(engine.stats().measurement.misses, 2u);
  EXPECT_EQ(engine.stats().measurement.hits, 0u);
}

TEST(EngineCache, SymbolicProfileIsMemoized) {
  Engine engine;
  Program p = apps::buildApp("Swim");
  const SymbolicReuseProfile a = engine.symbolicProfile(p);
  const SymbolicReuseProfile b = engine.symbolicProfile(p);
  Engine::Stats s = engine.stats();
  EXPECT_EQ(s.symbolic.misses, 1u);
  EXPECT_EQ(s.symbolic.hits, 1u);
  // The cached value is the analysis verbatim (byte-identical encoding).
  EXPECT_EQ(store::encodeSymbolicProfile(a),
            store::encodeSymbolicProfile(analyzeSymbolicReuse(p)));
  EXPECT_EQ(store::encodeSymbolicProfile(a), store::encodeSymbolicProfile(b));
  // A different analysis domain is a different key.
  (void)engine.symbolicProfile(p, {.minN = 32});
  s = engine.stats();
  EXPECT_EQ(s.symbolic.misses, 2u);
  EXPECT_EQ(s.symbolic.hits, 1u);
}

TEST(EngineCache, SymbolicSubmitResolvesToSyncResult) {
  Engine engine;
  Program p = apps::buildApp("ADI");
  Future<Reply> f = engine.submit(SymbolicProfileRequest{p.clone(), {}});
  const SymbolicReuseProfile async = replyAs<SymbolicReuseProfile>(f.get());
  const SymbolicReuseProfile sync = engine.symbolicProfile(p);
  EXPECT_EQ(store::encodeSymbolicProfile(async),
            store::encodeSymbolicProfile(sync));
  // The async and sync paths share one cache: one miss, then a hit.
  EXPECT_EQ(engine.stats().symbolic.misses, 1u);
  EXPECT_EQ(engine.stats().symbolic.hits, 1u);
}

}  // namespace
}  // namespace gcr
