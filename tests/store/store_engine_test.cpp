// Engine <-> disk-tier integration: a cold *process* (modelled as a fresh
// Engine, whose in-memory caches are empty) with a warm *disk* must
// reproduce the original results bit-for-bit, while an engine with no store
// computes the same results from scratch, and an entry in a retired codec
// version is recomputed and republished rather than served.
#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>
#include <vector>

#include "../common/random_program.hpp"
#include "../common/sweep_catalog.hpp"
#include "../common/temp_dir.hpp"
#include "apps/registry.hpp"
#include "engine/engine.hpp"
#include "store/codec.hpp"
#include "support/serialize.hpp"

namespace gcr {
namespace {

bool bitIdentical(const Measurement& a, const Measurement& b) {
  return store::encodeMeasurement(a) == store::encodeMeasurement(b);
}

bool sameProfile(const ReuseProfile& a, const ReuseProfile& b) {
  if (a.accesses != b.accesses || a.distinctData != b.distinctData)
    return false;
  if (a.histogram.coldCount() != b.histogram.coldCount()) return false;
  if (a.histogram.highestNonEmptyBin() != b.histogram.highestNonEmptyBin())
    return false;
  for (int bin = 0; bin <= a.histogram.highestNonEmptyBin(); ++bin)
    if (a.histogram.binCount(bin) != b.histogram.binCount(bin)) return false;
  return true;
}

EngineConfig optionsWithDir(const std::string& dir) {
  EngineConfig o;
  o.cacheDir = dir;
  return o;
}

TEST(StoreEngine, WarmDiskColdProcessIsBitForBitIdentical) {
  testing::ScopedTempDir dir("gcr-engine-store");
  const MachineConfig machine = MachineConfig::origin2000();
  const Program p = testing::randomProgram(21, {.allowTwoDim = true});

  Measurement first;
  ReuseProfile firstProfile;
  {
    Engine warm(optionsWithDir(dir.path()));
    const ProgramVersion v = warm.version(p, Strategy::FusedRegrouped);
    first = warm.measure(v, 16, machine);
    firstProfile = warm.reuseProfile(v, 16);
    EXPECT_GT(warm.stats().store.puts, 0u);
    EXPECT_EQ(warm.stats().store.hits, 0u);
  }

  // "Cold process": a brand-new Engine, nothing in memory, same disk.
  Engine cold(optionsWithDir(dir.path()));
  const ProgramVersion v = cold.version(p, Strategy::FusedRegrouped);
  const Measurement replay = cold.measure(v, 16, machine);
  const ReuseProfile replayProfile = cold.reuseProfile(v, 16);

  EXPECT_TRUE(bitIdentical(first, replay));
  EXPECT_TRUE(sameProfile(firstProfile, replayProfile));
  const Engine::Stats s = cold.stats();
  EXPECT_GT(s.store.hits, 0u);
  EXPECT_EQ(s.store.corruptRejected, 0u);
  // All three persisted artifact kinds were served from disk: the pipeline
  // (inside version()), the measurement and the profile.
  EXPECT_GE(s.store.hits, 3u);
}

TEST(StoreEngine, DiskTierMatchesStorelessEngine) {
  testing::ScopedTempDir dir("gcr-engine-store");
  const MachineConfig machine = MachineConfig::origin2000();

  EngineConfig none;
  none.cacheDir = "";  // explicitly no disk tier
  Engine bare(none);
  Engine stored(optionsWithDir(dir.path()));

  for (std::uint64_t seed : {31, 32, 33}) {
    const Program p = testing::randomProgram(seed);
    for (Strategy s : {Strategy::NoOpt, Strategy::FusedRegrouped}) {
      const Measurement want = bare.measure(bare.version(p, s), 16, machine);
      const Measurement got =
          stored.measure(stored.version(p, s), 16, machine);
      EXPECT_TRUE(bitIdentical(want, got))
          << "seed " << seed << " strategy " << static_cast<int>(s);
    }
  }
  EXPECT_EQ(bare.cacheDirInUse(), "");
  EXPECT_EQ(stored.cacheDirInUse(), dir.path());
}

TEST(StoreEngine, WarmDiskReproducesFig9AppSweep) {
  // The fig9/fig10 sweep at test size: a cold process on a warm disk must
  // reproduce it byte for byte, which is what makes BENCH results
  // reproducible across runs, and must compute nothing doing so: every
  // lookup that misses memory is a disk hit.
  testing::ScopedTempDir dir("gcr-engine-store");
  std::vector<std::vector<std::uint8_t>> firstRun;
  {
    Engine warm(optionsWithDir(dir.path()));
    firstRun = testing::runSweepCatalog(warm);
  }

  Engine cold(optionsWithDir(dir.path()));
  const std::vector<std::vector<std::uint8_t>> replay =
      testing::runSweepCatalog(cold);
  ASSERT_EQ(replay.size(), firstRun.size());
  for (std::size_t i = 0; i < firstRun.size(); ++i)
    EXPECT_TRUE(replay[i] == firstRun[i]) << "result " << i;

  const Engine::Stats s = cold.stats();
  EXPECT_EQ(s.measurement.hits, 0u);  // memory was cold
  EXPECT_EQ(s.plan.misses, 0u);       // nothing was simulated
  EXPECT_EQ(s.store.puts, 0u);
  EXPECT_EQ(s.store.misses, 0u);
  EXPECT_EQ(s.store.corruptRejected, 0u);
  EXPECT_EQ(s.store.hits,
            s.pipeline.misses + s.measurement.misses + s.profile.misses);
}

TEST(StoreEngine, CacheDirEnvironmentVariableIsPickedUp) {
  testing::ScopedTempDir dir("gcr-engine-env");
  ASSERT_EQ(::setenv("GCR_CACHE_DIR", dir.path().c_str(), 1), 0);

  {
    Engine byEnv;  // Options::cacheDir nullopt → environment
    EXPECT_EQ(byEnv.cacheDirInUse(), dir.path());

    EngineConfig off;
    off.cacheDir = "";  // explicit empty string beats the environment
    Engine disabled(off);
    EXPECT_EQ(disabled.cacheDirInUse(), "");
  }
  ASSERT_EQ(::unsetenv("GCR_CACHE_DIR"), 0);

  Engine noEnv;
  EXPECT_EQ(noEnv.cacheDirInUse(), "");
}

TEST(StoreEngine, PlanSignaturesAreRecordedNotPersisted) {
  testing::ScopedTempDir dir("gcr-engine-store");
  const MachineConfig machine = MachineConfig::origin2000();
  const Program p = testing::randomProgram(41);

  Engine warm(optionsWithDir(dir.path()));
  (void)warm.measure(warm.version(p, Strategy::NoOpt), 16, machine);
  // The plan was compiled this session and cached in memory...
  EXPECT_EQ(warm.stats().plan.misses, 1u);
  EXPECT_EQ(warm.stats().plan.entries, 1u);
  // ...but nothing plan-shaped was written to disk: every stored object is
  // one of the three serializable kinds.
  store::ArtifactStore::Options sopts;
  sopts.dir = dir.path();
  auto store = store::ArtifactStore::open(sopts);
  ASSERT_NE(store, nullptr);
  for (const auto& e : store->scan()) {
    EXPECT_TRUE(e.valid) << e.file;
    const auto kind = e.header.kind;
    EXPECT_TRUE(kind == store::ArtifactKind::PipelineResult ||
                kind == store::ArtifactKind::Measurement ||
                kind == store::ArtifactKind::ReuseProfile)
        << e.file;
  }
}

TEST(StoreEngine, AsyncBatchPathUsesTheDiskTier) {
  testing::ScopedTempDir dir("gcr-engine-store");
  const MachineConfig machine = MachineConfig::origin2000();
  const Program p = testing::randomProgram(51, {.allowTwoDim = true});

  std::vector<MeasureTask> tasks;
  for (std::int64_t n : {8, 12, 16}) {
    MeasureTask t;
    t.version = makeVersion(p, Strategy::Fused);
    t.n = n;
    t.machine = machine;
    tasks.push_back(std::move(t));
  }

  std::vector<Measurement> first;
  {
    Engine warm(optionsWithDir(dir.path()));
    first = warm.measureAll(tasks);
  }
  Engine cold(optionsWithDir(dir.path()));
  const std::vector<Measurement> replay = cold.measureAll(tasks);
  ASSERT_EQ(first.size(), replay.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_TRUE(bitIdentical(first[i], replay[i])) << "task " << i;
  EXPECT_GE(cold.stats().store.hits, tasks.size());
}

TEST(StoreEngine, SymbolicProfilePersistsAcrossEngines) {
  // Symbolic profiles are tiny, pure analysis values — the ideal disk-tier
  // artifact.  A cold process with a warm disk must replay the analysis
  // byte-identically without re-running the dependence scan.
  testing::ScopedTempDir dir("gcr-engine-store");
  const Program p = apps::buildApp("Tomcatv");

  std::vector<std::uint8_t> first;
  {
    Engine warm(optionsWithDir(dir.path()));
    first = store::encodeSymbolicProfile(warm.symbolicProfile(p));
    EXPECT_GT(warm.stats().store.puts, 0u);
  }

  Engine cold(optionsWithDir(dir.path()));
  const std::vector<std::uint8_t> replay =
      store::encodeSymbolicProfile(cold.symbolicProfile(p));
  EXPECT_EQ(replay, first);
  const Engine::Stats s = cold.stats();
  EXPECT_EQ(s.symbolic.misses, 1u);  // in-memory miss, served from disk
  EXPECT_GT(s.store.hits, 0u);
  EXPECT_EQ(s.store.corruptRejected, 0u);

  // A second lookup in the same process comes from memory, not disk.
  const std::uint64_t diskHits = cold.stats().store.hits;
  (void)cold.symbolicProfile(p);
  EXPECT_EQ(cold.stats().symbolic.hits, 1u);
  EXPECT_EQ(cold.stats().store.hits, diskHits);
}

/// A codec-v1 Measurement payload (the format before the wall-clock fields
/// were dropped): every simulated field, then two wall-clock doubles.  The
/// reference count is `sentinel`.
std::vector<std::uint8_t> v1MeasurementPayload(std::uint64_t sentinel) {
  ByteWriter w;
  w.u32(1).u64(sentinel);
  for (int i = 0; i < 6; ++i) w.u64(0);  // the other MissCounts
  w.f64(1.0).u64(0).f64(0.5);            // cycles, traffic, bandwidth
  w.f64(0.25).f64(4.0);                  // the retired wall-clock pair
  return w.take();
}

/// A codec-v1 MulticoreProfile payload: one core whose reference count is
/// `sentinel`, an empty shared histogram, and the retired wall-clock double.
std::vector<std::uint8_t> v1MulticorePayload(std::uint64_t sentinel) {
  ByteWriter w;
  w.u32(1).u32(1).u8(0).u64(64);  // version, cores, Block, LLC lines
  w.u64(1).u64(sentinel);         // one per-core record: refs ...
  for (int i = 0; i < 5; ++i) w.u64(0);  // ... and its other counters
  w.u64(0).u64(0);                // shared histogram: no cold, no bins
  w.u64(0).u64(0);                // shared accesses, shared cold lines
  w.f64(0.0).f64(1.0).f64(0.25);  // miss fraction, cycles, wall clock
  return w.take();
}

TEST(StoreEngine, CodecV1EntriesAreRecomputedAndRepublishedAsV2) {
  testing::ScopedTempDir dir("gcr-engine-store");
  const MachineConfig machine = MachineConfig::origin2000();
  const CacheTopology topo = CacheTopology::symmetric(2).scaledDown(16);
  const Program p = apps::buildApp("ADI");
  constexpr std::uint64_t kSentinel = 0x5e471e1;

  std::vector<std::uint8_t> measured, multicore;
  {
    Engine first(optionsWithDir(dir.path()));
    const ProgramVersion v = first.version(p, Strategy::Fused);
    measured = store::encodeMeasurement(first.measure(v, 24, machine));
    multicore = store::encodeMulticoreProfile(
        first.multicoreProfile(v, 20, topo));
  }

  // Overwrite both published entries with parent-format payloads.
  auto disk = store::ArtifactStore::open({.dir = dir.path(), .fsync = false});
  ASSERT_NE(disk, nullptr);
  std::vector<std::pair<store::ArtifactKind, Signature>> downgraded;
  for (const auto& e : disk->scan()) {
    const store::ArtifactKind kind = e.header.kind;
    if (kind == store::ArtifactKind::Measurement)
      ASSERT_TRUE(disk->put(kind, e.header.signature,
                            v1MeasurementPayload(kSentinel)));
    else if (kind == store::ArtifactKind::MulticoreProfile)
      ASSERT_TRUE(disk->put(kind, e.header.signature,
                            v1MulticorePayload(kSentinel)));
    else
      continue;
    downgraded.emplace_back(kind, e.header.signature);
  }
  ASSERT_EQ(downgraded.size(), 2u);

  // A fresh Engine must not serve the sentinels: it recomputes...
  Engine fresh(optionsWithDir(dir.path()));
  const ProgramVersion v = fresh.version(p, Strategy::Fused);
  EXPECT_EQ(store::encodeMeasurement(fresh.measure(v, 24, machine)), measured);
  EXPECT_EQ(store::encodeMulticoreProfile(fresh.multicoreProfile(v, 20, topo)),
            multicore);

  // ... and republishes the current encoding under the same keys.
  for (const auto& [kind, sig] : downgraded) {
    const std::optional<store::MappedEntry> entry = disk->get(kind, sig);
    ASSERT_TRUE(entry.has_value());
    const std::vector<std::uint8_t> payload(entry->payload().begin(),
                                            entry->payload().end());
    EXPECT_EQ(payload, kind == store::ArtifactKind::Measurement ? measured
                                                                : multicore);
  }
}

}  // namespace
}  // namespace gcr
