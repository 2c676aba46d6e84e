// EngineConfig (engine/config.hpp): one documented precedence rule —
// explicit config field > GCR_* environment variable > built-in default —
// resolved once at Engine construction.  This file pins the rule for both
// knobs (GCR_THREADS, GCR_CACHE_DIR), the builder chaining, and the
// end-to-end effect on a live Engine; and it holds the Engine's
// measurements and profiles over the schedule corpus to the tree-walking
// referee's full trace.
#include "engine/config.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "apps/registry.hpp"
#include "engine/engine.hpp"
#include "interp/schedule_corpus.hpp"
#include "interp/tree_walker.hpp"
#include "locality/sampled_reuse.hpp"
#include "store/codec.hpp"
#include "support/env.hpp"

namespace gcr {
namespace {

/// Sets an environment variable for the scope, restoring the previous value
/// (or unset state) on exit.  Tests in this binary run in one process, so
/// leakage would poison unrelated tests.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    hadValue_ = old != nullptr;
    if (value != nullptr)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~EnvGuard() {
    if (hadValue_)
      ::setenv(name_.c_str(), saved_.c_str(), 1);
    else
      ::unsetenv(name_.c_str());
  }

 private:
  std::string name_;
  std::string saved_;
  bool hadValue_ = false;
};

TEST(EngineConfig, ThreadsExplicitBeatsEnvBeatsDefault) {
  EnvGuard guard("GCR_THREADS", "3");
  EngineConfig explicit_;
  explicit_.threads = 2;
  EXPECT_EQ(explicit_.resolveThreads(), 2);  // explicit wins over env

  EngineConfig fromEnv;
  EXPECT_EQ(fromEnv.resolveThreads(), 3);  // env wins over default

  EnvGuard unset("GCR_THREADS", nullptr);
  EngineConfig fallback;
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(fallback.resolveThreads(),
            static_cast<int>(hw > 0 ? hw : 1));  // built-in default
}

TEST(EngineConfig, MalformedOrNonPositiveThreadsEnvIsIgnored) {
  for (const char* bad : {"0", "-4", "lots", ""}) {
    EnvGuard guard("GCR_THREADS", bad);
    EXPECT_EQ(env::threads(), 0) << "token '" << bad << "'";
    EngineConfig c;
    EXPECT_GE(c.resolveThreads(), 1) << "token '" << bad << "'";
  }
}

TEST(EngineConfig, CacheDirExplicitBeatsEnvBeatsDefault) {
  EnvGuard guard("GCR_CACHE_DIR", "/tmp/gcr-env-dir");
  EngineConfig explicit_;
  explicit_.withCacheDir("/tmp/gcr-explicit");
  EXPECT_EQ(explicit_.resolveCacheDir(), "/tmp/gcr-explicit");

  // An explicit EMPTY dir is still explicit: it forces memory-only mode
  // even when the environment names a directory.
  EngineConfig memoryOnly;
  memoryOnly.withCacheDir("");
  EXPECT_EQ(memoryOnly.resolveCacheDir(), "");

  EngineConfig fromEnv;
  EXPECT_EQ(fromEnv.resolveCacheDir(), "/tmp/gcr-env-dir");

  EnvGuard unset("GCR_CACHE_DIR", nullptr);
  EngineConfig fallback;
  EXPECT_EQ(fallback.resolveCacheDir(), "");  // default: memory only
}

TEST(EngineConfig, BuilderChainsAndReturnsSelf) {
  EngineConfig c;
  EngineConfig& same = c.withThreads(2)
                           .withSampleRate(0.5)
                           .withCacheDir("/tmp/x")
                           .withStoreFsync(false)
                           .withStoreMaxBytes(1 << 20);
  EXPECT_EQ(&same, &c);
  EXPECT_EQ(c.threads, 2);
  EXPECT_EQ(c.sampleRate, 0.5);
  EXPECT_EQ(c.resolveCacheDir(), "/tmp/x");
  EXPECT_FALSE(c.storeFsync);
  EXPECT_EQ(c.storeMaxBytes, 1u << 20);
}

/// The referee's measurement of a full T-step trace: the tree walker feeds
/// a live hierarchy every step, priced as the hierarchy prices itself.
Measurement walkedMeasurement(const testing::CorpusCase& c, std::uint64_t t,
                              const MachineConfig& m) {
  MemoryHierarchy h(m);
  testing::walkTree(c.version.program, c.layout,
                    {.n = c.opts.n, .timeSteps = t}, &h);
  Measurement out;
  out.counts = h.counts();
  out.cycles = CostModel{}.cycles(out.counts);
  out.memoryTrafficBytes = h.memoryTrafficBytes();
  out.effectiveBandwidth = h.effectiveBandwidthRatio();
  return out;
}

/// The referee's exact reuse profile of a full T-step trace.
ReuseProfile walkedProfile(const testing::CorpusCase& c, std::uint64_t t) {
  ReuseDistanceSink sink(8);
  sink.reserve(static_cast<std::uint64_t>(c.layout.totalBytes()));
  testing::walkTree(c.version.program, c.layout,
                    {.n = c.opts.n, .timeSteps = t}, &sink);
  return sink.profile();
}

TEST(EngineConfig, TreeWalkMatchesTheAddressOnlyPlanOverTheCorpus) {
  // The Engine runs measurements and profiles through the address-only
  // plan walker, one time step at a time until the state repeats, and
  // extrapolates the rest.  Over every evaluation app and corpus strategy
  // at the schedule corpus's sizes, its bytes must equal those of the
  // tree-walking referee's full trace of every step: at T = 2, which runs
  // whole, and at T = 5, which stops early and extrapolates.  Measurements
  // run on the paper's machine (whose TLB takes the stamped ways) and on it
  // scaled down by 256 (a 4-entry recency-ordered TLB and a 128-byte L1).
  Engine engine(EngineConfig().withCacheDir(""));
  const MachineConfig o2k = MachineConfig::origin2000();
  int cases = 0;
  testing::forEachRegistryCase([&](const testing::CorpusCase& c) {
    const std::int64_t n = c.opts.n;
    for (const std::uint64_t t : {std::uint64_t{2}, std::uint64_t{5}}) {
      for (const MachineConfig& m : {o2k, o2k.scaledDown(256)})
        EXPECT_EQ(store::encodeMeasurement(walkedMeasurement(c, t, m)),
                  store::encodeMeasurement(engine.measure(c.version, n, m, t)))
            << c.name << " at T=" << t << " on " << m.name;
      EXPECT_EQ(store::encodeReuseProfile(walkedProfile(c, t)),
                store::encodeReuseProfile(engine.reuseProfile(c.version, n, t)))
          << c.name << " at T=" << t;
    }
    ++cases;
  });
  EXPECT_EQ(cases, 20);
  EXPECT_GT(engine.stats().plan.misses, 0u);
}

TEST(EngineConfig, LiveEngineResolvesPrecedenceAtConstruction) {
  // End to end: with GCR_CACHE_DIR pointing at one directory and the config
  // naming another, artifacts land in the explicit directory only.
  const std::string envDir = ::testing::TempDir() + "gcr_cfg_env";
  const std::string cfgDir = ::testing::TempDir() + "gcr_cfg_explicit";
  std::filesystem::remove_all(envDir);
  std::filesystem::remove_all(cfgDir);
  EnvGuard guard("GCR_CACHE_DIR", envDir.c_str());
  {
    EngineConfig c;
    c.withCacheDir(cfgDir).withStoreFsync(false);
    Engine engine(c);
    Program p = apps::buildApp("ADI");
    ProgramVersion v = engine.version(p, Strategy::Fused);
    (void)engine.measure(v, 16, MachineConfig::origin2000());
  }
  EXPECT_FALSE(std::filesystem::exists(envDir));
  EXPECT_TRUE(std::filesystem::exists(cfgDir));
  EXPECT_FALSE(std::filesystem::is_empty(cfgDir));
  std::error_code ec;
  std::filesystem::remove_all(cfgDir, ec);
}

}  // namespace
}  // namespace gcr
