// gcr::Engine — the session runtime and single entry point for optimization
// and measurement.
//
// An Engine owns two cooperating mechanisms:
//
//   1. Content-addressed caches.  Every expensive artifact is memoized under
//      a canonical 128-bit signature of exactly the inputs that determine it
//      (engine/signature.hpp):
//        pipeline      (program, PipelineOptions)            → PipelineResult
//        plan          (program, layout, n, timeSteps)       → compiled
//                                                              AccessPlan
//        measurement   (program, layout, n, timeSteps,
//                       machine, cost)                       → Measurement
//        reuse profile (program, layout, n, timeSteps, rate) → ReuseProfile
//        symbolic      (program, names, minN)                → Symbolic-
//                                                              ReuseProfile
//        multicore     (program, layout, n, timeSteps,
//                       topology, cost)                      → MulticoreProfile
//      Each cache is LRU-bounded with hit/miss/eviction counters (stats()).
//      Every kind is one entry of a private traits table (key, store codec,
//      compute, cache) driven by ONE resolve() path: probe the cache, attach
//      to identical in-flight work, or compute — disk tier first — and
//      publish.  Artifacts hold only simulated or analyzed fields, so the
//      same request yields the same bytes (store/codec.hpp) whether it was
//      computed cold, served from memory, or read back from disk.
//
//   2. An async batch scheduler behind ONE entry point: submit(Request)
//      returns immediately with a Future<Reply>; a hit resolves at once and
//      a miss computes on the session's thread pool.  Request is the tagged
//      variant of every work kind (engine/request.hpp) — its tag doubles as
//      the store's ArtifactKind and the server's wire message kind, so
//      adding an artifact extends one enum, not three APIs.  Identical
//      in-flight work is deduplicated across the async and synchronous paths
//      (two requests for the same signature share one computation), and each
//      task resolves its dependencies through the same path — pipeline, then
//      compiled plan, then simulation — so a sweep over sizes and machines
//      compiles each plan once and runs each distinct simulation once.
//      measureAll()/reuseProfilesOf() keep the slot-per-task contract:
//      result i belongs to tasks[i], bit-identical for any GCR_THREADS.
//
// The synchronous façade resolves on the calling thread (a gcr-server
// session computes on its own thread at any pool size); only submit() and
// the batch calls hand misses to the pool.
//
// Configuration is one record, EngineConfig (engine/config.hpp), with one
// environment-precedence rule: explicit field > GCR_* variable > default.
// Measurements, reuse profiles and multicore profiles all run the cached
// compiled plan; a program the plan compiler declines fails the request
// with gcr::Error carrying the compiler's reason.
//
// Persistent disk tier: with EngineConfig::cacheDir (or the GCR_CACHE_DIR
// environment variable) set, the in-memory caches are backed by an on-disk
// content-addressed artifact store (store/store.hpp).  A miss in memory
// consults the disk before computing; a fresh computation is published to
// both tiers.  A cold *process* with a warm *disk* reproduces the original
// results bit-for-bit, and any disk-level corruption or codec-version
// mismatch degrades to a recompute, never a wrong result.  Compiled plans
// themselves are never persisted: they borrow in-memory pointers, and
// recompiling one is cheap next to the simulation it drives.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/config.hpp"
#include "engine/future.hpp"
#include "engine/lru_cache.hpp"
#include "engine/request.hpp"
#include "engine/signature.hpp"
#include "store/store.hpp"

namespace gcr {

class Engine {
 public:
  /// Aggregated cache observability; see LruCache::counters().
  struct Stats {
    CacheCounters pipeline;
    CacheCounters plan;
    CacheCounters measurement;
    CacheCounters profile;
    CacheCounters symbolic;
    CacheCounters multicore;
    /// Submissions that attached to an identical in-flight computation
    /// instead of starting their own (in-flight deduplication).
    std::uint64_t inflightCoalesced = 0;
    /// Disk-tier counters (all zero when no persistent store is attached).
    store::StoreCounters store;
  };

  Engine();
  explicit Engine(EngineConfig config);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- Synchronous façade -------------------------------------------------

  /// Memoized runPipeline(): a cache hit clones the stored result instead of
  /// re-running the passes.
  PipelineResult pipeline(const Program& p, const PipelineOptions& opts = {});

  /// Memoized makeVersion(): the underlying pipeline run is cached, so
  /// requesting the same (program, strategy, spec) twice — or across
  /// problem sizes and machines — optimizes once.
  ProgramVersion version(const Program& p, Strategy strategy,
                         const VersionSpec& spec = {});

  /// Memoized measure(): simulate `version` at size n on `machine`.  Uses
  /// the plan cache for the address stream.
  Measurement measure(const ProgramVersion& version, std::int64_t n,
                      const MachineConfig& machine,
                      std::uint64_t timeSteps = 1, const CostModel& cost = {});

  /// Memoized reuseProfileOf() at the Engine's configured sampleRate.
  ReuseProfile reuseProfile(const ProgramVersion& version, std::int64_t n,
                            std::uint64_t timeSteps = 1);

  /// Memoized analyzeSymbolicReuse().  Keyed by program signature + names +
  /// minN; persisted as ArtifactKind::SymbolicProfile, so a warm store
  /// answers whole size sweeps without re-running the dependence scan.
  SymbolicReuseProfile symbolicProfile(const Program& p,
                                       const SymbolicReuseOptions& opts = {});

  /// Memoized analyzeMulticore(): per-core private L1/L2 simulation (run
  /// concurrently on the session pool) plus the composed shared-LLC
  /// prediction for `version` at size n under `topology`'s static schedule.
  /// Persisted as ArtifactKind::MulticoreProfile.  Throws when the plan
  /// compiler declines the program (every shipped app qualifies).
  MulticoreProfile multicoreProfile(const ProgramVersion& version,
                                    std::int64_t n,
                                    const CacheTopology& topology,
                                    std::uint64_t timeSteps = 1,
                                    const MulticoreCostModel& cost = {});

  // --- Async batch scheduler ----------------------------------------------

  /// Schedule one unit of work; returns immediately.  The single submission
  /// entry point: every work kind is one alternative of Request
  /// (engine/request.hpp), and the reply holds the same-index alternative —
  /// read it with replyAs<T>().  A duplicate of a cached result resolves
  /// instantly; a duplicate of an in-flight submission (async or
  /// synchronous) shares its computation.
  Future<Reply> submit(Request request);

  /// Batch measure with slot-per-task determinism: result i belongs to
  /// tasks[i] for any thread count.  Each task is memoized and deduplicated
  /// like a submit(), without copying its version.
  std::vector<Measurement> measureAll(const std::vector<MeasureTask>& tasks);

  /// Batch reuse profiling, same contract.
  std::vector<ReuseProfile> reuseProfilesOf(
      const std::vector<ReuseTask>& tasks);

  // --- Observability ------------------------------------------------------

  Stats stats() const;

  /// Directory of the attached persistent store; empty when the disk tier
  /// is disabled (or failed to open).
  std::string cacheDirInUse() const;

  /// Drop every cached artifact from the in-memory tier (counters keep
  /// their totals; the persistent store is untouched).
  void clearCaches();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gcr
