#include "engine/engine.hpp"

#include <chrono>
#include <future>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "cachesim/hierarchy.hpp"
#include "interp/interp.hpp"
#include "interp/plan.hpp"
#include "ir/stats.hpp"
#include "locality/sampled_reuse.hpp"
#include "store/codec.hpp"
#include "support/thread_pool.hpp"

namespace gcr {

namespace {

// Leading key-space tags so a plan key can never alias a measurement key
// even over identical component signatures.
constexpr std::uint64_t kPipelineDomain = 0xE1;
constexpr std::uint64_t kPlanDomain = 0xE2;
constexpr std::uint64_t kMeasureDomain = 0xE3;
constexpr std::uint64_t kProfileDomain = 0xE4;
constexpr std::uint64_t kSymbolicDomain = 0xE5;
constexpr std::uint64_t kMulticoreDomain = 0xE6;

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A compiled plan together with the Program clone and DataLayout copy it
/// borrows; heap-allocated via shared_ptr so the borrowed addresses are
/// stable for the plan's whole lifetime (including after cache eviction,
/// while an executing task still holds the shared_ptr).
struct CachedPlan {
  Program program;
  DataLayout layout = DataLayout({}, 0);
  PlanCompileResult compiled;
};

}  // namespace

struct Engine::Impl {
  const EngineConfig config;
  /// GCR_ENGINE=walk (or the explicit config field), resolved once at
  /// construction; see EngineConfig::resolveEngine.
  const bool forceWalk;
  /// Persistent disk tier; nullptr = memory-only.  Thread-safe internally,
  /// so it is consulted from compute lambdas outside `mutex`.
  const std::unique_ptr<store::ArtifactStore> diskStore;

  mutable std::mutex mutex;
  LruCache<Signature, std::shared_ptr<const PipelineResult>, SignatureHash>
      pipelines;
  LruCache<Signature, std::shared_ptr<const CachedPlan>, SignatureHash> plans;
  LruCache<Signature, Measurement, SignatureHash> measurements;
  LruCache<Signature, ReuseProfile, SignatureHash> profiles;
  LruCache<Signature, SymbolicReuseProfile, SignatureHash> symbolics;
  LruCache<Signature, MulticoreProfile, SignatureHash> multicores;

  // Internal dependency stages keep typed in-flight maps (their values are
  // shared_ptrs, not Reply alternatives) ...
  std::unordered_map<Signature,
                     std::shared_future<std::shared_ptr<const PipelineResult>>,
                     SignatureHash>
      inflightPipelines;
  std::unordered_map<Signature,
                     std::shared_future<std::shared_ptr<const CachedPlan>>,
                     SignatureHash>
      inflightPlans;
  // ... while every submit()-visible artifact shares ONE in-flight map of
  // Reply futures, so the async path and the synchronous façade coalesce
  // onto each other.  Domain tags keep keys of different kinds distinct.
  std::unordered_map<Signature, std::shared_future<Reply>, SignatureHash>
      inflightReplies;
  std::uint64_t inflightCoalesced = 0;

  // Declared last so it is destroyed first: the destructor drains pending
  // jobs, which still touch the caches and maps above.
  ThreadPool pool;

  explicit Impl(const EngineConfig& c)
      : config(c),
        forceWalk(c.resolveEngine() == ExecEngine::TreeWalk),
        diskStore(store::ArtifactStore::open({.dir = c.resolveCacheDir(),
                                              .fsync = c.storeFsync,
                                              .maxBytes = c.storeMaxBytes})),
        pipelines(c.pipelineCacheCapacity),
        plans(c.planCacheCapacity),
        measurements(c.measurementCacheCapacity),
        profiles(c.profileCacheCapacity),
        symbolics(c.symbolicCacheCapacity),
        multicores(c.multicoreCacheCapacity),
        pool(c.resolveThreads()) {}

  // Serve from `cache`, attach to an identical in-flight computation, or
  // run `compute` (outside the lock) and publish the result to both the
  // cache and every attached waiter.  Used by the typed dependency stages
  // (pipelines, plans).
  template <typename V, typename Compute>
  V getOrCompute(
      LruCache<Signature, V, SignatureHash>& cache,
      std::unordered_map<Signature, std::shared_future<V>, SignatureHash>&
          inflight,
      const Signature& key, Compute&& compute) {
    std::promise<V> promise;
    {
      std::unique_lock<std::mutex> lock(mutex);
      if (const V* hit = cache.get(key)) return *hit;
      auto it = inflight.find(key);
      if (it != inflight.end()) {
        std::shared_future<V> f = it->second;
        ++inflightCoalesced;
        lock.unlock();
        return f.get();
      }
      inflight.emplace(key, promise.get_future().share());
    }
    try {
      V value = compute();
      {
        std::lock_guard<std::mutex> lock(mutex);
        cache.put(key, value);
        inflight.erase(key);
      }
      promise.set_value(value);
      return value;
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        inflight.erase(key);
      }
      promise.set_exception(std::current_exception());
      throw;
    }
  }

  // Synchronous path of a submit()-visible artifact: serve from the typed
  // cache, coalesce onto the unified Reply in-flight map (which the async
  // path feeds too), or compute on the calling thread and publish to both.
  template <typename V, typename Compute>
  V syncArtifact(LruCache<Signature, V, SignatureHash>& cache,
                 const Signature& key, Compute&& compute) {
    std::promise<Reply> promise;
    {
      std::unique_lock<std::mutex> lock(mutex);
      if (const V* hit = cache.get(key)) return *hit;
      auto it = inflightReplies.find(key);
      if (it != inflightReplies.end()) {
        std::shared_future<Reply> f = it->second;
        ++inflightCoalesced;
        lock.unlock();
        return replyAs<V>(f.get());
      }
      inflightReplies.emplace(key, promise.get_future().share());
    }
    try {
      V value = compute();
      {
        std::lock_guard<std::mutex> lock(mutex);
        cache.put(key, value);
        inflightReplies.erase(key);
      }
      promise.set_value(Reply(value));
      return value;
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        inflightReplies.erase(key);
      }
      promise.set_exception(std::current_exception());
      throw;
    }
  }

  // Async path: cache hit resolves instantly, in-flight duplicate attaches,
  // otherwise `compute` is enqueued on the pool.  `compute` must be
  // copyable (own its inputs via shared_ptr) and is run exactly once.
  template <typename V, typename Compute>
  Future<Reply> asyncArtifact(LruCache<Signature, V, SignatureHash>& cache,
                              const Signature& key, Compute compute) {
    std::shared_ptr<std::promise<Reply>> promise;
    std::shared_future<Reply> result;
    {
      std::unique_lock<std::mutex> lock(mutex);
      if (const V* hit = cache.get(key)) return makeReadyFuture(Reply(*hit));
      auto it = inflightReplies.find(key);
      if (it != inflightReplies.end()) {
        ++inflightCoalesced;
        return Future<Reply>(it->second);
      }
      promise = std::make_shared<std::promise<Reply>>();
      result = promise->get_future().share();
      inflightReplies.emplace(key, result);
    }
    // Enqueue strictly outside the lock: with threads == 1 (or from inside a
    // pool task) the job runs inline before enqueue() returns, and it takes
    // the same mutex.  The job must not throw (enqueue contract).
    pool.enqueue([this, &cache, key, promise, compute = std::move(compute)] {
      try {
        V value = compute();
        {
          std::lock_guard<std::mutex> lock(mutex);
          cache.put(key, value);
          inflightReplies.erase(key);
        }
        promise->set_value(Reply(std::move(value)));
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mutex);
          inflightReplies.erase(key);
        }
        promise->set_exception(std::current_exception());
      }
    });
    return Future<Reply>(std::move(result));
  }

  // --- keys ---------------------------------------------------------------

  static Signature pipelineKey(const Program& p, const PipelineOptions& po) {
    SigHasher h;
    h.u64(kPipelineDomain).sig(programSignature(p));
    // The semantic signature excludes textual names, but pipeline
    // diagnostics embed the program name — include it so two structurally
    // identical apps never swap diagnostic labels.
    h.str(p.name);
    h.sig(pipelineOptionsSignature(po));
    return h.take();
  }

  static Signature planKey(const Program& p, const DataLayout& layout,
                           std::int64_t n, std::uint64_t timeSteps) {
    SigHasher h;
    h.u64(kPlanDomain)
        .sig(programSignature(p))
        .sig(layoutSignature(layout))
        .i64(n)
        .u64(timeSteps);
    return h.take();
  }

  static Signature measurementKey(const Program& p, const DataLayout& layout,
                                  std::int64_t n, std::uint64_t timeSteps,
                                  const MachineConfig& machine,
                                  const CostModel& cost) {
    SigHasher h;
    h.u64(kMeasureDomain)
        .sig(programSignature(p))
        .sig(layoutSignature(layout))
        .i64(n)
        .u64(timeSteps)
        .sig(machineSignature(machine))
        .sig(costSignature(cost));
    return h.take();
  }

  Signature profileKey(const Program& p, const DataLayout& layout,
                       std::int64_t n, std::uint64_t timeSteps) const {
    SigHasher h;
    h.u64(kProfileDomain)
        .sig(programSignature(p))
        .sig(layoutSignature(layout))
        .i64(n)
        .u64(timeSteps)
        .f64(config.sampleRate);
    return h.take();
  }

  static Signature symbolicKey(const Program& p,
                               const SymbolicReuseOptions& o) {
    SigHasher h;
    h.u64(kSymbolicDomain).sig(programSignature(p));
    // The semantic signature excludes textual names, but the profile's site
    // descriptors carry loc/text strings built from them.
    h.str(p.name);
    for (const ArrayDecl& a : p.arrays) h.str(a.name);
    forEachLoop(p, [&](const Loop& l, int) { h.str(l.var); });
    h.i64(o.minN);
    return h.take();
  }

  static Signature multicoreKey(const Program& p, const DataLayout& layout,
                                std::int64_t n, std::uint64_t timeSteps,
                                const CacheTopology& topo,
                                const MulticoreCostModel& cost) {
    SigHasher h;
    h.u64(kMulticoreDomain)
        .sig(programSignature(p))
        .sig(layoutSignature(layout))
        .i64(n)
        .u64(timeSteps)
        .sig(topologySignature(topo))
        .sig(multicoreCostSignature(cost));
    return h.take();
  }

  // --- persistent disk tier -----------------------------------------------

  /// Checksum-validated disk lookup.  An entry that passes the store's
  /// validation but fails to decode (codec version drift) is treated as a
  /// miss; the recompute republishes under the same key.
  template <typename T, typename Decode>
  std::optional<T> loadArtifact(store::ArtifactKind kind, const Signature& key,
                                Decode&& decode) {
    if (!diskStore) return std::nullopt;
    const std::optional<store::MappedEntry> entry = diskStore->get(kind, key);
    if (!entry) return std::nullopt;
    return decode(entry->payload());
  }

  void saveArtifact(store::ArtifactKind kind, const Signature& key,
                    const std::vector<std::uint8_t>& payload) {
    if (diskStore) diskStore->put(kind, key, payload);
  }

  // --- compute stages -----------------------------------------------------

  std::shared_ptr<const PipelineResult> pipelineFor(const Program& p,
                                                    const PipelineOptions& po) {
    const Signature key = pipelineKey(p, po);
    return getOrCompute(pipelines, inflightPipelines, key, [&] {
      if (std::optional<PipelineResult> cached =
              loadArtifact<PipelineResult>(store::ArtifactKind::PipelineResult,
                                           key, store::decodePipelineResult))
        return std::make_shared<const PipelineResult>(std::move(*cached));
      auto r = std::make_shared<const PipelineResult>(runPipeline(p, po));
      saveArtifact(store::ArtifactKind::PipelineResult, key,
                   store::encodePipelineResult(*r));
      return r;
    });
  }

  std::shared_ptr<const CachedPlan> planFor(const Program& p,
                                            const DataLayout& layout,
                                            std::int64_t n,
                                            std::uint64_t timeSteps) {
    const Signature key = planKey(p, layout, n, timeSteps);
    return getOrCompute(plans, inflightPlans, key, [&] {
      auto cp = std::make_shared<CachedPlan>();
      cp->program = p.clone();
      cp->layout = layout;
      cp->compiled = compilePlan(cp->program, cp->layout,
                                 {.n = n, .timeSteps = timeSteps});
      return std::shared_ptr<const CachedPlan>(std::move(cp));
    });
  }

  Measurement measurementFor(const Signature& key,
                             const ProgramVersion& version,
                             const DataLayout& layout, std::int64_t n,
                             std::uint64_t timeSteps,
                             const MachineConfig& machine,
                             const CostModel& cost) {
    if (std::optional<Measurement> cached = loadArtifact<Measurement>(
            store::ArtifactKind::Measurement, key, store::decodeMeasurement))
      return *cached;
    Measurement m =
        computeMeasurement(version, layout, n, timeSteps, machine, cost);
    saveArtifact(store::ArtifactKind::Measurement, key,
                 store::encodeMeasurement(m));
    return m;
  }

  ReuseProfile profileFor(const Signature& key, const ProgramVersion& version,
                          const DataLayout& layout, std::int64_t n,
                          std::uint64_t timeSteps) {
    if (std::optional<ReuseProfile> cached = loadArtifact<ReuseProfile>(
            store::ArtifactKind::ReuseProfile, key, store::decodeReuseProfile))
      return *cached;
    ReuseProfile p = computeProfile(version, layout, n, timeSteps);
    saveArtifact(store::ArtifactKind::ReuseProfile, key,
                 store::encodeReuseProfile(p));
    return p;
  }

  SymbolicReuseProfile symbolicFor(const Signature& key, const Program& p,
                                   const SymbolicReuseOptions& o) {
    if (std::optional<SymbolicReuseProfile> cached =
            loadArtifact<SymbolicReuseProfile>(
                store::ArtifactKind::SymbolicProfile, key,
                store::decodeSymbolicProfile))
      return *cached;
    SymbolicReuseProfile sp = analyzeSymbolicReuse(p, o);
    saveArtifact(store::ArtifactKind::SymbolicProfile, key,
                 store::encodeSymbolicProfile(sp));
    return sp;
  }

  MulticoreProfile multicoreFor(const Signature& key,
                                const ProgramVersion& version,
                                const DataLayout& layout, std::int64_t n,
                                std::uint64_t timeSteps,
                                const CacheTopology& topo,
                                const MulticoreCostModel& cost) {
    if (std::optional<MulticoreProfile> cached =
            loadArtifact<MulticoreProfile>(
                store::ArtifactKind::MulticoreProfile, key,
                store::decodeMulticoreProfile))
      return *cached;
    MulticoreProfile mp =
        computeMulticore(version, layout, n, timeSteps, topo, cost);
    saveArtifact(store::ArtifactKind::MulticoreProfile, key,
                 store::encodeMulticoreProfile(mp));
    return mp;
  }

  Measurement computeMeasurement(const ProgramVersion& version,
                                 const DataLayout& layout, std::int64_t n,
                                 std::uint64_t timeSteps,
                                 const MachineConfig& machine,
                                 const CostModel& cost) {
    // GCR_ENGINE=walk must reach the tree-walking oracle, not a cached
    // plan; gcr::measure() defers to execute()'s own engine dispatch.
    if (forceWalk) return gcr::measure(version, n, machine, timeSteps, cost);
    const auto t0 = std::chrono::steady_clock::now();
    std::shared_ptr<const CachedPlan> plan =
        planFor(version.program, layout, n, timeSteps);
    if (!plan->compiled.ok())
      return gcr::measure(version, n, machine, timeSteps, cost);
    MemoryHierarchy hierarchy(machine);
    executePlan(*plan->compiled.plan, {.n = n, .timeSteps = timeSteps},
                &hierarchy);
    Measurement m;
    m.counts = hierarchy.counts();
    m.cycles = cost.cycles(m.counts);
    m.memoryTrafficBytes = hierarchy.memoryTrafficBytes();
    m.effectiveBandwidth = hierarchy.effectiveBandwidthRatio();
    m.wallSeconds = secondsSince(t0);
    m.accessesPerSecond =
        m.wallSeconds > 0 ? static_cast<double>(m.counts.refs) / m.wallSeconds
                          : 0.0;
    return m;
  }

  ReuseProfile computeProfile(const ProgramVersion& version,
                              const DataLayout& layout, std::int64_t n,
                              std::uint64_t timeSteps) {
    if (forceWalk)
      return reuseProfileOf(version, n, timeSteps, config.sampleRate);
    std::shared_ptr<const CachedPlan> plan =
        planFor(version.program, layout, n, timeSteps);
    if (!plan->compiled.ok())
      return reuseProfileOf(version, n, timeSteps, config.sampleRate);
    const std::uint64_t expectedRefs =
        estimateDynamicRefs(plan->program, n, timeSteps);
    const std::uint64_t dataBytes =
        static_cast<std::uint64_t>(plan->layout.totalBytes());
    if (config.sampleRate >= 1.0) {
      ReuseDistanceSink sink(8);
      sink.reserve(expectedRefs, dataBytes);
      executePlan(*plan->compiled.plan, {.n = n, .timeSteps = timeSteps},
                  &sink);
      return sink.takeProfile();
    }
    SampledReuseSink sink(8, config.sampleRate);
    sink.reserve(expectedRefs, dataBytes);
    executePlan(*plan->compiled.plan, {.n = n, .timeSteps = timeSteps}, &sink);
    return sink.takeProfile();
  }

  MulticoreProfile computeMulticore(const ProgramVersion& version,
                                    const DataLayout& layout, std::int64_t n,
                                    std::uint64_t timeSteps,
                                    const CacheTopology& topo,
                                    const MulticoreCostModel& cost) {
    // The schedule slicer works on compiled plans only: slicing needs the
    // plan's flat loop structure, and the walker has no equivalent.  Every
    // registry app qualifies; a declined program is a hard error rather
    // than a silently serial fallback.
    std::shared_ptr<const CachedPlan> plan =
        planFor(version.program, layout, n, timeSteps);
    GCR_CHECK(plan->compiled.ok(),
              "multicore analysis requires the plan engine: " +
                  plan->compiled.reason);
    // From an async job this runs on a pool thread, so the nested
    // parallelFor inside analyzeMulticore runs its per-core simulations
    // inline — correct either way (results are thread-count independent).
    return analyzeMulticore(*plan->compiled.plan, topo, cost, &pool);
  }

  // --- submit() alternatives ----------------------------------------------

  Future<Reply> submitOne(PipelineRequest request) {
    auto reqPtr = std::make_shared<PipelineRequest>(std::move(request));
    auto promise = std::make_shared<std::promise<Reply>>();
    std::shared_future<Reply> result = promise->get_future().share();
    // Pipeline runs are cheap relative to simulations, and the reply needs
    // its own PipelineResult copy anyway (the type is move-only and the
    // cache keeps the original); pipelineFor() still dedupes and memoizes.
    pool.enqueue([this, reqPtr, promise] {
      try {
        promise->set_value(
            Reply(pipelineFor(reqPtr->program, reqPtr->options)->clone()));
      } catch (...) {
        promise->set_exception(std::current_exception());
      }
    });
    return Future<Reply>(std::move(result));
  }

  Future<Reply> submitOne(MeasureTask task) {
    DataLayout layout = task.version.layoutAt(task.n);
    const Signature key =
        measurementKey(task.version.program, layout, task.n, task.timeSteps,
                       task.machine, task.cost);
    auto taskPtr = std::make_shared<MeasureTask>(std::move(task));
    auto layoutPtr = std::make_shared<DataLayout>(std::move(layout));
    return asyncArtifact(measurements, key, [this, taskPtr, layoutPtr, key] {
      return measurementFor(key, taskPtr->version, *layoutPtr, taskPtr->n,
                            taskPtr->timeSteps, taskPtr->machine,
                            taskPtr->cost);
    });
  }

  Future<Reply> submitOne(ReuseTask task) {
    DataLayout layout = task.version.layoutAt(task.n);
    const Signature key =
        profileKey(task.version.program, layout, task.n, task.timeSteps);
    auto taskPtr = std::make_shared<ReuseTask>(std::move(task));
    auto layoutPtr = std::make_shared<DataLayout>(std::move(layout));
    return asyncArtifact(profiles, key, [this, taskPtr, layoutPtr, key] {
      return profileFor(key, taskPtr->version, *layoutPtr, taskPtr->n,
                        taskPtr->timeSteps);
    });
  }

  Future<Reply> submitOne(SymbolicProfileRequest request) {
    const Signature key = symbolicKey(request.program, request.options);
    auto reqPtr = std::make_shared<SymbolicProfileRequest>(std::move(request));
    return asyncArtifact(symbolics, key, [this, reqPtr, key] {
      return symbolicFor(key, reqPtr->program, reqPtr->options);
    });
  }

  Future<Reply> submitOne(MulticoreTask task) {
    DataLayout layout = task.version.layoutAt(task.n);
    const Signature key =
        multicoreKey(task.version.program, layout, task.n, task.timeSteps,
                     task.topology, task.cost);
    auto taskPtr = std::make_shared<MulticoreTask>(std::move(task));
    auto layoutPtr = std::make_shared<DataLayout>(std::move(layout));
    return asyncArtifact(multicores, key, [this, taskPtr, layoutPtr, key] {
      return computeOrLoadMulticore(key, *taskPtr, *layoutPtr);
    });
  }

  MulticoreProfile computeOrLoadMulticore(const Signature& key,
                                          const MulticoreTask& t,
                                          const DataLayout& layout) {
    return multicoreFor(key, t.version, layout, t.n, t.timeSteps, t.topology,
                        t.cost);
  }
};

Engine::Engine() : Engine(EngineConfig()) {}

Engine::Engine(EngineConfig config) : impl_(std::make_unique<Impl>(config)) {}

Engine::~Engine() = default;

PipelineResult Engine::pipeline(const Program& p, const PipelineOptions& opts) {
  return impl_->pipelineFor(p, opts)->clone();
}

ProgramVersion Engine::version(const Program& p, Strategy strategy,
                               const VersionSpec& spec) {
  const PipelineOptions po = pipelineOptionsFor(strategy, spec);
  return assembleVersion(impl_->pipelineFor(p, po)->clone(), strategy, spec);
}

Measurement Engine::measure(const ProgramVersion& version, std::int64_t n,
                            const MachineConfig& machine,
                            std::uint64_t timeSteps, const CostModel& cost) {
  const DataLayout layout = version.layoutAt(n);
  const Signature key = Impl::measurementKey(version.program, layout, n,
                                             timeSteps, machine, cost);
  return impl_->syncArtifact(impl_->measurements, key, [&] {
    return impl_->measurementFor(key, version, layout, n, timeSteps, machine,
                                 cost);
  });
}

ReuseProfile Engine::reuseProfile(const ProgramVersion& version,
                                  std::int64_t n, std::uint64_t timeSteps) {
  const DataLayout layout = version.layoutAt(n);
  const Signature key =
      impl_->profileKey(version.program, layout, n, timeSteps);
  return impl_->syncArtifact(impl_->profiles, key, [&] {
    return impl_->profileFor(key, version, layout, n, timeSteps);
  });
}

SymbolicReuseProfile Engine::symbolicProfile(const Program& p,
                                             const SymbolicReuseOptions& opts) {
  const Signature key = Impl::symbolicKey(p, opts);
  return impl_->syncArtifact(impl_->symbolics, key,
                             [&] { return impl_->symbolicFor(key, p, opts); });
}

MulticoreProfile Engine::multicoreProfile(const ProgramVersion& version,
                                          std::int64_t n,
                                          const CacheTopology& topology,
                                          std::uint64_t timeSteps,
                                          const MulticoreCostModel& cost) {
  const DataLayout layout = version.layoutAt(n);
  const Signature key = Impl::multicoreKey(version.program, layout, n,
                                           timeSteps, topology, cost);
  return impl_->syncArtifact(impl_->multicores, key, [&] {
    return impl_->multicoreFor(key, version, layout, n, timeSteps, topology,
                               cost);
  });
}

Future<Reply> Engine::submit(Request request) {
  Impl& impl = *impl_;
  return std::visit(
      [&impl](auto&& alternative) {
        return impl.submitOne(std::move(alternative));
      },
      std::move(request));
}

std::vector<Measurement> Engine::measureAll(
    const std::vector<MeasureTask>& tasks) {
  std::vector<Future<Reply>> futures;
  futures.reserve(tasks.size());
  for (const MeasureTask& t : tasks)
    futures.push_back(submit(MeasureTask{t.version.clone(), t.n, t.machine,
                                         t.timeSteps, t.cost}));
  std::vector<Measurement> out;
  out.reserve(tasks.size());
  for (const Future<Reply>& f : futures)
    out.push_back(replyAs<Measurement>(f.get()));
  return out;
}

std::vector<ReuseProfile> Engine::reuseProfilesOf(
    const std::vector<ReuseTask>& tasks) {
  std::vector<Future<Reply>> futures;
  futures.reserve(tasks.size());
  for (const ReuseTask& t : tasks)
    futures.push_back(submit(ReuseTask{t.version.clone(), t.n, t.timeSteps}));
  std::vector<ReuseProfile> out;
  out.reserve(tasks.size());
  for (const Future<Reply>& f : futures)
    out.push_back(replyAs<ReuseProfile>(f.get()));
  return out;
}

Engine::Stats Engine::stats() const {
  Stats s;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    s = Stats{impl_->pipelines.counters(),    impl_->plans.counters(),
              impl_->measurements.counters(), impl_->profiles.counters(),
              impl_->symbolics.counters(),    impl_->multicores.counters(),
              impl_->inflightCoalesced,       store::StoreCounters{}};
  }
  // The store has its own lock; never hold both.
  if (impl_->diskStore) s.store = impl_->diskStore->counters();
  return s;
}

std::string Engine::cacheDirInUse() const {
  return impl_->diskStore ? impl_->diskStore->dir() : std::string();
}

void Engine::clearCaches() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->pipelines.clear();
  impl_->plans.clear();
  impl_->measurements.clear();
  impl_->profiles.clear();
  impl_->symbolics.clear();
  impl_->multicores.clear();
}

}  // namespace gcr
