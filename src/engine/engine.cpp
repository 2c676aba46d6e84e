#include "engine/engine.hpp"

#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "interp/plan.hpp"
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

/// A compiled plan together with the Program clone and DataLayout copy it
/// borrows; heap-allocated via shared_ptr so the borrowed addresses are
/// stable for the plan's whole lifetime (including after cache eviction,
/// while an executing task still holds the shared_ptr).
struct CachedPlan {
  Program program;
  DataLayout layout = DataLayout({}, 0);
  PlanCompileResult compiled;
};

/// One artifact kind's memory tier: finished results under LRU, and the
/// computations in flight.  Both hold the computation's shared future, so
/// publishing a result moves its entry from `pending` to `done`, and a hit
/// hands out the cached future itself.
template <typename V>
struct Tier {
  explicit Tier(std::size_t capacity) : done(capacity) {}
  LruCache<Signature, std::shared_future<V>, SignatureHash> done;
  std::unordered_map<Signature, std::shared_future<V>, SignatureHash> pending;
};

/// The inputs every simulated artifact starts from: the caller's version
/// (borrowed), its layout at n, and the run length.
struct SimInputs {
  SimInputs(const ProgramVersion& v, std::int64_t size, std::uint64_t steps)
      : version(v), layout(v.layoutAt(size)), n(size), timeSteps(steps) {}
  const ProgramVersion& version;
  DataLayout layout;
  std::int64_t n;
  std::uint64_t timeSteps;
};

}  // namespace

struct Engine::Impl {
  const EngineConfig config;
  /// Persistent disk tier; nullptr = memory-only.  Thread-safe internally,
  /// so it is consulted from jobs outside `mutex`.
  const std::unique_ptr<store::ArtifactStore> diskStore;

  /// Guards every Tier and inflightCoalesced.
  mutable std::mutex mutex;
  Tier<Reply> pipelines;
  Tier<std::shared_ptr<const CachedPlan>> plans;
  Tier<Reply> measurements;
  Tier<Reply> profiles;
  Tier<Reply> symbolics;
  Tier<Reply> multicores;
  std::uint64_t inflightCoalesced = 0;

  // Declared last so it is destroyed first: the destructor drains pending
  // jobs, which still touch the tiers above.
  ThreadPool pool;

  explicit Impl(const EngineConfig& c)
      : config(c),
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

  // --- the one artifact path ----------------------------------------------

  /// Every artifact of every kind K — each submit(), each synchronous call,
  /// each compiled plan — is resolved here.  A hit in K's tier returns the
  /// cached future; a duplicate of in-flight work attaches to it; anything
  /// else publishes a pending entry and passes `launch` the job that
  /// produces the result and moves the entry to the cache.  `launch` runs
  /// the job inline or on the pool, handing it inputs that outlive it; it
  /// may move the storage `args` borrows from, so `args` is dead after it.
  template <typename K, typename Launch>
  std::shared_future<typename K::Value> resolve(const typename K::Args& args,
                                                Launch&& launch) {
    using V = typename K::Value;
    const Signature key = K::key(*this, args);
    Tier<V>& tier = K::tier(*this);
    std::shared_ptr<std::promise<V>> promise;
    std::shared_future<V> result;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (const std::shared_future<V>* hit = tier.done.get(key)) return *hit;
      auto it = tier.pending.find(key);
      if (it != tier.pending.end()) {
        ++inflightCoalesced;
        return it->second;
      }
      promise = std::make_shared<std::promise<V>>();
      result = promise->get_future().share();
      tier.pending.emplace(key, result);
    }
    // Launched strictly outside the lock: an inline job takes it again.  The
    // result is cached before the future becomes ready, so whoever sees it
    // ready also sees it cached.  The job must not throw (ThreadPool::enqueue
    // contract).
    launch([this, &tier, key, promise](const typename K::Args& in) {
      try {
        V value(produce<K>(key, in));
        {
          std::lock_guard<std::mutex> lock(mutex);
          tier.done.put(key, std::move(tier.pending.extract(key).mapped()));
        }
        promise->set_value(std::move(value));
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mutex);
          tier.pending.erase(key);
        }
        promise->set_exception(std::current_exception());
      }
    });
    return result;
  }

  /// The disk tier, then the computation: the only code that reads or
  /// writes the store.  An entry that passes the store's validation but
  /// fails to decode (a codec version bump) is a miss; the recompute
  /// republishes under the same key.  Compiled plans are never persisted:
  /// they borrow in-memory pointers.
  template <typename K>
  typename K::Result produce(const Signature& key,
                             const typename K::Args& args) {
    using T = typename K::Result;
    if constexpr (requires { K::kArtifact; }) {
      if (diskStore)
        if (const std::optional<store::MappedEntry> entry =
                diskStore->get(K::kArtifact, key))
          if (std::optional<T> stored = K::decode(entry->payload()))
            return std::move(*stored);
      T fresh = K::compute(*this, args);
      if (diskStore) diskStore->put(K::kArtifact, key, K::encode(fresh));
      return fresh;
    } else {
      return K::compute(*this, args);
    }
  }

  /// resolve() on the calling thread (the synchronous façade and nested
  /// dependencies such as a measurement's plan).
  template <typename K>
  std::shared_future<typename K::Value> resolveHere(
      const typename K::Args& args) {
    return resolve<K>(args, [&](const auto& job) { job(args); });
  }

  /// A copy of K's result, resolved on the calling thread.
  template <typename K>
  typename K::Result get(const typename K::Args& args) {
    return replyAs<typename K::Result>(resolveHere<K>(args).get());
  }

  /// submit(): resolve on the calling thread, compute on the pool.  The
  /// request moves into the job only on a miss.
  template <typename R>
  std::shared_future<Reply> submitOne(R&& request) {
    using K = decltype(kindOf(request));
    return resolve<K>(K::args(request), [&](const auto& job) {
      auto owned = std::make_shared<R>(std::move(request));
      pool.enqueue([job, owned] { job(K::args(*owned)); });
    });
  }

  /// measureAll()/reuseProfilesOf(): slot i holds tasks[i]'s result for any
  /// thread count.  The jobs borrow from `tasks`, so every one of them
  /// finishes before the first result (or failure) is read.
  template <typename R>
  auto batch(const std::vector<R>& tasks) {
    using K = decltype(kindOf(std::declval<const R&>()));
    std::vector<std::shared_future<Reply>> futures;
    futures.reserve(tasks.size());
    for (const R& task : tasks)
      futures.push_back(resolve<K>(K::args(task), [&](const auto& job) {
        pool.enqueue([job, &task] { job(K::args(task)); });
      }));
    for (const std::shared_future<Reply>& f : futures) f.wait();
    std::vector<typename K::Result> out;
    out.reserve(tasks.size());
    for (const std::shared_future<Reply>& f : futures)
      out.push_back(replyAs<typename K::Result>(f.get()));
    return out;
  }

  /// fn(plan) over the cached compiled plan of `s` — the one lookup behind
  /// measurements, reuse profiles and multicore profiles.  A program the
  /// plan compiler declines throws gcr::Error with the compiler's reason
  /// (PlanCompileResult::planOrThrow).
  template <typename Fn>
  auto withPlan(const SimInputs& s, Fn&& fn) {
    const std::shared_ptr<const CachedPlan> plan =
        resolveHere<PlanKind>(s).get();
    return fn(plan->compiled.planOrThrow());
  }

  // --- the traits table: one entry per artifact kind ------------------------
  //
  // Args     the inputs, borrowed (a view the façade builds from its
  //          parameters and submit() from the owned request);
  // Result   what compute() returns; Value is what the tier stores;
  // tier     where it lives in memory;
  // key      its content address (domain tag first; the hash input order is
  //          part of the key and must not change);
  // kArtifact/encode/decode  its store kind and codec (plans have none);
  // compute  the work itself.

  struct PipelineKind {
    struct Args {
      const Program& program;
      const PipelineOptions& options;
    };
    using Result = PipelineResult;
    using Value = Reply;
    static constexpr store::ArtifactKind kArtifact =
        store::ArtifactKind::PipelineResult;
    static constexpr auto encode = store::encodePipelineResult;
    static constexpr auto decode = store::decodePipelineResult;
    static Tier<Value>& tier(Impl& e) { return e.pipelines; }
    static Args args(const PipelineRequest& r) {
      return {r.program, r.options};
    }
    static Signature key(const Impl&, const Args& a) {
      SigHasher h;
      h.u64(kPipelineDomain).sig(programSignature(a.program));
      // The semantic signature excludes textual names, but pipeline
      // diagnostics embed the program name — include it so two structurally
      // identical apps never swap diagnostic labels.
      h.str(a.program.name);
      h.sig(pipelineOptionsSignature(a.options));
      return h.take();
    }
    static Result compute(Impl&, const Args& a) {
      return runPipeline(a.program, a.options);
    }
  };

  struct PlanKind {
    using Args = SimInputs;
    using Result = std::shared_ptr<const CachedPlan>;
    using Value = Result;
    static Tier<Value>& tier(Impl& e) { return e.plans; }
    static Signature key(const Impl&, const Args& s) {
      SigHasher h;
      h.u64(kPlanDomain)
          .sig(programSignature(s.version.program))
          .sig(layoutSignature(s.layout))
          .i64(s.n)
          .u64(s.timeSteps);
      return h.take();
    }
    static Result compute(Impl&, const Args& s) {
      auto cp = std::make_shared<CachedPlan>();
      cp->program = s.version.program.clone();
      cp->layout = s.layout;
      cp->compiled = compilePlan(cp->program, cp->layout,
                                 {.n = s.n, .timeSteps = s.timeSteps});
      return cp;
    }
  };

  struct MeasureKind {
    struct Args {
      SimInputs sim;
      const MachineConfig& machine;
      const CostModel& cost;
    };
    using Result = Measurement;
    using Value = Reply;
    static constexpr store::ArtifactKind kArtifact =
        store::ArtifactKind::Measurement;
    static constexpr auto encode = store::encodeMeasurement;
    static constexpr auto decode = store::decodeMeasurement;
    static Tier<Value>& tier(Impl& e) { return e.measurements; }
    static Args args(const MeasureTask& t) {
      return {{t.version, t.n, t.timeSteps}, t.machine, t.cost};
    }
    static Signature key(const Impl&, const Args& a) {
      SigHasher h;
      h.u64(kMeasureDomain)
          .sig(programSignature(a.sim.version.program))
          .sig(layoutSignature(a.sim.layout))
          .i64(a.sim.n)
          .u64(a.sim.timeSteps)
          .sig(machineSignature(a.machine))
          .sig(costSignature(a.cost));
      return h.take();
    }
    static Result compute(Impl& e, const Args& a) {
      return e.withPlan(a.sim, [&](const AccessPlan& plan) {
        return measureExecution(plan, a.machine, a.cost);
      });
    }
  };

  struct ProfileKind {
    using Args = SimInputs;
    using Result = ReuseProfile;
    using Value = Reply;
    static constexpr store::ArtifactKind kArtifact =
        store::ArtifactKind::ReuseProfile;
    static constexpr auto encode = store::encodeReuseProfile;
    static constexpr auto decode = store::decodeReuseProfile;
    static Tier<Value>& tier(Impl& e) { return e.profiles; }
    static Args args(const ReuseTask& t) {
      return {t.version, t.n, t.timeSteps};
    }
    static Signature key(const Impl& e, const Args& s) {
      SigHasher h;
      h.u64(kProfileDomain)
          .sig(programSignature(s.version.program))
          .sig(layoutSignature(s.layout))
          .i64(s.n)
          .u64(s.timeSteps)
          .f64(e.config.sampleRate);
      return h.take();
    }
    static Result compute(Impl& e, const Args& s) {
      return e.withPlan(s, [&](const AccessPlan& plan) {
        return profileExecution(plan, e.config.sampleRate);
      });
    }
  };

  struct SymbolicKind {
    struct Args {
      const Program& program;
      const SymbolicReuseOptions& options;
    };
    using Result = SymbolicReuseProfile;
    using Value = Reply;
    static constexpr store::ArtifactKind kArtifact =
        store::ArtifactKind::SymbolicProfile;
    static constexpr auto encode = store::encodeSymbolicProfile;
    static constexpr auto decode = store::decodeSymbolicProfile;
    static Tier<Value>& tier(Impl& e) { return e.symbolics; }
    static Args args(const SymbolicProfileRequest& r) {
      return {r.program, r.options};
    }
    static Signature key(const Impl&, const Args& a) {
      SigHasher h;
      h.u64(kSymbolicDomain).sig(programSignature(a.program));
      // The semantic signature excludes textual names, but the profile's
      // site descriptors carry loc/text strings built from them.
      h.str(a.program.name);
      for (const ArrayDecl& d : a.program.arrays) h.str(d.name);
      forEachLoop(a.program, [&](const Loop& l, int) { h.str(l.var); });
      h.i64(a.options.minN);
      return h.take();
    }
    static Result compute(Impl&, const Args& a) {
      return analyzeSymbolicReuse(a.program, a.options);
    }
  };

  struct MulticoreKind {
    struct Args {
      SimInputs sim;
      const CacheTopology& topology;
      const MulticoreCostModel& cost;
    };
    using Result = MulticoreProfile;
    using Value = Reply;
    static constexpr store::ArtifactKind kArtifact =
        store::ArtifactKind::MulticoreProfile;
    static constexpr auto encode = store::encodeMulticoreProfile;
    static constexpr auto decode = store::decodeMulticoreProfile;
    static Tier<Value>& tier(Impl& e) { return e.multicores; }
    static Args args(const MulticoreTask& t) {
      return {{t.version, t.n, t.timeSteps}, t.topology, t.cost};
    }
    static Signature key(const Impl&, const Args& a) {
      SigHasher h;
      h.u64(kMulticoreDomain)
          .sig(programSignature(a.sim.version.program))
          .sig(layoutSignature(a.sim.layout))
          .i64(a.sim.n)
          .u64(a.sim.timeSteps)
          .sig(topologySignature(a.topology))
          .sig(multicoreCostSignature(a.cost));
      return h.take();
    }
    static Result compute(Impl& e, const Args& a) {
      // From a pool job the nested parallelFor inside analyzeMulticore runs
      // its per-core simulations inline — correct either way (results are
      // thread-count independent).
      return e.withPlan(a.sim, [&](const AccessPlan& plan) {
        return analyzeMulticore(plan, a.topology, a.cost, &e.pool);
      });
    }
  };

  // Request alternative -> kind (unevaluated; used by submit and batches).
  static PipelineKind kindOf(const PipelineRequest&);
  static MeasureKind kindOf(const MeasureTask&);
  static ProfileKind kindOf(const ReuseTask&);
  static SymbolicKind kindOf(const SymbolicProfileRequest&);
  static MulticoreKind kindOf(const MulticoreTask&);
};

Engine::Engine() : Engine(EngineConfig()) {}

Engine::Engine(EngineConfig config) : impl_(std::make_unique<Impl>(config)) {}

Engine::~Engine() = default;

PipelineResult Engine::pipeline(const Program& p, const PipelineOptions& opts) {
  return replyAs<PipelineResult>(
             impl_->resolveHere<Impl::PipelineKind>({p, opts}).get())
      .clone();
}

ProgramVersion Engine::version(const Program& p, Strategy strategy,
                               const VersionSpec& spec) {
  return assembleVersion(pipeline(p, pipelineOptionsFor(strategy, spec)),
                         strategy, spec);
}

Measurement Engine::measure(const ProgramVersion& version, std::int64_t n,
                            const MachineConfig& machine,
                            std::uint64_t timeSteps, const CostModel& cost) {
  return impl_->get<Impl::MeasureKind>(
      {{version, n, timeSteps}, machine, cost});
}

ReuseProfile Engine::reuseProfile(const ProgramVersion& version,
                                  std::int64_t n, std::uint64_t timeSteps) {
  return impl_->get<Impl::ProfileKind>({version, n, timeSteps});
}

SymbolicReuseProfile Engine::symbolicProfile(const Program& p,
                                             const SymbolicReuseOptions& opts) {
  return impl_->get<Impl::SymbolicKind>({p, opts});
}

MulticoreProfile Engine::multicoreProfile(const ProgramVersion& version,
                                          std::int64_t n,
                                          const CacheTopology& topology,
                                          std::uint64_t timeSteps,
                                          const MulticoreCostModel& cost) {
  return impl_->get<Impl::MulticoreKind>(
      {{version, n, timeSteps}, topology, cost});
}

Future<Reply> Engine::submit(Request request) {
  return std::visit(
      [this](auto& alternative) {
        return Future<Reply>(impl_->submitOne(std::move(alternative)));
      },
      request);
}

std::vector<Measurement> Engine::measureAll(
    const std::vector<MeasureTask>& tasks) {
  return impl_->batch(tasks);
}

std::vector<ReuseProfile> Engine::reuseProfilesOf(
    const std::vector<ReuseTask>& tasks) {
  return impl_->batch(tasks);
}

Engine::Stats Engine::stats() const {
  Stats s;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    s = Stats{impl_->pipelines.done.counters(),
              impl_->plans.done.counters(),
              impl_->measurements.done.counters(),
              impl_->profiles.done.counters(),
              impl_->symbolics.done.counters(),
              impl_->multicores.done.counters(),
              impl_->inflightCoalesced,
              store::StoreCounters{}};
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
  impl_->pipelines.done.clear();
  impl_->plans.done.clear();
  impl_->measurements.done.clear();
  impl_->profiles.done.clear();
  impl_->symbolics.done.clear();
  impl_->multicores.done.clear();
}

}  // namespace gcr
