#include "sweeps.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <thread>

#include "apps/registry.hpp"
#include "support/prng.hpp"

namespace gcrbench {

gcr::EngineConfig engineConfig(int workerThreads, double sampleRate,
                               const std::string& cacheDir) {
  gcr::EngineConfig c;
  c.threads = workerThreads <= 1 ? 1 : workerThreads + 1;
  c.sampleRate = sampleRate;
  c.engine = gcr::ExecEngine::Plan;
  c.cacheDir = cacheDir;
  c.storeFsync = true;
  return c;
}

const gcr::ProgramVersion& RequestFactory::version(const Key& k) {
  const auto id = std::make_pair(k.app, k.strategy);
  auto it = versions_.find(id);
  if (it == versions_.end())
    it = versions_
             .emplace(id, engine_->version(gcr::apps::buildApp(k.app),
                                           k.strategy))
             .first;
  return it->second;
}

gcr::Request RequestFactory::request(const Key& k) {
  switch (k.kind) {
    case Kind::Measure:
      return gcr::MeasureTask{version(k).clone(), k.n, machine(), k.timeSteps,
                              {}};
    case Kind::Profile:
    case Kind::Sampled:
      return gcr::ReuseTask{version(k).clone(), k.n, k.timeSteps};
    case Kind::Symbolic:
      return gcr::SymbolicProfileRequest{gcr::apps::buildApp(k.app),
                                         {kSymbolicMinN}};
    case Kind::Optimize:
      return gcr::PipelineRequest{gcr::apps::buildApp(k.app),
                                  gcr::pipelineOptionsFor(k.strategy)};
    case Kind::Multicore:
      return gcr::MulticoreTask{version(k).clone(), k.n, topology(),
                                k.timeSteps, {}};
  }
  throw std::logic_error("unknown request kind");
}

Digest replyDigest(const Key& k, const gcr::Reply& r, std::uint64_t* accesses,
                   const gcr::SymbolicEvaluation* eval) {
  std::uint64_t acc = 0;
  Digest d = 0;
  switch (k.kind) {
    case Kind::Measure: {
      const auto& m = gcr::replyAs<gcr::Measurement>(r);
      acc = m.counts.refs;
      d = digestOf(m);
      break;
    }
    case Kind::Profile:
    case Kind::Sampled: {
      const auto& p = gcr::replyAs<gcr::ReuseProfile>(r);
      acc = p.accesses;
      d = digestOf(p);
      break;
    }
    case Kind::Symbolic: {
      const auto& p = gcr::replyAs<gcr::SymbolicReuseProfile>(r);
      d = digestOf(p, eval != nullptr
                          ? *eval
                          : gcr::evaluateSymbolicProfile(p, k.n, k.timeSteps));
      break;
    }
    case Kind::Optimize:
      d = digestOf(gcr::replyAs<gcr::PipelineResult>(r));
      break;
    case Kind::Multicore: {
      const auto& p = gcr::replyAs<gcr::MulticoreProfile>(r);
      acc = p.totalRefs();
      d = digestOf(p);
      break;
    }
  }
  if (accesses != nullptr) *accesses = acc;
  return d;
}

double cacheHitRatio(const gcr::Engine::Stats& st) {
  std::uint64_t hits = 0, lookups = 0;
  for (const gcr::CacheCounters* c : {&st.pipeline, &st.plan, &st.measurement,
                                      &st.profile, &st.symbolic,
                                      &st.multicore}) {
    hits += c->hits;
    lookups += c->hits + c->misses;
  }
  return lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                     : 0.0;
}

namespace {

struct Submitted {
  Key key;
  gcr::Future<gcr::Reply> future;
  double submittedAt = 0;
  double resolvedAt = 0;
  std::optional<gcr::SymbolicEvaluation> eval;
};

/// Submit `keys` in order and poll until every future resolves; returns the
/// phase's wall time.  Symbolic replies are evaluated as they arrive (that
/// evaluation is part of the request's work).
double runPhase(gcr::Engine& engine, RequestFactory& factory,
                const std::vector<Key>& keys, std::vector<Submitted>& out) {
  const double start = now();
  const std::size_t first = out.size();
  for (const Key& k : keys) {
    gcr::Request req = factory.request(k);
    Submitted s{k, {}, now(), 0, std::nullopt};
    s.future = engine.submit(std::move(req));
    out.push_back(std::move(s));
  }
  std::size_t remaining = keys.size();
  while (remaining > 0) {
    for (std::size_t i = first; i < out.size(); ++i) {
      Submitted& s = out[i];
      if (s.resolvedAt > 0 || !s.future.ready()) continue;
      if (s.key.kind == Kind::Symbolic) {
        try {
          s.eval = gcr::evaluateSymbolicProfile(
              gcr::replyAs<gcr::SymbolicReuseProfile>(s.future.get()),
              s.key.n, s.key.timeSteps);
        } catch (const std::exception&) {
          // Reported as a failed request by the digest pass.
        }
      }
      s.resolvedAt = now();
      --remaining;
    }
    if (remaining > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return now() - start;
}

/// Re-submit every key to the (now warm) Engine: memory-tier hits, checked
/// against the referee like the cold replies.
void warmReplay(gcr::Engine& engine, RequestFactory& factory,
                const std::vector<Key>& keys, const Referee& referee,
                SweepBatch& out) {
  for (const Key& k : keys) {
    gcr::Request req = factory.request(k);
    const double t0 = now();
    gcr::Future<gcr::Reply> f = engine.submit(std::move(req));
    ++out.attempted;
    try {
      const gcr::Reply& r = f.get();
      const double dt = now() - t0;
      out.warmLatency.push_back(dt);
      if (!referee.matches(k.str(), replyDigest(k, r))) ++out.failed;
    } catch (const std::exception&) {
      ++out.failed;
    }
  }
}

/// A batch's set-up: a fresh memory-only Engine and every version its
/// exact phase needs (the pipeline runs).
struct SetUp {
  std::unique_ptr<gcr::Engine> engine;
  std::unique_ptr<RequestFactory> factory;
  double seconds = 0;
};

SetUp setUp(const std::vector<Key>& exact, int workerThreads) {
  const double start = now();
  SetUp s;
  s.engine = std::make_unique<gcr::Engine>(engineConfig(workerThreads, 1.0));
  s.factory = std::make_unique<RequestFactory>(*s.engine);
  for (const Key& k : exact)
    if (k.kind != Kind::Symbolic) s.factory->version(k);
  s.seconds = now() - start;
  return s;
}

/// The exact-phase keys of a batch (everything but the sampled profiles).
std::vector<Key> exactKeys(const std::vector<Key>& keys) {
  std::vector<Key> out;
  for (const Key& k : keys)
    if (k.kind != Kind::Sampled) out.push_back(k);
  return out;
}

}  // namespace

std::vector<Key> sweepBatchKeys(Sweep sweep, std::uint64_t seed, int batch,
                                const std::vector<std::string>& only) {
  std::vector<Key> keys =
      sweep == Sweep::Sim ? simSweepKeys() : profileSweepKeys();
  if (!only.empty())
    std::erase_if(keys, [&](const Key& k) {
      return std::find(only.begin(), only.end(), k.app) == only.end();
    });
  keys = sweepOrder(std::move(keys), gcr::mixCombine(seed, batch));
  // Simulations first; symbolic analyses are milliseconds, so they go behind
  // them; sampled profiles run last, on their own Engine.
  const auto phase = [](const Key& k) {
    return k.kind == Kind::Sampled ? 2 : k.kind == Kind::Symbolic ? 1 : 0;
  };
  std::stable_sort(keys.begin(), keys.end(), [&](const Key& a, const Key& b) {
    return phase(a) < phase(b);
  });
  return keys;
}

SweepBatch runSweepBatch(Sweep sweep, std::uint64_t seed, int batch,
                         int workerThreads, const Referee& referee,
                         const std::vector<std::string>& only) {
  SweepBatch out;
  const std::vector<Key> keys = sweepBatchKeys(sweep, seed, batch, only);
  const std::vector<Key> exact = exactKeys(keys);
  std::vector<Key> sampled;
  for (const Key& k : keys)
    if (k.kind == Kind::Sampled) sampled.push_back(k);
  const Kind primaryKind = sweep == Sweep::Sim ? Kind::Measure : Kind::Profile;

  SetUp s = setUp(exact, workerThreads);
  out.setupSeconds = s.seconds;
  std::unique_ptr<gcr::Engine> engine = std::move(s.engine);
  RequestFactory& factory = *s.factory;

  std::vector<Submitted> done;
  out.wallSeconds += runPhase(*engine, factory, exact, done);
  warmReplay(*engine, factory, exact, referee, out);
  const gcr::Engine::Stats stats = engine->stats();
  out.cacheHitRatio = cacheHitRatio(stats);
  out.inflightCoalesced = stats.inflightCoalesced;
  if (!sampled.empty()) {
    // The second Engine replaces the first, so no more than workerThreads
    // pool threads exist at any time.
    const double phaseStart = now();
    engine.reset();
    engine = std::make_unique<gcr::Engine>(
        engineConfig(workerThreads, kSampleRate));
    factory.rebind(*engine);
    out.wallSeconds += (now() - phaseStart) +
                       runPhase(*engine, factory, sampled, done);
    warmReplay(*engine, factory, sampled, referee, out);
  }

  std::vector<std::pair<std::string, Digest>> byKey;
  for (Submitted& s : done) {
    ++out.attempted;
    ++out.coldRequests;
    if (s.key.kind == primaryKind)
      out.primaryLatency.push_back(s.resolvedAt - s.submittedAt);
    Digest d = 0;
    try {
      std::uint64_t acc = 0;
      d = replyDigest(s.key, s.future.get(), &acc,
                      s.eval ? &*s.eval : nullptr);
      out.simAccesses += acc;
      if (!referee.matches(s.key.str(), d)) ++out.failed;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gcrbench: %s failed: %s\n", s.key.str().c_str(),
                   e.what());
      ++out.failed;
    }
    out.sequenceDigest = combine(out.sequenceDigest, d);
    byKey.emplace_back(s.key.str(), d);
  }
  std::sort(byKey.begin(), byKey.end());
  for (const auto& [key, d] : byKey) out.setDigest = combine(out.setDigest, d);
  return out;
}

RunResult runSweep(Sweep sweep, std::uint64_t seed, double seconds,
                   const Referee& referee, double processStart) {
  std::vector<SweepBatch> batches;
  const double start = now();
  double lastBatch = 0;
  do {
    const double t0 = now();
    batches.push_back(runSweepBatch(sweep, seed,
                                    static_cast<int>(batches.size()),
                                    workers(), referee));
    lastBatch = now() - t0;
  } while (now() - start + lastBatch <= seconds);

  RunResult res;
  std::vector<double> setups, walls, primary, batchTails, warm;
  double wallSum = 0, setupSum = 0;
  std::uint64_t cold = 0, simAccesses = 0;
  std::set<Digest> setDigests;
  for (const SweepBatch& b : batches) {
    setups.push_back(b.setupSeconds);
    walls.push_back(b.wallSeconds);
    setupSum += b.setupSeconds;
    wallSum += b.wallSeconds;
    batchTails.push_back(percentile(b.primaryLatency, 99));
    primary.insert(primary.end(), b.primaryLatency.begin(),
                   b.primaryLatency.end());
    warm.insert(warm.end(), b.warmLatency.begin(), b.warmLatency.end());
    cold += b.coldRequests;
    simAccesses += b.simAccesses;
    res.attempted += b.attempted;
    res.failed += b.failed;
    setDigests.insert(b.setDigest);
  }
  // Set-up takes milliseconds: repeat it, through the batch's own code path,
  // until its median rests on at least 25 samples.
  while (setups.size() < 25) {
    const double s =
        setUp(exactKeys(sweepBatchKeys(sweep, seed,
                                       static_cast<int>(setups.size()))),
              workers())
            .seconds;
    setups.push_back(s);
    setupSum += s;
  }
  const double setupS = median(setups);
  const double wallS = median(walls);
  res.add("setup_s", setupS, "s");
  res.add("wall_s", wallS, "s");
  res.add("throughput_rps", static_cast<double>(cold) / wallSum, "1/s");
  res.add("sim_maccess_per_s", static_cast<double>(simAccesses) / wallSum / 1e6,
          "Macc/s");
  res.add("latency_p50_ms", percentile(primary, 50) * 1e3, "ms");
  // A batch has 16 primary requests, so a pooled p99 would be the single
  // slowest request of the run; the tail is the median batch's p99 instead.
  res.add("latency_p99_ms", median(batchTails) * 1e3, "ms");
  res.add("warm_latency_p50_ms", median(warm) * 1e3, "ms");
  res.add("cold_latency_p50_ms", median(primary) * 1e3, "ms");
  res.add("peak_rss_mb", selfPeakRssMb(), "MB");

  // Truthful clocks: the set-up and measured phases are disjoint slices of
  // this process's own lifetime.
  const double processWall = now() - processStart;
  const bool clocksOk =
      setupS > 0 && wallS > 0 && setupSum + wallSum <= processWall;
  // Every batch shuffles differently; the key-ordered digest must not move.
  const bool digestsStable = setDigests.size() == 1;
  res.selfChecksOk = clocksOk && digestsStable;

  std::printf("workload %s: %zu batches, seed %llu\n",
              sweep == Sweep::Sim ? "sim_sweep" : "profile_sweep",
              batches.size(), static_cast<unsigned long long>(seed));
  std::printf("  batch wall: %s\n", describeTiming(walls, 1, "s").c_str());
  std::printf("  set-up:     %s\n", describeTiming(setups, 1, "s").c_str());
  std::printf("  cold:       %s\n", describeTiming(primary, 1e3, "ms").c_str());
  std::printf("  warm:       %s\n", describeTiming(warm, 1e6, "us").c_str());
  std::printf("  digest (key order): %s; sequence digest of batch 0: %s\n",
              hex(*setDigests.begin()).c_str(),
              hex(batches.front().sequenceDigest).c_str());
  std::printf("  error_rate: %llu / %llu\n",
              static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.attempted));
  std::printf("  self-check clocks (setup %.4f + wall %.4f <= process %.4f): "
              "%s; digests stable across batches: %s\n",
              setupSum, wallSum, processWall, clocksOk ? "ok" : "FAIL",
              digestsStable ? "ok" : "FAIL");
  return res;
}

Referee computeReferee(int workerThreads) {
  gcr::Engine exact(engineConfig(workerThreads, 1.0));
  gcr::Engine sampled(engineConfig(workerThreads, kSampleRate));
  RequestFactory exactFactory(exact), sampledFactory(sampled);
  std::vector<std::pair<Key, gcr::Future<gcr::Reply>>> pending;
  std::set<std::string> seen;
  for (const Key& k : allRefereeKeys()) {
    if (!seen.insert(k.str()).second) continue;
    const bool isSampled = k.kind == Kind::Sampled;
    gcr::Engine& e = isSampled ? sampled : exact;
    RequestFactory& f = isSampled ? sampledFactory : exactFactory;
    pending.emplace_back(k, e.submit(f.request(k)));
  }
  Referee r;
  for (auto& [k, fut] : pending) r.set(k.str(), replyDigest(k, fut.get()));
  return r;
}

}  // namespace gcrbench
