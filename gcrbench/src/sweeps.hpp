// The in-process workloads, sim_sweep and profile_sweep: closed batches of
// Engine::submit() on fresh memory-only Engines.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "catalog.hpp"
#include "digest.hpp"
#include "engine/engine.hpp"
#include "referee.hpp"
#include "stats.hpp"

namespace gcrbench {

/// The pinned Engine configuration of every in-process Engine: plan engine,
/// explicit threads, sample rate and store settings, so no GCR_* variable is
/// consulted.  `workerThreads` pool workers (ThreadPool counts the
/// submitting thread, which submit() leaves idle, hence +1); 1 runs every
/// submission inline.
gcr::EngineConfig engineConfig(int workerThreads, double sampleRate,
                               const std::string& cacheDir = "");

/// Builds the Request of a Key against one Engine, resolving each
/// (app, strategy) version through Engine::version once.
class RequestFactory {
 public:
  explicit RequestFactory(gcr::Engine& engine) : engine_(&engine) {}
  const gcr::ProgramVersion& version(const Key& k);
  gcr::Request request(const Key& k);
  /// Resolve versions not yet cached through another Engine (the cached
  /// ones are self-contained and stay valid).
  void rebind(gcr::Engine& engine) { engine_ = &engine; }

 private:
  gcr::Engine* engine_;
  std::map<std::pair<std::string, gcr::Strategy>, gcr::ProgramVersion>
      versions_;
};

/// Digest of a reply to `k`; symbolic replies are evaluated at (n, T)
/// unless `eval` already holds that evaluation.  *accesses receives the
/// simulated access count (0 for analyses that simulate nothing).
Digest replyDigest(const Key& k, const gcr::Reply& r,
                   std::uint64_t* accesses = nullptr,
                   const gcr::SymbolicEvaluation* eval = nullptr);

/// Hits over lookups, summed over every in-memory cache of an Engine.
double cacheHitRatio(const gcr::Engine::Stats& stats);

enum class Sweep { Sim, Profile };

/// One batch: fresh Engine(s), set-up, cold closed batch, warm replay.
struct SweepBatch {
  double setupSeconds = 0;
  double wallSeconds = 0;              ///< cold phases only
  std::vector<double> primaryLatency;  ///< submit -> resolved, seconds
  std::vector<double> warmLatency;     ///< memory-tier replays, seconds
  std::uint64_t coldRequests = 0;
  std::uint64_t simAccesses = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Digest sequenceDigest = 0;  ///< cold replies in submission order
  Digest setDigest = 0;       ///< cold replies in key order
  double cacheHitRatio = 0;   ///< over all caches of the primary Engine
  std::uint64_t inflightCoalesced = 0;
};

/// The keys of one batch in submission order.  `only`, when non-empty,
/// restricts the batch to keys of those apps (the self-tests use it to stay
/// fast).
std::vector<Key> sweepBatchKeys(Sweep sweep, std::uint64_t seed, int batch,
                                const std::vector<std::string>& only = {});

SweepBatch runSweepBatch(Sweep sweep, std::uint64_t seed, int batch,
                         int workerThreads, const Referee& referee,
                         const std::vector<std::string>& only = {});

/// The timed run: batches until `seconds` is spent (at least one).
RunResult runSweep(Sweep sweep, std::uint64_t seed, double seconds,
                   const Referee& referee, double processStart);

/// Compute every referee key in-process and return the fresh referee.
Referee computeReferee(int workerThreads);

}  // namespace gcrbench
