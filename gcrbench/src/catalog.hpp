// Request catalogs of the three benchmark workloads.
//
// A Key names one unit of work by value (kind, app, strategy, size, time
// steps); its canonical string is what the referee (referee.tsv) indexes.
// Every key a seed can generate is enumerable — allRefereeKeys() — so the
// committed referee covers any seed the benchmark is run with.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cachesim/hierarchy.hpp"
#include "cachesim/topology.hpp"
#include "driver/pipeline.hpp"

namespace gcrbench {

enum class Kind {
  Measure,    ///< MeasureTask / MeasureRequest on Origin2000
  Profile,    ///< exact ReuseTask / ProfileRequest
  Sampled,    ///< ReuseTask on an Engine at kSampleRate
  Symbolic,   ///< SymbolicProfileRequest, evaluated at (n, timeSteps)
  Optimize,   ///< OptimizeRequest (pipeline result)
  Multicore,  ///< MulticoreRequest on kTopology
};

const char* kindName(Kind k);
const char* strategyName(gcr::Strategy s);

struct Key {
  Kind kind = Kind::Measure;
  std::string app;
  gcr::Strategy strategy = gcr::Strategy::NoOpt;
  std::int64_t n = 0;
  std::uint64_t timeSteps = 1;

  /// Canonical referee key, e.g. "measure/SP/FusedRegrouped/n20/T8".
  std::string str() const;
  friend bool operator==(const Key&, const Key&) = default;
};

/// Fixed configuration shared by every workload (pinned, never read from
/// the environment).
inline constexpr double kSampleRate = 1.0 / 64.0;
gcr::MachineConfig machine();        ///< Origin2000
gcr::CacheTopology topology();       ///< symmetric(4) scaled down by 16
inline constexpr std::int64_t kSymbolicMinN = 16;

/// Worker count of every pool and the client count of serve_mixed:
/// min(hardware threads, 4), so the load is the same on larger hosts.
int workers();

/// sim_sweep: ADI/Swim/Tomcatv n=96 and SP n=20, four strategies, T=8.
std::vector<Key> simSweepKeys();
/// profile_sweep: the same catalog as exact profiles, again sampled, plus
/// one symbolic profile per app evaluated at the workload size.
std::vector<Key> profileSweepKeys();

/// Submission order of a sweep: seed-shuffled, then stably grouped by app
/// cost (SP, Swim, Tomcatv, ADI) so the heavy tasks start first and the
/// batch makespan does not depend on where the shuffle put them.
std::vector<Key> sweepOrder(std::vector<Key> keys, std::uint64_t seed);

/// serve_mixed: the warm catalog (measure, profile, optimize for every
/// app x strategy at T=2) and the cold space (measure, profile, multicore at
/// small sizes, T=1) — disjoint by construction.
std::vector<Key> serveCatalog();
std::vector<Key> serveColdSpace();

struct ServeItem {
  Key key;
  bool cold = false;
};

/// Requests of one closed-loop client per round.
inline constexpr int kServeRequestsPerClient = 250;
inline constexpr int kServeColdPerClient = 25;

/// One round of serve_mixed: clients x kServeRequestsPerClient requests.
/// Warm requests draw uniformly from serveCatalog(); the cold ones (one in
/// ten, at seed-drawn positions) take the next unused key of the client's
/// share of a seed-shuffled serveColdSpace(), so no cold key repeats within
/// a round.  Needs clients * kServeColdPerClient <= serveColdSpace().size().
std::vector<std::vector<ServeItem>> serveRound(std::uint64_t seed, int round,
                                               int clients);

/// Every key any workload can request, for regenerating the referee.
std::vector<Key> allRefereeKeys();

}  // namespace gcrbench
