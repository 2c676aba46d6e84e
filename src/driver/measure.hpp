// Measurement harness: run a program version through the cache hierarchy
// and locality analyses — our stand-in for the R10K/R12K hardware counters.
//
// measure()/reuseProfileOf() simulate one version at one size.  They and
// the Engine's memoized path (engine/engine.hpp) share one assembly,
// measureExecution()/profileExecution(), over a compiled plan: the Engine
// hands in its cached one, the free functions compile their own, and a
// program the plan compiler declines is a gcr::Error
// (PlanCompileResult::planOrThrow).  The hierarchy and the reuse trackers
// read addresses only, so the plan runs through the address-only plan
// walker (the one-core slice, interp/schedule.hpp): no memory image is
// allocated and no value is computed.
//
// Time steps.  The plan runs one time step at a time (replayUntilRepeat).
// Every step replays the same address stream, and the simulators are
// deterministic, so once a simulator's state after step k equals its state
// after step k - 1, steps k + 1 .. T each add what step k added: the counts
// become C_k + (T - k)(C_k - C_{k-1}), in checked arithmetic (an overflow
// throws gcr::Error rather than wrapping).  Measurements compare the
// hierarchy's state (MemoryHierarchy::sameState) and stop at the first
// repeat, after step 2 or, where prefetch marks take a step to settle,
// later.  Profiles stop after step 2: the tracker's state repeats from
// step 1 on (trackerStateRepeats), so the histogram is
// H1 + (T - 1)(H2 - H1), `accesses` is T times one step's and
// `distinctData` step 1's.  T <= 2 runs whole and takes no snapshot.  The
// results are identical to a full T-step replay, which the tests keep as
// the referee.  Traffic and effective bandwidth are priced from the
// extrapolated MissCounts with the formulas the live hierarchy uses.
//
// Every field of a Measurement is a simulated result, so one request
// always yields the same bytes (store/codec.hpp), whether it was computed
// now, served from a cache, or read back from disk.
//
// Batches (Engine::measureAll / Engine::submit, slot-per-task determinism
// for any thread count) and the session knobs (threads, sampleRate) live on
// the Engine and its EngineConfig (engine/config.hpp).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "cachesim/hierarchy.hpp"
#include "driver/pipeline.hpp"
#include "locality/reuse_distance.hpp"

namespace gcr {

struct AccessPlan;

struct Measurement {
  MissCounts counts;
  double cycles = 0;                 ///< CostModel cycles
  std::uint64_t memoryTrafficBytes = 0;
  double effectiveBandwidth = 0;     ///< useful bytes / transferred bytes

  /// base.cycles / cycles.  NaN when this measurement recorded no cycles —
  /// a ratio against an empty run has no meaning, and NaN (unlike the 0.0
  /// this used to return) poisons downstream aggregates instead of silently
  /// reading as "infinitely slow".
  double speedupOver(const Measurement& base) const {
    return cycles > 0 ? base.cycles / cycles
                      : std::numeric_limits<double>::quiet_NaN();
  }
};

/// Simulate `version` at problem size n on `machine`.
Measurement measure(const ProgramVersion& version, std::int64_t n,
                    const MachineConfig& machine,
                    std::uint64_t timeSteps = 1,
                    const CostModel& cost = {});

/// One independent simulation of a parallel sweep.
struct MeasureTask {
  ProgramVersion version;
  std::int64_t n = 16;
  MachineConfig machine;
  std::uint64_t timeSteps = 1;
  CostModel cost = {};
};

/// Element-granularity reuse-distance profile of a version.  With
/// sampleRate < 1 the profile is the sampled estimate (see
/// locality/sampled_reuse.hpp); at rate 1 (default) it is exact and
/// bit-identical to the historical output.  All published tables are
/// generated at rate 1.
ReuseProfile reuseProfileOf(const ProgramVersion& version, std::int64_t n,
                            std::uint64_t timeSteps = 1,
                            double sampleRate = 1.0);

/// One reuse-profile task of a parallel sweep.
struct ReuseTask {
  ProgramVersion version;
  std::int64_t n = 16;
  std::uint64_t timeSteps = 1;
};

/// The one Measurement assembly: run `plan` through `machine`'s hierarchy
/// until its state repeats, extrapolate the remaining steps, and price the
/// counts with `cost`.
Measurement measureExecution(const AccessPlan& plan,
                             const MachineConfig& machine,
                             const CostModel& cost);

/// The one ReuseProfile assembly: the reuse sink at `sampleRate` (exact at
/// rate 1), with the layout's elements indexed densely; the plan runs two
/// time steps and extrapolates the rest.
ReuseProfile profileExecution(const AccessPlan& plan, double sampleRate);

}  // namespace gcr
