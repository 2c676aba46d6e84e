// Multicore locality engine (DESIGN.md §10): predict how a program's memory
// behaviour scales across cores under a static parallel schedule.
//
// Given a compiled access plan and a CacheTopology, analyzeMulticore():
//
//   1. slices the plan into per-core address streams (interp/schedule.hpp)
//      and simulates each core's PRIVATE L1+L2 exactly — one independent
//      SetAssocCache pair per core, so the per-core simulations run
//      concurrently on the deterministic thread pool with bit-identical
//      results for any thread count.  Each core replays one time step at a
//      time (replayUntilRepeat) until both its private levels and its line
//      tracker (step 2) repeat their state, and its counts for the
//      remaining steps are extrapolated from the last one, exactly as a
//      full replay would count them (driver/measure.hpp);
//
//   2. predicts the SHARED LLC by reuse-distance composition: each core's
//      slice stream is profiled at LLC-line granularity, and under the
//      symmetric round-robin interleaving of P statically-scheduled cores a
//      local reuse of distance d sees the other P-1 cores touch ~d distinct
//      lines each inside its window, so its interleaved distance is ~P·d
//      ("Modeling Shared Cache Performance of OpenMP Programs using Reuse
//      Distance", PAPERS.md).  Log2-binned, scaling by a power-of-two P is
//      an exact bin shift.  The scaled per-core histograms merge into the
//      predicted shared profile; the LLC miss fraction is its mass at
//      distance >= capacity-in-lines (perfect-LRU equivalence, §2.1 of the
//      paper).
//
// interleavedSharedProfile() is the exact referee: the true interleaved
// trace (round-robin with barriers, interp/schedule.hpp) through the exact
// reuse-distance tracker at the same granularity.  Model vs. referee error
// is gated in CI (gcr-verify --multicore, geomean avg CDF error <= 0.10).
//
// Known model error sources (measured by the referee): cross-core sharing
// at block boundaries (per-core cold counts double-count shared lines),
// distance-0 reuses that interleaving stretches, and cores with asymmetric
// slice lengths (the tail of a block schedule).  All shrink as per-core
// footprints grow.
#pragma once

#include <cstdint>
#include <vector>

#include "cachesim/topology.hpp"
#include "interp/plan.hpp"
#include "locality/reuse_distance.hpp"
#include "support/thread_pool.hpp"

namespace gcr {

/// One core's exact private-level simulation results.
struct CoreCacheStats {
  std::uint64_t refs = 0;         ///< element references in this core's slice
  std::uint64_t l1Misses = 0;
  std::uint64_t l2Misses = 0;     ///< private-L2 demand misses (reach the LLC)
  std::uint64_t l2Writebacks = 0;
  std::uint64_t lineAccesses = 0; ///< LLC-line-granularity accesses
  std::uint64_t coldLines = 0;    ///< distinct lines this core touched
};

/// The multicore locality artifact: per-core private behaviour (exact) plus
/// the composed shared-LLC prediction.  Cached and persisted by the Engine
/// as ArtifactKind::MulticoreProfile.
struct MulticoreProfile {
  int cores = 1;
  ParallelSchedule schedule = ParallelSchedule::Block;
  std::uint64_t llcCapacityLines = 0;
  std::vector<CoreCacheStats> perCore;  ///< size == cores

  /// Predicted shared-LLC reuse-distance histogram (line granularity,
  /// concurrency-scaled and merged across cores).
  Log2Histogram shared;
  std::uint64_t sharedAccesses = 0;  ///< line accesses summed over cores
  std::uint64_t sharedColdLines = 0; ///< per-core colds summed (upper bound)
  /// Predicted LLC miss fraction among reuses (cold excluded): shared-CDF
  /// mass at distance >= llcCapacityLines.
  double llcMissFraction = 0.0;
  /// Predicted parallel execution time: max over cores of
  /// MulticoreCostModel::coreCycles with per-core LLC misses attributed as
  /// l2Misses * llcMissFraction.
  double cycles = 0.0;

  std::uint64_t totalRefs() const {
    std::uint64_t sum = 0;
    for (const CoreCacheStats& c : perCore) sum += c.refs;
    return sum;
  }
};

/// Concurrency-scale one core's line-granularity reuse histogram: every
/// finite distance d becomes cores·d (an exact bin shift when cores is a
/// power of two); cold stays cold.  Exposed for tests.
Log2Histogram scaleReuseDistances(const Log2Histogram& h, int cores);

/// Run the full multicore analysis of a compiled plan under `topo`.  The
/// per-core private simulations are independent; they run on `pool` when
/// one is given (slot-per-core, bit-identical for any thread count), inline
/// otherwise.
MulticoreProfile analyzeMulticore(const AccessPlan& plan,
                                  const CacheTopology& topo,
                                  const MulticoreCostModel& cost = {},
                                  ThreadPool* pool = nullptr);

/// analyzeMulticore's last stage: the artifact from each core's exact
/// private-level stats and line-granularity reuse histogram (one of each
/// per core).  Exposed for the full-replay referee in the tests.
MulticoreProfile composeMulticore(std::vector<CoreCacheStats> perCore,
                                  const std::vector<Log2Histogram>& lines,
                                  const CacheTopology& topo,
                                  const MulticoreCostModel& cost);

/// Exact referee: the measured shared-LLC reuse profile of the true
/// interleaved trace (materializes per-region streams — small-n only).
ReuseProfile interleavedSharedProfile(const AccessPlan& plan,
                                      const CacheTopology& topo);

}  // namespace gcr
