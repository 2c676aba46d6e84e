// Schedule-aware replay of compiled access plans: the address streams a
// static parallel schedule assigns to each core.
//
// Parallelization model (the OpenMP shared-cache reuse-distance setting, see
// DESIGN.md §10): every *top-level* loop of the program is a parallel loop —
// its iterations are distributed over `cores` worker cores by a static
// schedule, and an implicit barrier separates consecutive top-level loops
// (and time steps).  Inner loops always run whole on whichever core owns the
// enclosing top-level iteration; bare top-level statements run on core 0.
//
// Two static schedules, matching `schedule(static)` semantics:
//   * Block  — the iteration sequence (in execution order, so a reversed
//     loop distributes its reversed order) splits into `cores` contiguous
//     chunks; the first (trips mod cores) chunks take the extra iteration.
//   * Cyclic — position p of the sequence goes to core (p mod cores).
//
// Replay is address-only: a statement instance's addresses are affine in the
// iteration variables and never depend on memory contents, so a core's
// sub-stream is exactly computable without value semantics.  It runs the
// same plan walker as executePlan (plan.cpp) without values; within each
// segment a core's iterations of a top-level loop form an arithmetic
// progression, which the walker steps through directly, strength-reduced
// inner loops included.  The emitted stream preserves the serial plan order
// restricted to the slice, so replaySlice with cores == 1 reproduces
// executePlan's sink stream instruction for instruction by construction.
// That one-core replay is how trace(), measurements and reuse profiles run
// a compiled plan (interp/interp.hpp, driver/measure.cpp): their sinks read
// addresses only, and values remain for execute().  Measurements, profiles
// and the multicore analysis replay through replayUntilRepeat(), which
// runs the time steps one at a time and stops once the simulated state
// repeats, so a long run costs the steps the caches and trackers take to
// settle, not T.
// tests/interp/schedule_test.cpp pins that over every evaluation app and
// five strategies and 100 fuzz programs, and schedule_referee_test.cpp
// compares every slice with a referee walker that tests ownership one
// iteration at a time (tests/interp/slice_walker.hpp).
//
// replayInterleaved() is the exact-trace referee for the shared-LLC model:
// it materializes every core's sub-stream of a parallel region and merges
// them round-robin at statement-instance granularity (core 0 first), with
// barriers between regions.  O(region footprint) memory — intended for the
// small-n referee, not for full-size runs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "interp/plan.hpp"

namespace gcr {

/// Static distribution of a parallel loop's iterations over cores.
enum class ParallelSchedule { Block, Cyclic };

const char* parallelScheduleName(ParallelSchedule s);

/// One core's share of a static parallel execution.
struct ScheduleSlice {
  int cores = 1;                                      ///< total worker cores
  int core = 0;                                       ///< this core, [0, cores)
  ParallelSchedule schedule = ParallelSchedule::Block;
};

/// Emit core `slice.core`'s address stream of the plan under the static
/// schedule, in serial plan order restricted to the slice.  Delivery is
/// batched through InstrSink::onBlock like executePlan's.
void replaySlice(const AccessPlan& plan, const ScheduleSlice& slice,
                 InstrSink* sink);

/// replaySlice, one time step at a time, stopped once the sink's simulated
/// state repeats.  Every step emits the same stream, so when a
/// deterministic simulator's state after step k equals its state after
/// step k - 1, each later step adds exactly what step k added.  After each
/// step but the last, with the step delivered in full, `repeats()` returns
/// whether the state equals the previous boundary's; when it does not, the
/// caller records the state as the new boundary (after step 1 there is
/// only a record to make).  The replay ends at the first step k for which
/// it returns true.  Returns the steps left unreplayed, T - k, which the
/// caller extrapolates from step k's counts; 0 when all T steps ran.  With
/// T <= 2 no step could be skipped, so the whole replay runs and `repeats`
/// is never called.
std::uint64_t replayUntilRepeat(const AccessPlan& plan,
                                const ScheduleSlice& slice, InstrSink* sink,
                                const std::function<bool()>& repeats);

/// Emit the exact interleaved `cores`-core stream: per parallel region the
/// per-core sub-streams merge round-robin one statement instance at a time
/// (each instance's reads and write stay adjacent), with a barrier after
/// every region.  cores == 1 likewise reproduces the serial stream.
void replayInterleaved(const AccessPlan& plan, int cores,
                       ParallelSchedule schedule, InstrSink* sink);

}  // namespace gcr
