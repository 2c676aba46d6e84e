#include "driver/measure.hpp"

#include <optional>

#include "interp/schedule.hpp"
#include "locality/sampled_reuse.hpp"

namespace gcr {

// Measurements and profiles read addresses only, so the plan runs through
// the address-only walker, whose one-core slice is the whole serial stream:
// no memory image, no value chain.  It runs one time step at a time until
// the state repeats (replayUntilRepeat), which returns the steps left to
// extrapolate.
Measurement measureExecution(const AccessPlan& plan,
                             const MachineConfig& machine,
                             const CostModel& cost) {
  MemoryHierarchy hierarchy(machine);
  std::optional<MemoryHierarchy> previous;  // at the last step boundary
  const std::uint64_t skipped =
      replayUntilRepeat(plan, ScheduleSlice{}, &hierarchy, [&] {
        if (previous && hierarchy.sameState(*previous)) return true;
        previous = hierarchy;
        return false;
      });
  Measurement m;
  m.counts = hierarchy.counts();
  if (skipped > 0)
    m.counts = extrapolateSteps(m.counts, previous->counts(), skipped);
  m.cycles = cost.cycles(m.counts);
  m.memoryTrafficBytes = m.counts.memoryTrafficBytes(machine.l2.lineSize);
  m.effectiveBandwidth = m.counts.effectiveBandwidthRatio(machine.l2.lineSize);
  return m;
}

ReuseProfile profileExecution(const AccessPlan& plan, double sampleRate) {
  ReuseDistanceSink sink(8, sampleRate);
  sink.reserve(static_cast<std::uint64_t>(plan.layout->totalBytes()));
  std::optional<ReuseProfile> previous;  // at the last step boundary
  const std::uint64_t skipped =
      replayUntilRepeat(plan, ScheduleSlice{}, &sink, [&] {
        ReuseProfile now = sink.profile();
        if (previous && trackerStateRepeats(*previous, now)) return true;
        previous = std::move(now);
        return false;
      });
  ReuseProfile p = sink.profile();
  if (skipped > 0) p = extrapolateSteps(p, *previous, skipped);
  return p;
}

Measurement measure(const ProgramVersion& version, std::int64_t n,
                    const MachineConfig& machine, std::uint64_t timeSteps,
                    const CostModel& cost) {
  const DataLayout layout = version.layoutAt(n);
  const PlanCompileResult compiled =
      compilePlan(version.program, layout, {.n = n, .timeSteps = timeSteps});
  return measureExecution(compiled.planOrThrow(), machine, cost);
}

ReuseProfile reuseProfileOf(const ProgramVersion& version, std::int64_t n,
                            std::uint64_t timeSteps, double sampleRate) {
  const DataLayout layout = version.layoutAt(n);
  const PlanCompileResult compiled =
      compilePlan(version.program, layout, {.n = n, .timeSteps = timeSteps});
  return profileExecution(compiled.planOrThrow(), sampleRate);
}

}  // namespace gcr
