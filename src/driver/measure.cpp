#include "driver/measure.hpp"

#include <functional>
#include <optional>

#include "interp/schedule.hpp"
#include "locality/sampled_reuse.hpp"

namespace gcr {

namespace {

/// Measurements and profiles read addresses only, so a compiled plan runs
/// through the address-only walker, whose one-core slice is the whole
/// serial stream: no memory image, no value chain.  It runs one time step
/// at a time until `repeats` (replayUntilRepeat); returns the steps left
/// to extrapolate.  Without a plan, execute() runs every step.
std::uint64_t run(const Execution& e, InstrSink* sink,
                  const std::function<bool()>& repeats) {
  if (e.plan != nullptr)
    return replayUntilRepeat(*e.plan, ScheduleSlice{}, sink, repeats);
  execute(e.program, e.layout, e.opts, sink);
  return 0;
}

}  // namespace

Measurement measureExecution(const Execution& e, const MachineConfig& machine,
                             const CostModel& cost) {
  MemoryHierarchy hierarchy(machine);
  std::optional<MemoryHierarchy> previous;  // at the last step boundary
  const std::uint64_t skipped = run(e, &hierarchy, [&] {
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

ReuseProfile profileExecution(const Execution& e, double sampleRate) {
  ReuseDistanceSink sink(8, sampleRate);
  sink.reserve(static_cast<std::uint64_t>(e.layout.totalBytes()));
  std::optional<ReuseProfile> previous;  // at the last step boundary
  const std::uint64_t skipped = run(e, &sink, [&] {
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
  return measureExecution(
      {version.program, layout, {.n = n, .timeSteps = timeSteps}}, machine,
      cost);
}

ReuseProfile reuseProfileOf(const ProgramVersion& version, std::int64_t n,
                            std::uint64_t timeSteps, double sampleRate) {
  const DataLayout layout = version.layoutAt(n);
  return profileExecution(
      {version.program, layout, {.n = n, .timeSteps = timeSteps}},
      sampleRate);
}

}  // namespace gcr
