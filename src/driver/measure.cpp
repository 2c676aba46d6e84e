#include "driver/measure.hpp"

#include "interp/schedule.hpp"
#include "locality/sampled_reuse.hpp"

namespace gcr {

namespace {

/// Measurements and profiles read addresses only, so a compiled plan runs
/// through the address-only walker, whose one-core slice is the whole
/// serial stream: no memory image, no value chain.
void run(const Execution& e, InstrSink* sink) {
  if (e.plan != nullptr)
    replaySlice(*e.plan, ScheduleSlice{}, sink);
  else
    execute(e.program, e.layout, e.opts, sink);
}

}  // namespace

Measurement measureExecution(const Execution& e, const MachineConfig& machine,
                             const CostModel& cost) {
  MemoryHierarchy hierarchy(machine);
  run(e, &hierarchy);
  Measurement m;
  m.counts = hierarchy.counts();
  m.cycles = cost.cycles(m.counts);
  m.memoryTrafficBytes = hierarchy.memoryTrafficBytes();
  m.effectiveBandwidth = hierarchy.effectiveBandwidthRatio();
  return m;
}

ReuseProfile profileExecution(const Execution& e, double sampleRate) {
  ReuseDistanceSink sink(8, sampleRate);
  sink.reserve(static_cast<std::uint64_t>(e.layout.totalBytes()));
  run(e, &sink);
  return sink.takeProfile();
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

void collectPairwise(const ProgramVersion& version, std::int64_t n,
                     PairwiseReuseCollector& collector,
                     std::uint64_t timeSteps) {
  DataLayout layout = version.layoutAt(n);
  collector.reserve(0, static_cast<std::uint64_t>(layout.totalBytes()));
  execute(version.program, layout, {.n = n, .timeSteps = timeSteps},
          &collector);
}

}  // namespace gcr
