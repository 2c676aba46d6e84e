// The fig9/fig10 sweep that the Engine's warm-path tests replay, at test
// size: the four evaluation apps under the four paper strategies through
// Engine::measureAll, plus one NoOpt reuse profile per app through
// Engine::reuseProfilesOf.  A run returns the store encoding of every result
// in catalog order (the measurements, then the profiles), so two runs
// compare byte for byte.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/registry.hpp"
#include "engine/engine.hpp"
#include "store/codec.hpp"

namespace gcr::testing {

inline std::vector<std::vector<std::uint8_t>> runSweepCatalog(Engine& engine) {
  struct AppRun {
    const char* name;
    std::uint64_t timeSteps;
  };
  constexpr std::int64_t kN = 16;
  const AppRun runs[] = {{"ADI", 1}, {"Swim", 2}, {"Tomcatv", 2}, {"SP", 1}};
  const MachineConfig machine = MachineConfig::origin2000();

  std::vector<MeasureTask> measureTasks;
  std::vector<ReuseTask> profileTasks;
  for (const AppRun& run : runs) {
    const Program p = apps::buildApp(run.name);
    for (Strategy s : {Strategy::NoOpt, Strategy::SgiLike, Strategy::Fused,
                       Strategy::FusedRegrouped})
      measureTasks.push_back(
          {engine.version(p, s), kN, machine, run.timeSteps});
    profileTasks.push_back(
        {engine.version(p, Strategy::NoOpt), kN, run.timeSteps});
  }

  std::vector<std::vector<std::uint8_t>> bytes;
  for (const Measurement& m : engine.measureAll(measureTasks))
    bytes.push_back(store::encodeMeasurement(m));
  for (const ReuseProfile& r : engine.reuseProfilesOf(profileTasks))
    bytes.push_back(store::encodeReuseProfile(r));
  return bytes;
}

}  // namespace gcr::testing
