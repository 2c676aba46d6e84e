// Figure 10, upper-left panel: Swim — original / +fusion / +regrouping.
//
// Paper: on Octane (1MB L2, the machine used for comparison with Pugh &
// Rosser's iteration slicing), fusion gained 10% and regrouping 2% more; on
// Origin2000 (4MB L2) fusion alone *degraded* performance by 6% and
// regrouping recovered the loss — fusion without grouping can hurt.
#include "apps/registry.hpp"
#include "bench_util.hpp"

int main() {
  using namespace gcr;
  bench::printHeader(
      "Figure 10: Swim — effect of transformations",
      "orig / +fusion / +regrouping on Octane and Origin2000; paper: "
      "fusion alone may degrade, fusion+grouping always helps");

  Engine& engine = bench::sessionEngine();
  Program p = apps::buildApp("Swim");
  const std::int64_t n = bench::fullSize() ? 513 : 320;

  // Both machines' version sets form one task list: all six independent
  // simulations run concurrently on the Engine's scheduler, and the three
  // program versions are optimized once each (pipeline cache), not once per
  // machine.
  const std::vector<MachineConfig> machines{MachineConfig::octane(),
                                            MachineConfig::origin2000()};
  std::vector<std::string> names;
  std::vector<MeasureTask> tasks;
  for (const MachineConfig& machine : machines) {
    names.insert(names.end(),
                 {"original", "+ computation fusion", "+ data regrouping"});
    tasks.push_back({.version = engine.version(p, Strategy::NoOpt),
                     .n = n,
                     .machine = machine,
                     .timeSteps = 2});
    tasks.push_back({.version = engine.version(p, Strategy::Fused),
                     .n = n,
                     .machine = machine,
                     .timeSteps = 2});
    tasks.push_back({.version = engine.version(p, Strategy::FusedRegrouped),
                     .n = n,
                     .machine = machine,
                     .timeSteps = 2});
  }
  const bench::Sweep sweep = bench::measureSweep(tasks);
  const std::vector<bench::VersionRow> rows =
      bench::versionRows(std::move(names), sweep);
  for (std::size_t m = 0; m < machines.size(); ++m)
    bench::printFig10Panel(
        "Swim", n, machines[m],
        {rows.begin() + static_cast<std::ptrdiff_t>(3 * m),
         rows.begin() + static_cast<std::ptrdiff_t>(3 * m + 3)});
  bench::writeVersionRowsJson("fig10_swim", "Swim", n, machines[1], rows);
  bench::printThroughput(sweep);
  bench::printEngineStats();
  return 0;
}
