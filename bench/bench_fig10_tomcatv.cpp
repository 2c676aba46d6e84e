// Figure 10, upper-right panel: Tomcatv — original / +fusion / +regrouping.
//
// Paper (513 x 513 on Origin2000): fusion alone degraded performance by 1%;
// the combined transformation reduced L1 misses 5%, L2 misses 20% and
// execution time 16% (data regrouping traded a 3% TLB increase on the real
// machine because of the SGI code-generator workaround — see the ablation
// bench for that knob).
#include "apps/registry.hpp"
#include "bench_util.hpp"

int main() {
  using namespace gcr;
  bench::printHeader(
      "Figure 10: Tomcatv — effect of transformations",
      "orig / +fusion / +regrouping; paper: fusion -1%, combined -16% time, "
      "-5% L1, -20% L2 at 513x513");

  Engine& engine = bench::sessionEngine();
  Program p = apps::buildApp("Tomcatv");
  const std::int64_t n = bench::fullSize() ? 513 : 320;
  const MachineConfig machine = MachineConfig::origin2000();

  const bench::Sweep sweep = bench::measureSweep([&] {
    std::vector<MeasureTask> t;
    t.push_back({.version = engine.version(p, Strategy::NoOpt),
                 .n = n,
                 .machine = machine,
                 .timeSteps = 2});
    t.push_back({.version = engine.version(p, Strategy::Fused),
                 .n = n,
                 .machine = machine,
                 .timeSteps = 2});
    t.push_back({.version = engine.version(p, Strategy::FusedRegrouped),
                 .n = n,
                 .machine = machine,
                 .timeSteps = 2});
    return t;
  }());
  const std::vector<bench::VersionRow> rows = bench::versionRows(
      {"original", "+ computation fusion", "+ data regrouping"}, sweep);
  bench::printFig10Panel("Tomcatv", n, machine, rows);
  bench::writeVersionRowsJson("fig10_tomcatv", "Tomcatv", n, machine, rows);
  bench::printThroughput(sweep);
  bench::printEngineStats();
  return 0;
}
