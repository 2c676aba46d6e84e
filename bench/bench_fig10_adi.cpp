// Figure 10, lower-left panel: ADI — original / +computation fusion /
// +data regrouping on Origin2000.
//
// Paper: ADI (2K x 2K, the largest input) enjoyed the highest improvement:
// L1 misses -39%, L2 -44%, TLB -56%, execution time -57% (speedup 2.33).
#include "apps/registry.hpp"
#include "bench_util.hpp"

int main() {
  using namespace gcr;
  bench::printHeader("Figure 10: ADI — effect of transformations",
                     "orig / +fusion / +regrouping; paper: -39% L1, -44% L2, "
                     "-56% TLB, 2.33x speedup at 2Kx2K");

  Engine& engine = bench::sessionEngine();
  Program p = apps::buildApp("ADI");
  const std::int64_t n = bench::fullSize() ? 2048 : 1024;
  const MachineConfig machine = MachineConfig::origin2000();

  const bench::Sweep sweep = bench::measureSweep([&] {
    std::vector<MeasureTask> t;
    t.push_back({.version = engine.version(p, Strategy::NoOpt),
                 .n = n,
                 .machine = machine});
    t.push_back({.version = engine.version(p, Strategy::Fused),
                 .n = n,
                 .machine = machine});
    t.push_back({.version = engine.version(p, Strategy::FusedRegrouped),
                 .n = n,
                 .machine = machine});
    return t;
  }());
  const std::vector<bench::VersionRow> rows = bench::versionRows(
      {"original", "+ computation fusion", "+ data regrouping"}, sweep);
  bench::printFig10Panel("ADI", n, machine, rows);
  bench::writeVersionRowsJson("fig10_adi", "ADI", n, machine, rows);
  bench::printThroughput(sweep);
  bench::printEngineStats();
  return 0;
}
