// Figure 9: the applications table — name, source, input size, loop
// nests/levels, array counts — regenerated from the actual IR builders,
// extended with measured columns (original miss rates and the full
// strategy's speedup) so the table doubles as the suite's summary.
//
// All per-app simulations are independent and run on the measurement
// engine's thread pool (GCR_THREADS).  Task i fills row i, so the printed
// tables are byte-identical for every thread count; only the throughput
// footer (wall-clock) varies.
#include <cstdio>

#include "apps/registry.hpp"
#include "bench_util.hpp"
#include "ir/stats.hpp"
#include "support/table.hpp"

int main() {
  using namespace gcr;
  bench::printHeader("Figure 9: applications tested",
                     "name/source/input size/loop nests (levels)/No. arrays, "
                     "plus measured miss rates and speedups");

  struct AppRow {
    const apps::AppInfo* info;
    std::int64_t n;
    std::uint64_t steps;
  };
  std::vector<AppRow> appRows;
  for (const auto& info : apps::evaluationApps()) {
    std::int64_t n;
    if (info.name == "ADI")
      n = bench::fullSize() ? 2048 : 512;
    else if (info.name == "SP")
      n = bench::fullSize() ? 40 : 24;
    else
      n = bench::fullSize() ? 513 : 256;  // the 2-D grid apps
    appRows.push_back({&info, n, 1});
  }

  // Two simulations per app (original and fully optimized), one task list.
  Engine& engine = bench::sessionEngine();
  const MachineConfig machine = MachineConfig::origin2000();
  std::vector<MeasureTask> tasks;
  for (const AppRow& a : appRows) {
    Program p = a.info->build();
    tasks.push_back({.version = engine.version(p, Strategy::NoOpt),
                     .n = a.n,
                     .machine = machine,
                     .timeSteps = a.steps});
    tasks.push_back({.version = engine.version(p, Strategy::FusedRegrouped),
                     .n = a.n,
                     .machine = machine,
                     .timeSteps = a.steps});
  }
  const bench::Sweep sweep = bench::measureSweep(tasks);
  const std::vector<Measurement>& ms = sweep.results;

  // Element-level reuse profiles of the originals, merged into one
  // suite-wide histogram below.  The NoOpt versions come straight from the
  // Engine's pipeline cache this time.
  std::vector<ReuseTask> profTasks;
  for (const AppRow& a : appRows)
    profTasks.push_back({.version = engine.version(a.info->build(),
                                                   Strategy::NoOpt),
                         .n = a.n,
                         .timeSteps = a.steps});
  const std::vector<ReuseProfile> profiles =
      engine.reuseProfilesOf(profTasks);

  TextTable t({"name", "source", "paper input", "loops", "nests", "levels",
               "arrays", "L1 rate", "L2 rate", "speedup"});
  for (std::size_t i = 0; i < appRows.size(); ++i) {
    Program p = appRows[i].info->build();
    const ProgramStats st = computeStats(p);
    const Measurement& orig = ms[2 * i];
    const Measurement& opt = ms[2 * i + 1];
    t.addRow({appRows[i].info->name, appRows[i].info->source,
              appRows[i].info->paperInput, std::to_string(st.numLoops),
              std::to_string(st.numLoopNests),
              "1-" + std::to_string(st.maxLevel),
              std::to_string(st.numArraysUsed),
              TextTable::fmtPercent(orig.counts.l1MissRate(), 2),
              TextTable::fmtPercent(orig.counts.l2MissRate(), 3),
              TextTable::fmt(opt.speedupOver(orig), 2) + "x"});
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "\npaper's rows: Swim 513x513 (1-2) 15 | Tomcatv 513x513 (1-2) 7 | "
      "ADI 2Kx2K (1-2) 3 | SP class B (2-4) 15\n");

  // Suite-wide reuse-distance histogram: per-app profiles merged bin-wise.
  const ReuseProfile suite = mergeProfiles(profiles);
  std::printf("\nsuite-wide reuse-distance profile of the originals "
              "(%llu accesses, top bin %d):\n",
              static_cast<unsigned long long>(suite.accesses),
              suite.histogram.highestNonEmptyBin());
  std::printf("miss fraction at 32K elements: %.3f; at 512K elements: %.3f\n",
              suite.missFractionAtCapacity(32 * 1024),
              suite.missFractionAtCapacity(512 * 1024));

  bench::ResultWriter w("fig9_apps");
  w.json().key("apps").beginArray();
  for (std::size_t i = 0; i < appRows.size(); ++i) {
    const Measurement& orig = ms[2 * i];
    const Measurement& opt = ms[2 * i + 1];
    w.json().beginObject();
    w.json().field("app", std::string_view(appRows[i].info->name));
    w.json().field("n", appRows[i].n);
    w.json().field("l1_miss_rate", orig.counts.l1MissRate(), 5);
    w.json().field("l2_miss_rate", orig.counts.l2MissRate(), 5);
    w.json().field("speedup_fused_regrouped", opt.speedupOver(orig), 3);
    w.json().endObject();
  }
  w.json().endArray();
  w.addEngineStats(engine.stats());
  w.finish();

  bench::printThroughput(sweep);
  bench::printEngineStats();
  return 0;
}
