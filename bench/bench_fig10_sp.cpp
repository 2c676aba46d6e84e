// Figure 10, lower-right panel + Section 4.4: NAS/SP — original /
// 1-level fusion / 3-level fusion / 3-level fusion + regrouping.
//
// Paper (class B): 1-level fusion raised L1 misses 5% but cut L2 misses 33%
// and time 27% (a bandwidth-bound program); full fusion cut L2 misses 49%
// but *increased TLB misses 8x* and slowed the program 8.81x; regrouping on
// top recovered it all: L1 -20%, L2 -51%, TLB -39%, time -33% (1.5x).
//
// Also prints the Section 4.4 structural story: arrays 15 -> 42 after
// splitting -> 17 after regrouping would require materializing merged
// arrays; we report the partition count instead, plus loop counts per level
// before/after fusion (paper: 157 first-level loops fuse into 8).
#include <cstdio>

#include "apps/registry.hpp"
#include "bench_util.hpp"
#include "ir/stats.hpp"

int main() {
  using namespace gcr;
  bench::printHeader(
      "Figure 10: NAS/SP — effect of transformations",
      "orig / 1-level fusion / 3-level fusion / +grouping; paper: full "
      "fusion alone slows 8.81x via TLB, grouping recovers to 1.5x speedup");

  Program p = apps::buildApp("SP");
  const std::int64_t n = bench::fullSize() ? 40 : 28;
  // TLB reach scaled to the paper's regime: on class-B SP the fully-fused
  // inner loop's live page set exceeded the machine's TLB, which is what
  // made full fusion 8.81x slower.  At our reduced grid the equivalent
  // pressure point is the R10K's 4KB *base* pages with half the entries
  // (live-set-to-capacity ratio preserved; the 16KB-page default models
  // IRIX large pages, which hide the effect entirely) — the sweep in
  // bench_ablation_tlb_reach shows the whole crossover.
  MachineConfig machine = MachineConfig::origin2000();
  machine.pageSize = 4096;
  machine.tlbEntries = 32;

  Engine& engine = bench::sessionEngine();
  const bench::Sweep sweep = bench::measureSweep([&] {
    std::vector<MeasureTask> t;
    t.push_back({.version = engine.version(p, Strategy::NoOpt),
                 .n = n,
                 .machine = machine});
    t.push_back({.version = engine.version(p, Strategy::Fused,
                                           {.fusionLevels = 1}),
                 .n = n,
                 .machine = machine});
    t.push_back({.version = engine.version(p, Strategy::Fused,
                                           {.fusionLevels = 4}),
                 .n = n,
                 .machine = machine});
    t.push_back({.version = engine.version(p, Strategy::FusedRegrouped,
                                           {.fusionLevels = 4}),
                 .n = n,
                 .machine = machine});
    return t;
  }());
  const std::vector<bench::VersionRow> rows = bench::versionRows(
      {"original", "1-level fusion", "3-level fusion",
       "3-level fusion + grouping"}, sweep);
  bench::printFig10Panel("NAS/SP", n, machine, rows);
  bench::writeVersionRowsJson("fig10_sp", "NAS/SP", n, machine, rows);
  bench::printThroughput(sweep);
  bench::printEngineStats();

  // ---- Section 4.4 structural numbers.
  std::printf("\n-- Section 4.4 program changes --\n");
  PipelineOptions opts;
  PipelineResult r = engine.pipeline(p, opts);
  std::printf("arrays: %d before pre-passes, %d after splitting; "
              "%d multi-array partitions after regrouping\n",
              computeStats(p).numArrays, r.arraysAfterSplit,
              r.regroupReport.partitionsFormed);
  std::printf("loops per level before fusion:");
  for (std::size_t l = 0; l < r.fusionReport.loopsPerLevelBefore.size(); ++l)
    std::printf(" L%zu=%d", l, r.fusionReport.loopsPerLevelBefore[l]);
  std::printf("\nloops per level after fusion: ");
  for (std::size_t l = 0; l < r.fusionReport.loopsPerLevelAfter.size(); ++l)
    std::printf(" L%zu=%d", l, r.fusionReport.loopsPerLevelAfter[l]);
  std::printf("\npaper: 482 loops at 157/161/164 per level; one-level fusion "
              "merged 157 -> 8;\nfull fusion yielded 13 loops at level 2 and "
              "17 at level 3\n");
  for (const std::string& line : r.regroupReport.log)
    std::printf("group %s\n", line.c_str());
  return 0;
}
