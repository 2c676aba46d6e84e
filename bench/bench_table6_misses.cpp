// Section 6 (Contributions) table: miss ratios relative to the unoptimized
// program — columns NoOpt (=1.0), SGI (the locally-optimizing commercial
// compiler), New (this paper's global strategy) for L1 / L2 / TLB misses,
// per application plus the average.
//
// Paper's headline: averaged over the four programs, the new strategy beats
// the SGI compiler's reductions by factors of ~9 (L1), ~3.4 (L2) and
// ~1.8 (TLB).
#include <cstdio>

#include "apps/registry.hpp"
#include "bench_util.hpp"
#include "support/table.hpp"

int main() {
  using namespace gcr;
  bench::printHeader(
      "Section 6 table: normalized miss counts (NoOpt / SGI-like / New)",
      "New beats the SGI baseline's reductions by ~9x (L1), ~3.4x (L2), "
      "~1.8x (TLB) on average");

  struct AppRun {
    const char* name;
    std::int64_t n;
    std::uint64_t steps;
  };
  // Odd grid sizes avoid power-of-two aliasing pathologies that would make
  // the padded baseline look artificially good.
  const std::int64_t grid2d = bench::fullSize() ? 513 : 321;
  const AppRun runs[] = {{"Swim", grid2d, 2},
                         {"Tomcatv", grid2d, 2},
                         {"ADI", bench::fullSize() ? 2048 : 1000, 1},
                         {"SP", bench::fullSize() ? 40 : 32, 1}};

  // The optimized versions (SGI's output and the paper's transformed code,
  // which was itself compiled with -Ofast) run with software prefetching;
  // the unoptimized baseline does not.
  const MachineConfig machine = MachineConfig::origin2000();
  MachineConfig machinePf = machine;
  machinePf.l2NextLinePrefetch = true;
  TextTable t({"program", "L1 SGI", "L1 New", "L2xfer SGI", "L2xfer New",
               "TLB SGI", "TLB New"});
  double sumSgi[3] = {0, 0, 0}, sumNew[3] = {0, 0, 0};
  int count = 0;

  // All (program x version) simulations are independent: build the full
  // 4x3 task list up front and sweep it through the measurement engine's
  // thread pool.  Task order matches the sequential loop below, so the
  // printed table is byte-identical for any GCR_THREADS.
  Engine& engine = bench::sessionEngine();
  std::vector<MeasureTask> tasks;
  for (const AppRun& run : runs) {
    Program p = apps::buildApp(run.name);
    tasks.push_back({.version = engine.version(p, Strategy::NoOpt),
                     .n = run.n,
                     .machine = machine,
                     .timeSteps = run.steps});
    tasks.push_back({.version = engine.version(p, Strategy::SgiLike),
                     .n = run.n,
                     .machine = machinePf,
                     .timeSteps = run.steps});
    tasks.push_back({.version = engine.version(p, Strategy::FusedRegrouped),
                     .n = run.n,
                     .machine = machinePf,
                     .timeSteps = run.steps});
  }
  const bench::Sweep sweep = bench::measureSweep(tasks);
  const std::vector<Measurement>& results = sweep.results;

  for (std::size_t r = 0; r < std::size(runs); ++r) {
    const AppRun& run = runs[r];
    const Measurement& noOpt = results[3 * r];
    const Measurement& sgi = results[3 * r + 1];
    const Measurement& nw = results[3 * r + 2];

    auto ratio = [](std::uint64_t v, std::uint64_t base) {
      return base ? static_cast<double>(v) / static_cast<double>(base) : 1.0;
    };
    // The L2 column follows the paper's framing ("the amount of data
    // transferred"): demand fills plus prefetch fills, i.e. lines that
    // crossed the memory bus — raw demand misses would only measure how
    // much latency prefetching hid.
    auto l2Lines = [](const Measurement& m) {
      return m.counts.l2Misses + m.counts.l2Prefetches;
    };
    const double rs[3] = {ratio(sgi.counts.l1Misses, noOpt.counts.l1Misses),
                          ratio(l2Lines(sgi), l2Lines(noOpt)),
                          ratio(sgi.counts.tlbMisses, noOpt.counts.tlbMisses)};
    const double rn[3] = {ratio(nw.counts.l1Misses, noOpt.counts.l1Misses),
                          ratio(l2Lines(nw), l2Lines(noOpt)),
                          ratio(nw.counts.tlbMisses, noOpt.counts.tlbMisses)};
    for (int k = 0; k < 3; ++k) {
      sumSgi[k] += rs[k];
      sumNew[k] += rn[k];
    }
    ++count;
    t.addRow({run.name, TextTable::fmt(rs[0]), TextTable::fmt(rn[0]),
              TextTable::fmt(rs[1]), TextTable::fmt(rn[1]),
              TextTable::fmt(rs[2]), TextTable::fmt(rn[2])});
  }
  std::vector<std::string> avg{"average"};
  for (int k = 0; k < 3; ++k) {
    avg.push_back(TextTable::fmt(sumSgi[k] / count));
    avg.push_back(TextTable::fmt(sumNew[k] / count));
  }
  // Reorder to match header (SGI/New per level already interleaved).
  t.addRow({avg[0], avg[1], avg[2], avg[3], avg[4], avg[5], avg[6]});
  std::printf("%s", t.render().c_str());
  std::printf("\n");
  bench::printThroughput(sweep);

  const char* levels[3] = {"L1", "L2", "TLB"};
  std::printf("\naverage miss reductions (1 - normalized):\n");
  for (int k = 0; k < 3; ++k) {
    const double sgiRed = 1.0 - sumSgi[k] / count;
    const double newRed = 1.0 - sumNew[k] / count;
    std::printf("  %-3s  SGI-like %5.1f%%   New %5.1f%%", levels[k],
                sgiRed * 100.0, newRed * 100.0);
    if (sgiRed > 0.01)
      std::printf("   advantage %.1fx", newRed / sgiRed);
    else
      std::printf("   advantage n/a (the baseline cannot reduce transfer "
                  "volume at all)");
    std::printf("\n");
  }
  std::printf("paper's advantages: L1 9x, L2 3.4x, TLB 1.8x.  The local "
              "baseline's prefetching\nhides latency but moves the same "
              "bytes (L2xfer ~1.0) — only the global strategy\nreduces the "
              "volume of data transferred, the paper's headline.\n");

  bench::ResultWriter w("table6_misses");
  w.json().key("normalized_averages").beginObject();
  for (int k = 0; k < 3; ++k) {
    w.json().key(levels[k]).beginObject();
    w.json().field("sgi_like", sumSgi[k] / count, 4);
    w.json().field("new", sumNew[k] / count, 4);
    w.json().endObject();
  }
  w.json().endObject();
  w.addEngineStats(engine.stats());
  w.finish();
  bench::printEngineStats();
  return 0;
}
