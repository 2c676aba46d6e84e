// Figure 3: reuse-distance histograms — program order vs reuse-driven
// execution, for ADI at two input sizes and SP-like at two grid sizes, plus
// the reuse-based-fusion curve for the larger SP run (the lower-right panel).
//
// Each printed row is one log2 bin: a count y at bin x means y references
// had a reuse distance in [2^(x-1), 2^x).  The paper's claims to check:
//   * program order has "elevated hills" that move right as input grows
//     (evadable reuses);
//   * reuse-driven execution removes a large part of those hills and slows
//     the movement of the rest;
//   * source-level fusion realizes a large fraction of the ideal benefit.
#include <cstdio>

#include "apps/registry.hpp"
#include "bench_util.hpp"
#include "driver/measure.hpp"
#include "driver/pipeline.hpp"
#include "interp/interp.hpp"
#include "ir/stats.hpp"
#include "reuse_driven/reuse_driven.hpp"
#include "support/table.hpp"

namespace {

using namespace gcr;

InstrTrace traceOf(const ProgramVersion& v, std::int64_t n) {
  InstrTrace t;
  const std::uint64_t refs = estimateDynamicRefs(v.program, n);
  t.reserve(refs, refs);
  DataLayout l = v.layoutAt(n);
  trace(v.program, l, {.n = n}, t);
  return t;
}

void printHistograms(const std::string& title,
                     const std::vector<std::pair<std::string, Log2Histogram>>&
                         curves) {
  std::printf("\n-- %s --\n", title.c_str());
  int maxBin = 0;
  for (const auto& [name, h] : curves)
    maxBin = std::max(maxBin, h.highestNonEmptyBin());
  std::vector<std::string> header{"bin(log2 rd)"};
  for (const auto& [name, h] : curves) header.push_back(name);
  TextTable t(header);
  for (int bin = 0; bin <= maxBin; ++bin) {
    std::vector<std::string> row{std::to_string(bin)};
    for (const auto& [name, h] : curves)
      row.push_back(std::to_string(h.binCount(bin)));
    t.addRow(row);
  }
  std::printf("%s", t.render().c_str());
}

void panel(const std::string& app, std::int64_t n, bool withFusionCurve) {
  Engine& engine = bench::sessionEngine();
  Program p = apps::buildApp(app);
  // The pipeline is cached per app, so the two ADI / SP panels reuse it.
  ProgramVersion noOpt = engine.version(p, Strategy::NoOpt);
  InstrTrace trace = traceOf(noOpt, n);

  std::vector<std::pair<std::string, Log2Histogram>> curves;
  curves.emplace_back("program order", profileOrder(trace, programOrder(trace)));
  curves.emplace_back("reuse-driven",
                      profileOrder(trace, reuseDrivenOrder(trace)));
  if (withFusionCurve) {
    ProgramVersion fused = engine.version(p, Strategy::Fused);
    InstrTrace fusedTrace = traceOf(fused, n);
    curves.emplace_back("reuse-based fusion",
                        profileOrder(fusedTrace, programOrder(fusedTrace)));
  }
  char title[128];
  std::snprintf(title, sizeof title, "%s, n=%lld", app.c_str(),
                static_cast<long long>(n));
  printHistograms(title, curves);
}

}  // namespace

int main() {
  using namespace gcr;
  bench::printHeader(
      "Figure 3: effect of reuse-driven execution on reuse distances",
      "four panels: ADI 50x50 / 100x100, SP 14^3 / 28^3 (+fusion curve)");

  panel("ADI", 50, false);
  panel("ADI", 100, false);
  const std::int64_t spSmall = 10;
  const std::int64_t spLarge = gcr::bench::fullSize() ? 28 : 16;
  panel("SP", spSmall, false);
  panel("SP", spLarge, true);

  std::printf(
      "\nexpected shape: the program-order hill at high bins shifts right "
      "with input size;\nreuse-driven execution collapses most of it toward "
      "low bins; the fusion curve\nsits between the two (the paper: fusion "
      "realizes a large part of the ideal).\n");
  bench::printEngineStats();
  return 0;
}
