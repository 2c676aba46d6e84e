// Compile-time cost of the passes (google-benchmark).
//
// Context from Section 4.1: the paper's fusion *analysis* took ~2 minutes
// (1-level) to ~4 minutes (3-level) on SP, but Omega-library code generation
// took up to 1.5 hours; the authors announce a direct generation scheme
// linear in loop levels — which is what this library implements, so the
// whole pipeline should run in milliseconds-to-seconds on SP.
#include <benchmark/benchmark.h>

#include "analysis/dependence.hpp"
#include "analysis/legality.hpp"
#include "analysis/symbolic_reuse.hpp"
#include "apps/registry.hpp"
#include "driver/pipeline.hpp"
#include "xform/distribute.hpp"
#include "xform/unroll_split.hpp"

namespace {

using namespace gcr;

void BM_Distribute(benchmark::State& state, const char* app) {
  Program p = apps::buildApp(app);
  for (auto _ : state) benchmark::DoNotOptimize(distributeLoops(p));
}

void BM_UnrollSplit(benchmark::State& state, const char* app) {
  Program p = apps::buildApp(app);
  for (auto _ : state) benchmark::DoNotOptimize(unrollAndSplit(p));
}

void BM_FuseOneLevel(benchmark::State& state, const char* app) {
  Program p = distributeLoops(unrollAndSplit(apps::buildApp(app)).program);
  for (auto _ : state) benchmark::DoNotOptimize(fuseProgramLevels(p, 1));
}

void BM_FuseAllLevels(benchmark::State& state, const char* app) {
  Program p = distributeLoops(unrollAndSplit(apps::buildApp(app)).program);
  for (auto _ : state) benchmark::DoNotOptimize(fuseProgram(p));
}

void BM_Regroup(benchmark::State& state, const char* app) {
  Program p = fuseProgram(
      distributeLoops(unrollAndSplit(apps::buildApp(app)).program));
  for (auto _ : state) benchmark::DoNotOptimize(Regrouping::analyze(p));
}

void BM_FullPipeline(benchmark::State& state, const char* app) {
  Program p = apps::buildApp(app);
  for (auto _ : state) benchmark::DoNotOptimize(runPipeline(p));
}

// Static analysis cost (gcr-verify's hot path).  The per-pair rate is the
// figure of merit: the dependence census is quadratic in reference sites.
void BM_DependenceCensus(benchmark::State& state, const char* app) {
  Program p = apps::buildApp(app);
  std::uint64_t pairs = 0;
  for (auto _ : state) {
    const DependenceSummary s = analyzeProgramDependences(p);
    pairs = s.pairsAnalyzed;
    benchmark::DoNotOptimize(s.deps.size());
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["time_per_pair"] = benchmark::Counter(
      static_cast<double>(pairs),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_VerifyProgram(benchmark::State& state, const char* app) {
  Program p = apps::buildApp(app);
  for (auto _ : state)
    benchmark::DoNotOptimize(verifyProgram(p, app).diags.size());
}

// The static reuse-profile estimate at one size: the symbolic analysis plus
// one evaluation of its formulas.
void BM_StaticReuseProfile(benchmark::State& state, const char* app) {
  Program p = apps::buildApp(app);
  for (auto _ : state) {
    const SymbolicReuseProfile sym = analyzeSymbolicReuse(p);
    benchmark::DoNotOptimize(evaluateSymbolicProfile(sym, 64).accesses);
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_Distribute, sp, "SP");
BENCHMARK_CAPTURE(BM_UnrollSplit, sp, "SP");
BENCHMARK_CAPTURE(BM_FuseOneLevel, sp, "SP");
BENCHMARK_CAPTURE(BM_FuseAllLevels, sp, "SP");
BENCHMARK_CAPTURE(BM_Regroup, sp, "SP");
BENCHMARK_CAPTURE(BM_FullPipeline, sp, "SP");
BENCHMARK_CAPTURE(BM_FullPipeline, swim, "Swim");
BENCHMARK_CAPTURE(BM_FullPipeline, tomcatv, "Tomcatv");
BENCHMARK_CAPTURE(BM_FullPipeline, adi, "ADI");

BENCHMARK_CAPTURE(BM_DependenceCensus, sp, "SP");
BENCHMARK_CAPTURE(BM_DependenceCensus, swim, "Swim");
BENCHMARK_CAPTURE(BM_DependenceCensus, tomcatv, "Tomcatv");
BENCHMARK_CAPTURE(BM_DependenceCensus, adi, "ADI");
BENCHMARK_CAPTURE(BM_VerifyProgram, sp, "SP");
BENCHMARK_CAPTURE(BM_VerifyProgram, swim, "Swim");
BENCHMARK_CAPTURE(BM_VerifyProgram, tomcatv, "Tomcatv");
BENCHMARK_CAPTURE(BM_VerifyProgram, adi, "ADI");
BENCHMARK_CAPTURE(BM_StaticReuseProfile, sp, "SP");
BENCHMARK_CAPTURE(BM_StaticReuseProfile, swim, "Swim");
BENCHMARK_CAPTURE(BM_StaticReuseProfile, tomcatv, "Tomcatv");
BENCHMARK_CAPTURE(BM_StaticReuseProfile, adi, "ADI");

BENCHMARK_MAIN();
