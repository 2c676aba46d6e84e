// Engine session sweep: the fig9/fig10 measurement suite executed twice
// through one gcr::Engine — a cold pass that populates the content-addressed
// caches and a warm pass that replays the identical request stream.
//
// Three gates (all also recorded in BENCH_engine.json for CI):
//   * the warm pass must be at least 2x faster than the cold pass (the
//     session-cache amortization claim);
//   * every warm result must be byte-identical to its cold counterpart
//     (cached values are returned verbatim, never re-derived);
//   * the warm pass must be served from the caches (measurement hits > 0).
//
// The binary exits non-zero when any gate fails, so it doubles as a smoke
// test for the Engine in CI.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "bench_util.hpp"
#include "store/codec.hpp"
#include "support/table.hpp"

namespace {

using namespace gcr;

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SweepResult {
  std::vector<Measurement> measurements;
  std::vector<ReuseProfile> profiles;
  double seconds = 0;
};

struct AppRun {
  const char* name;
  std::int64_t n;
  std::uint64_t steps;
};

/// One full pass of the fig9/fig10 suite: four strategies per app measured
/// on the Origin 2000 model, plus the baseline reuse-distance profile.
SweepResult runSweep(Engine& engine, const std::vector<AppRun>& runs) {
  const MachineConfig machine = MachineConfig::origin2000();
  const Strategy strategies[] = {Strategy::NoOpt, Strategy::SgiLike,
                                 Strategy::Fused, Strategy::FusedRegrouped};
  SweepResult r;
  const double t0 = now();

  std::vector<MeasureTask> tasks;
  std::vector<ReuseTask> profTasks;
  for (const AppRun& run : runs) {
    Program p = apps::buildApp(run.name);
    for (Strategy s : strategies)
      tasks.push_back({engine.version(p, s), run.n, machine, run.steps});
    profTasks.push_back({engine.version(p, Strategy::NoOpt), run.n, run.steps});
  }
  r.measurements = engine.measureAll(tasks);
  r.profiles = engine.reuseProfilesOf(profTasks);
  r.seconds = now() - t0;
  return r;
}

// Cached results are returned verbatim: their store encodings must match.
bool identical(const Measurement& a, const Measurement& b) {
  return store::encodeMeasurement(a) == store::encodeMeasurement(b);
}

bool identical(const ReuseProfile& a, const ReuseProfile& b) {
  return store::encodeReuseProfile(a) == store::encodeReuseProfile(b);
}

}  // namespace

int main() {
  using namespace gcr;
  bench::printHeader(
      "Engine session sweep: cold vs warm fig9/fig10 suite",
      "content-addressed caching must replay the sweep >=2x faster, "
      "byte-identically");

  const bool full = bench::fullSize();
  const std::vector<AppRun> runs = {{"ADI", full ? 1000 : 200, 1},
                                    {"Swim", full ? 321 : 96, 2},
                                    {"Tomcatv", full ? 257 : 96, 2},
                                    {"SP", full ? 28 : 16, 1}};

  Engine engine;  // local session: the stats below cover exactly this sweep
  const SweepResult cold = runSweep(engine, runs);
  const Engine::Stats coldStats = engine.stats();
  const SweepResult warm = runSweep(engine, runs);
  const Engine::Stats warmStats = engine.stats();

  bool byteIdentical =
      cold.measurements.size() == warm.measurements.size() &&
      cold.profiles.size() == warm.profiles.size();
  for (std::size_t i = 0; byteIdentical && i < cold.measurements.size(); ++i)
    byteIdentical = identical(cold.measurements[i], warm.measurements[i]);
  for (std::size_t i = 0; byteIdentical && i < cold.profiles.size(); ++i)
    byteIdentical = identical(cold.profiles[i], warm.profiles[i]);

  const double speedup = warm.seconds > 0 ? cold.seconds / warm.seconds : 0.0;
  const std::uint64_t warmMeasurementHits =
      warmStats.measurement.hits - coldStats.measurement.hits;
  const std::uint64_t warmProfileHits =
      warmStats.profile.hits - coldStats.profile.hits;

  const bool speedupOk = speedup >= 2.0;
  const bool hitsOk = warmMeasurementHits > 0 && warmProfileHits > 0;

  TextTable t({"pass", "tasks", "wall (s)", "measurement hits",
               "profile hits"});
  t.addRow({"cold", std::to_string(cold.measurements.size() +
                                   cold.profiles.size()),
            TextTable::fmt(cold.seconds, 3),
            std::to_string(coldStats.measurement.hits),
            std::to_string(coldStats.profile.hits)});
  t.addRow({"warm", std::to_string(warm.measurements.size() +
                                   warm.profiles.size()),
            TextTable::fmt(warm.seconds, 3),
            std::to_string(warmMeasurementHits),
            std::to_string(warmProfileHits)});
  std::printf("%s", t.render().c_str());
  std::printf("warm-over-cold speedup: %.1fx (gate: >=2x) — %s\n", speedup,
              speedupOk ? "ok" : "FAIL");
  std::printf("cold/warm results byte-identical: %s\n",
              byteIdentical ? "ok" : "FAIL");
  std::printf("warm pass served from cache: %s\n", hitsOk ? "ok" : "FAIL");

  {
    bench::ResultWriter out("engine");
    JsonWriter& j = out.json();
    j.field("cold_seconds", cold.seconds, 4);
    j.field("warm_seconds", warm.seconds, 4);
    j.field("warm_speedup", speedup, 2);
    j.field("byte_identical", byteIdentical);
    j.field("speedup_gate_ok", speedupOk);
    j.field("cache_hits", warmMeasurementHits + warmProfileHits);
    j.key("apps").beginArray();
    for (const AppRun& run : runs) {
      j.beginObject();
      j.field("app", run.name);
      j.field("n", run.n);
      j.endObject();
    }
    j.endArray();
    out.addEngineStats(warmStats);
    out.finish();
  }

  const bool ok = speedupOk && byteIdentical && hitsOk;
  std::printf("engine sweep verdict: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
