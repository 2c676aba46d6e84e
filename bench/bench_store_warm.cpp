// Persistent-store warm-up sweep: the fig9 measurement suite executed by two
// *separate* Engines sharing one on-disk artifact store — a cold-disk pass
// that computes and publishes everything, then a cold-process/warm-disk pass
// (fresh Engine, empty in-memory caches) that must be served from disk.
//
// Three gates (all also recorded in BENCH_store.json for CI):
//   * the warm-disk pass must be at least 5x faster than the cold-disk pass
//     (mmap load + checksum beats recomputation by a wide margin);
//   * every warm result must be byte-identical to its cold counterpart
//     (stored artifacts are returned verbatim);
//   * the warm pass must actually hit the disk tier (store hits > 0, zero
//     corruption rejects).
//
// The binary exits non-zero when any gate fails, so it doubles as a smoke
// test for the store in CI.  The store directory is a throwaway temp dir
// (fsync elided — atomicity, not durability, is what the gates need).
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
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

/// One full pass of the fig9 suite through `engine`: four strategies per app
/// plus the baseline reuse-distance profile.
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
    profTasks.push_back(
        {engine.version(p, Strategy::NoOpt), run.n, run.steps});
  }
  r.measurements = engine.measureAll(tasks);
  r.profiles = engine.reuseProfilesOf(profTasks);
  r.seconds = now() - t0;
  return r;
}

// A disk hit replays the stored artifact verbatim: the encodings match.
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
      "Persistent store warm-up: cold-disk vs cold-process/warm-disk sweep",
      "the mmap disk tier must replay the fig9 suite >=5x faster, "
      "byte-identically");

  // Throwaway store directory for exactly this run.
  std::string storeDir;
  {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "gcr-bench-store.XXXXXX")
                           .string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      std::fprintf(stderr, "FATAL: cannot create store temp dir\n");
      return 1;
    }
    storeDir = buf.data();
  }

  const bool full = bench::fullSize();
  const std::vector<AppRun> runs = {{"ADI", full ? 1000 : 200, 1},
                                    {"Swim", full ? 321 : 96, 2},
                                    {"Tomcatv", full ? 257 : 96, 2},
                                    {"SP", full ? 28 : 16, 1}};

  EngineConfig opts;
  opts.cacheDir = storeDir;
  opts.storeFsync = false;  // throwaway dir: atomicity matters, syncs don't

  SweepResult cold, warm;
  Engine::Stats coldStats, warmStats;
  {
    Engine coldEngine(opts);  // empty memory, empty disk
    cold = runSweep(coldEngine, runs);
    coldStats = coldEngine.stats();
  }  // the "process" exits; only the disk survives
  {
    Engine warmEngine(opts);  // empty memory, warm disk
    warm = runSweep(warmEngine, runs);
    warmStats = warmEngine.stats();
  }

  bool byteIdentical = cold.measurements.size() == warm.measurements.size() &&
                       cold.profiles.size() == warm.profiles.size();
  for (std::size_t i = 0; byteIdentical && i < cold.measurements.size(); ++i)
    byteIdentical = identical(cold.measurements[i], warm.measurements[i]);
  for (std::size_t i = 0; byteIdentical && i < cold.profiles.size(); ++i)
    byteIdentical = identical(cold.profiles[i], warm.profiles[i]);

  const double speedup = warm.seconds > 0 ? cold.seconds / warm.seconds : 0.0;
  const bool speedupOk = speedup >= 5.0;
  const bool hitsOk =
      warmStats.store.hits > 0 && warmStats.store.corruptRejected == 0;

  TextTable t({"pass", "wall (s)", "store hits", "store puts",
               "bytes stored", "bytes loaded"});
  t.addRow({"cold disk", TextTable::fmt(cold.seconds, 3),
            std::to_string(coldStats.store.hits),
            std::to_string(coldStats.store.puts),
            std::to_string(coldStats.store.bytesStored),
            std::to_string(coldStats.store.bytesLoaded)});
  t.addRow({"warm disk", TextTable::fmt(warm.seconds, 3),
            std::to_string(warmStats.store.hits),
            std::to_string(warmStats.store.puts),
            std::to_string(warmStats.store.bytesStored),
            std::to_string(warmStats.store.bytesLoaded)});
  std::printf("%s", t.render().c_str());
  std::printf("warm-disk speedup over cold disk: %.1fx (gate: >=5x) — %s\n",
              speedup, speedupOk ? "ok" : "FAIL");
  std::printf("cold/warm results byte-identical: %s\n",
              byteIdentical ? "ok" : "FAIL");
  std::printf("warm pass served from the disk tier: %s\n",
              hitsOk ? "ok" : "FAIL");

  {
    bench::ResultWriter out("store");
    JsonWriter& j = out.json();
    j.field("store_dir", std::string_view(storeDir));
    j.field("cold_seconds", cold.seconds, 4);
    j.field("warm_seconds", warm.seconds, 4);
    j.field("warm_speedup", speedup, 2);
    j.field("byte_identical", byteIdentical);
    j.field("speedup_gate_ok", speedupOk);
    j.field("store_hits", warmStats.store.hits);
    j.field("store_corrupt_rejected", warmStats.store.corruptRejected);
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

  std::error_code ec;
  std::filesystem::remove_all(storeDir, ec);

  const bool ok = speedupOk && byteIdentical && hitsOk;
  std::printf("store warm-up verdict: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
