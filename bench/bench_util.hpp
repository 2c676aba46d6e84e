// Shared helpers for the experiment binaries: every bench regenerates one
// paper table or figure and prints it in the paper's shape (normalized bars
// / ratio tables), plus the raw counters.
//
// Problem sizes default to values that keep the whole suite under a few
// minutes while the working sets still exceed the simulated L2; set
// GCR_FULL_SIZE=1 to run the paper's published input sizes.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "driver/measure.hpp"
#include "driver/pipeline.hpp"
#include "engine/engine.hpp"
#include "result_writer.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace gcr::bench {

inline bool fullSize() {
  const char* env = std::getenv("GCR_FULL_SIZE");
  return env != nullptr && env[0] == '1';
}

/// The process-wide session Engine every bench binary runs through: one
/// set of content-addressed caches amortizes pipeline runs, compiled plans
/// and repeated simulations across a binary's whole sweep.
inline Engine& sessionEngine() {
  static Engine engine;
  return engine;
}

inline void printHeader(const std::string& title, const std::string& paper) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper reference: %s\n", paper.c_str());
  std::printf("============================================================\n");
}

/// A measured sweep: one result per task, in task order, plus the wall
/// time of the whole Engine::measureAll batch — what this process actually
/// spent, which is near zero when the session answers from its caches.
struct Sweep {
  std::vector<Measurement> results;
  double seconds = 0;
};

/// Run `tasks` through the session Engine's scheduler (GCR_THREADS workers;
/// result i <- task i, so the printed tables are byte-identical for every
/// thread count; repeated tasks are served from the measurement cache).
inline Sweep measureSweep(const std::vector<MeasureTask>& tasks) {
  const auto t0 = std::chrono::steady_clock::now();
  Sweep s;
  s.results = sessionEngine().measureAll(tasks);
  s.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return s;
}

/// One bar group of Figure 10: a named version with its measurement.
struct VersionRow {
  std::string name;
  Measurement m;
};

/// Pair each name with the sweep result in the same slot.
inline std::vector<VersionRow> versionRows(std::vector<std::string> names,
                                           const Sweep& sweep) {
  std::vector<VersionRow> rows;
  rows.reserve(sweep.results.size());
  for (std::size_t i = 0; i < sweep.results.size(); ++i)
    rows.push_back({std::move(names[i]), sweep.results[i]});
  return rows;
}

/// Aggregate analysis throughput of a finished sweep.  Wall-clock based, so
/// deliberately printed *outside* the result tables: this line varies run
/// to run while the tables must not.
inline void printThroughput(const Sweep& sweep) {
  std::uint64_t refs = 0;
  for (const Measurement& m : sweep.results) refs += m.counts.refs;
  std::printf("analysis throughput: %.1f Maccesses/s "
              "(%llu refs, %.2f s batch wall time, %d threads)\n",
              sweep.seconds > 0
                  ? static_cast<double>(refs) / sweep.seconds / 1e6
                  : 0.0,
              static_cast<unsigned long long>(refs), sweep.seconds,
              ThreadPool::defaultThreadCount());
}

/// Session-Engine cache counters of a finished sweep.  Like the throughput
/// line, the counts may depend on scheduling (in-flight coalescing vs cache
/// hit), so this is printed outside the byte-compared result tables.  All
/// three lines ("engine cache", "engine store", "engine multicore") are
/// excluded by CI's determinism greps — keep those patterns in sync when
/// renaming.
inline void printEngineStats() {
  const Engine::Stats s = sessionEngine().stats();
  auto hm = [](const CacheCounters& c) {
    return std::to_string(c.hits) + "/" + std::to_string(c.misses);
  };
  std::printf("engine cache (hits/misses): pipeline %s, plan %s, "
              "measurement %s, profile %s; %llu in-flight coalesced\n",
              hm(s.pipeline).c_str(), hm(s.plan).c_str(),
              hm(s.measurement).c_str(), hm(s.profile).c_str(),
              static_cast<unsigned long long>(s.inflightCoalesced));
  if (s.multicore.hits != 0 || s.multicore.misses != 0)
    std::printf("engine multicore (hits/misses): %s\n",
                hm(s.multicore).c_str());
  const std::string dir = sessionEngine().cacheDirInUse();
  if (!dir.empty()) {
    const store::StoreCounters& d = s.store;
    std::printf("engine store (disk tier at %s): %llu hits, %llu misses, "
                "%llu puts, %llu corrupt-rejected, %llu evicted\n",
                dir.c_str(), static_cast<unsigned long long>(d.hits),
                static_cast<unsigned long long>(d.misses),
                static_cast<unsigned long long>(d.puts),
                static_cast<unsigned long long>(d.corruptRejected),
                static_cast<unsigned long long>(d.evictions));
  }
}

/// Print the Figure 10 panel: execution time and miss counts normalized to
/// the first (original) version, plus the raw rates.
inline void printFig10Panel(const std::string& app, std::int64_t n,
                            const MachineConfig& machine,
                            const std::vector<VersionRow>& rows) {
  std::printf("\n-- %s, %lldx%lld grid on %s --\n", app.c_str(),
              static_cast<long long>(n), static_cast<long long>(n),
              machine.name.c_str());
  TextTable t({"version", "time(norm)", "L1(norm)", "L2(norm)", "TLB(norm)",
               "L1 rate", "L2 rate", "TLB rate"});
  const Measurement& base = rows.front().m;
  auto norm = [](double v, double b) { return b > 0 ? v / b : 0.0; };
  for (const VersionRow& r : rows) {
    t.addRow({r.name, TextTable::fmt(norm(r.m.cycles, base.cycles), 3),
              TextTable::fmt(norm(static_cast<double>(r.m.counts.l1Misses),
                                  static_cast<double>(base.counts.l1Misses)),
                             3),
              TextTable::fmt(norm(static_cast<double>(r.m.counts.l2Misses),
                                  static_cast<double>(base.counts.l2Misses)),
                             3),
              TextTable::fmt(norm(static_cast<double>(r.m.counts.tlbMisses),
                                  static_cast<double>(base.counts.tlbMisses)),
                             3),
              TextTable::fmtPercent(r.m.counts.l1MissRate(), 2),
              TextTable::fmtPercent(r.m.counts.l2MissRate(), 3),
              TextTable::fmtPercent(r.m.counts.tlbMissRate(), 3)});
  }
  std::printf("%s", t.render().c_str());
  const double speedup = rows.front().m.cycles / rows.back().m.cycles;
  std::printf("combined speedup over original: %.2fx\n", speedup);
}

/// Standard gcr-bench/2 result file for a measured version sweep: one
/// object per VersionRow plus the session-Engine cache counters.
inline void writeVersionRowsJson(const std::string& benchmark,
                                 const std::string& app, std::int64_t n,
                                 const MachineConfig& machine,
                                 const std::vector<VersionRow>& rows) {
  ResultWriter w(benchmark);
  w.json().field("app", std::string_view(app));
  w.json().field("n", n);
  w.json().field("machine", std::string_view(machine.name));
  w.json().key("versions").beginArray();
  for (const VersionRow& r : rows) {
    w.json().beginObject();
    w.json().field("name", std::string_view(r.name));
    w.json().field("cycles", r.m.cycles, 1);
    w.json().field("refs", r.m.counts.refs);
    w.json().field("l1_misses", r.m.counts.l1Misses);
    w.json().field("l2_misses", r.m.counts.l2Misses);
    w.json().field("tlb_misses", r.m.counts.tlbMisses);
    w.json().field("memory_traffic_bytes", r.m.memoryTrafficBytes);
    w.json().field("effective_bandwidth", r.m.effectiveBandwidth, 4);
    w.json().endObject();
  }
  w.json().endArray();
  w.addEngineStats(sessionEngine().stats());
  w.finish();
}

}  // namespace gcr::bench
