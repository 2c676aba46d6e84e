// Versioned JSON result envelope for the experiment binaries.
//
// Schema "gcr-bench/2" — every BENCH_*.json starts with the same header:
//
//   {
//     "schema": "gcr-bench/2",
//     "schema_version": 2,
//     "benchmark": "<name>",
//     ... bench-specific fields, in insertion order ...
//     "engine_cache": { pipeline/plan/measurement/profile counters,
//                       "inflight_coalesced": N },   (when an Engine ran)
//     "wall_seconds": S                   (wall clock since process start)
//   }
//
// schema/1 was the ad-hoc per-bench fprintf format of the pre-Engine suite;
// /2 adds the version header, the Engine cache statistics, and a uniform
// wall-clock field.  Wall-clock and cache-counter fields vary run to run —
// consumers comparing results for determinism must restrict themselves to
// the bench-specific payload, exactly as CI's grep filters do for stdout.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>

#include "engine/engine.hpp"
#include "support/json.hpp"

namespace gcr::bench {

/// Taken during static initialization, before main(): every bench builds
/// its ResultWriter after the timed work, so "wall_seconds" must not count
/// from the writer's construction.
inline const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

class ResultWriter {
 public:
  static constexpr int kSchemaVersion = 2;

  explicit ResultWriter(std::string benchmark)
      : path_("BENCH_" + benchmark + ".json") {
    json_.beginObject();
    json_.field("schema", "gcr-bench/2");
    json_.field("schema_version", std::int64_t{kSchemaVersion});
    json_.field("benchmark", std::string_view(benchmark));
  }

  /// Bench-specific payload: add fields/arrays in any order between
  /// construction and finish().
  JsonWriter& json() { return json_; }

  /// Record the cache counters of the Engine that produced the results,
  /// including the disk-tier counters (all zero when no persistent store
  /// was attached).
  void addEngineStats(const Engine::Stats& s) {
    json_.key("engine_cache").beginObject();
    cacheObject("pipeline", s.pipeline);
    cacheObject("plan", s.plan);
    cacheObject("measurement", s.measurement);
    cacheObject("profile", s.profile);
    cacheObject("symbolic", s.symbolic);
    cacheObject("multicore", s.multicore);
    json_.field("inflight_coalesced", s.inflightCoalesced);
    json_.key("store").beginObject();
    json_.field("hits", s.store.hits);
    json_.field("misses", s.store.misses);
    json_.field("puts", s.store.puts);
    json_.field("put_failures", s.store.putFailures);
    json_.field("corrupt_rejected", s.store.corruptRejected);
    json_.field("evictions", s.store.evictions);
    json_.field("bytes_loaded", s.store.bytesLoaded);
    json_.field("bytes_stored", s.store.bytesStored);
    json_.endObject();
    json_.endObject();
  }

  /// Close the envelope (stamping the wall clock since process start) and
  /// write BENCH_<benchmark>.json.
  bool finish() {
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      kProcessStart)
            .count();
    json_.field("wall_seconds", wall, 3);
    json_.endObject();
    if (!json_.writeFile(path_)) return false;
    std::printf("wrote %s\n", path_.c_str());
    return true;
  }

  const std::string& path() const { return path_; }

 private:
  void cacheObject(std::string_view name, const CacheCounters& c) {
    json_.key(name).beginObject();
    json_.field("hits", c.hits);
    json_.field("misses", c.misses);
    json_.field("evictions", c.evictions);
    json_.field("entries", c.entries);
    json_.endObject();
  }

  JsonWriter json_;
  std::string path_;
};

}  // namespace gcr::bench
