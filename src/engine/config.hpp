// EngineConfig — the one configuration record of a gcr::Engine session.
//
// Replaces the grown MeasureOptions / per-Engine options /
// environment-variable trio.  Every knob lives here, each with a builder-style setter, and every
// environment override resolves through gcr::env (support/env.hpp) with one
// precedence rule, applied uniformly:
//
//     explicit config field  >  environment variable  >  built-in default
//
//   threads   — threads > 0 wins; else GCR_THREADS; else
//               hardware_concurrency (resolveThreads()).
//   cacheDir  — cacheDir set wins ("" disables the disk tier even when the
//               variable is set); else GCR_CACHE_DIR; else "" = no disk tier
//               (resolveCacheDir()).
//
// The resolve*() helpers are the only place this precedence is encoded;
// Engine reads the environment exactly once, at construction, through them
// (pinned by tests/engine/engine_config_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace gcr {

/// Every request runs the compiled access plan (interp/plan.hpp); there is
/// no other execution engine to choose.  This one-value enum and
/// EngineConfig::engine remain only because gcrbench's engineConfig()
/// (gcrbench/src/sweeps.cpp) still pins the field; ROADMAP.md item 1 drops
/// that pin and deletes both.
enum class ExecEngine { Plan };

struct EngineConfig {
  /// Per-cache entry bounds; 0 disables that cache.
  std::size_t pipelineCacheCapacity = 64;
  std::size_t planCacheCapacity = 64;
  std::size_t measurementCacheCapacity = 512;
  std::size_t profileCacheCapacity = 128;
  std::size_t symbolicCacheCapacity = 64;
  std::size_t multicoreCacheCapacity = 64;
  /// Thread-pool size for submit()/batch APIs (including the calling
  /// thread).  0 defers to GCR_THREADS / hardware_concurrency; 1 runs every
  /// submission inline (the determinism baseline).
  int threads = 0;
  /// Reuse-distance sampling rate in (0, 1].  1.0 (default) is the exact
  /// tracker; smaller rates switch profiles to the SHARDS-style sampled
  /// tracker with distances and counts scaled by 1/rate.
  double sampleRate = 1.0;
  /// Written only by gcrbench/src/sweeps.cpp; nothing in src/ reads it
  /// (see ExecEngine).
  ExecEngine engine = ExecEngine::Plan;
  /// Directory of the persistent artifact store (the disk cache tier).
  /// nullopt (default) defers to GCR_CACHE_DIR; an empty string disables
  /// the disk tier even when the variable is set.  Created on demand; if it
  /// cannot be opened the Engine silently runs memory-only.
  std::optional<std::string> cacheDir;
  /// fsync artifacts during publication (crash durability).  Disable only
  /// for throwaway store directories; publication stays atomic.
  bool storeFsync = true;
  /// Disk-store size budget in bytes (0 = unbounded); oldest entries are
  /// evicted after a publication pushes the store past the budget.
  std::uint64_t storeMaxBytes = 0;

  // --- builder ------------------------------------------------------------

  EngineConfig& withThreads(int t) {
    threads = t;
    return *this;
  }
  EngineConfig& withSampleRate(double rate) {
    sampleRate = rate;
    return *this;
  }
  EngineConfig& withCacheDir(std::string dir) {
    cacheDir = std::move(dir);
    return *this;
  }
  EngineConfig& withStoreFsync(bool fsync) {
    storeFsync = fsync;
    return *this;
  }
  EngineConfig& withStoreMaxBytes(std::uint64_t bytes) {
    storeMaxBytes = bytes;
    return *this;
  }

  // --- environment resolution (the single precedence site) ----------------

  /// Final worker count: threads > 0, else GCR_THREADS, else
  /// hardware_concurrency (never less than 1).
  int resolveThreads() const;

  /// Final store directory: the explicit field when set (may be "" =
  /// disabled), else GCR_CACHE_DIR, else "" (no disk tier).
  std::string resolveCacheDir() const;
};

}  // namespace gcr
