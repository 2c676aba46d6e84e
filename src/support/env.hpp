// The single parsing site for the GCR_* environment variables (DESIGN.md
// §9a).  Every layer that honors an environment override reads it through
// these helpers — ThreadPool (GCR_THREADS) and the Engine's disk tier
// (GCR_CACHE_DIR) — so the accepted syntax is defined exactly once, and
// EngineConfig (engine/config.hpp) can document one precedence rule:
// explicit config field > environment variable > built-in default.
//
// Helpers read the environment on every call (no caching), so tests can
// setenv/unsetenv between Engine constructions.
#pragma once

#include <string>

namespace gcr::env {

/// GCR_THREADS: worker count including the calling thread.  Returns the
/// parsed value when it is a positive integer, 0 otherwise (unset, empty or
/// malformed — the caller falls back to hardware_concurrency).
int threads();

/// GCR_CACHE_DIR: directory of the persistent artifact store.  Returns the
/// raw value, "" when unset (no disk tier).
std::string cacheDir();

}  // namespace gcr::env
