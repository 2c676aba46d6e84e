// The single parsing site for the GCR_* environment variables (DESIGN.md
// §9a).  Their one reader is EngineConfig (engine/config.hpp), whose
// resolveThreads() (GCR_THREADS) and resolveCacheDir() (GCR_CACHE_DIR)
// apply one precedence rule: explicit config field > environment variable
// > built-in default.  So the accepted syntax is defined exactly once.
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
