#include "engine/config.hpp"

#include <thread>

#include "support/env.hpp"

namespace gcr {

int EngineConfig::resolveThreads() const {
  if (threads > 0) return threads;
  if (const int v = env::threads(); v >= 1) return v;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

std::string EngineConfig::resolveCacheDir() const {
  if (cacheDir.has_value()) return *cacheDir;
  return env::cacheDir();
}

}  // namespace gcr
