#include "support/env.hpp"

#include <cstdlib>

namespace gcr::env {

namespace {

std::string raw(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : std::string();
}

}  // namespace

int threads() {
  const std::string v = raw("GCR_THREADS");
  if (v.empty()) return 0;
  const int parsed = std::atoi(v.c_str());
  return parsed >= 1 ? parsed : 0;
}

std::string cacheDir() { return raw("GCR_CACHE_DIR"); }

}  // namespace gcr::env
