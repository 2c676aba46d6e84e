// Test-only referee for the cache model: a set-associative LRU cache that
// does not keep its sets in recency order.  Every line carries a last-use
// stamp from a per-cache clock, a lookup scans the set's tags in way order,
// and a miss takes the first empty way or else the line with the oldest
// stamp.  The library's SetAssocCache must agree with it access by access
// (tests/cachesim/cache_differential_test.cpp).
//
// StampedHierarchy is MemoryHierarchy::access (src/cachesim/hierarchy.cpp)
// over StampedCache levels, so whole-program miss counts can be compared
// too.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cachesim/cache.hpp"
#include "cachesim/hierarchy.hpp"
#include "interp/trace.hpp"

namespace gcr::testing {

class StampedCache {
 public:
  explicit StampedCache(const CacheConfig& cfg);

  /// Simulate one reference; returns true on hit.
  bool access(std::int64_t addr, bool isWrite);

  /// Bring the line holding `addr` into the cache without a demand access.
  void prefetch(std::int64_t addr);

  bool lastHitWasPrefetched() const { return lastHitWasPrefetched_; }

  const CacheStats& stats() const { return stats_; }

 private:
  struct Line {
    std::int64_t tag = -1;
    std::uint64_t lastUse = 0;
    bool dirty = false;
    bool prefetched = false;
  };

  Line* findVictim(std::int64_t set);

  CacheConfig cfg_;
  std::int64_t setMask_ = 0;
  int lineShift_ = 0;
  std::vector<Line> lines_;  // numSets * ways, set-major
  CacheStats stats_;
  std::uint64_t clock_ = 0;
  bool lastHitWasPrefetched_ = false;
};

/// Fully-associative-LRU TLB is a 1-set cache over page-granular addresses.
StampedCache makeStampedTlb(int entries, std::int64_t pageSize);

/// TLB + L1 + L2 with MemoryHierarchy's access path and tagged next-line
/// prefetch, over StampedCache.
class StampedHierarchy final : public InstrSink {
 public:
  explicit StampedHierarchy(const MachineConfig& cfg);

  void access(std::int64_t addr, bool isWrite);
  void onInstr(int stmtId, std::span<const std::int64_t> reads,
               std::int64_t write) override;
  void onBlock(const InstrBlock& b) override;

  MissCounts counts() const;

 private:
  MachineConfig cfg_;
  StampedCache l1_;
  StampedCache l2_;
  StampedCache tlb_;
};

}  // namespace gcr::testing
