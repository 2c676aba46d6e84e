// Set-associative LRU cache model.
//
// Geometry matches the paper's machines (SGI Octane R10K and Origin2000
// R12K): L1 32KB / 32B lines, L2 1MB or 4MB / 128B lines, both 2-way.  The
// same class models the TLB (numSets = 1, ways = entry count, lineSize =
// page size) and the "perfect cache" of Section 2.1 (fully associative).
// Policy: write-back, write-allocate.
//
// Each set is kept in recency order: way 0 holds the most recently used
// line and the last way the LRU victim, with empty ways at the tail.  A set
// is therefore the LRU stack of Section 2.1, cut at the associativity: a
// lookup walks from the most recent line and stops at the line's stack
// depth, so an access hits iff its reuse distance within the set is below
// the way count.  The way-0 compare is inline; a deeper hit moves its line
// to the front, and a miss shifts the set down one way and fills way 0.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/assert.hpp"

namespace gcr {

struct CacheConfig {
  std::int64_t sizeBytes = 0;
  std::int64_t lineSize = 0;
  int ways = 0;
  std::string name;

  std::int64_t numSets() const { return sizeBytes / (lineSize * ways); }
};

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t prefetchFills = 0;  ///< lines brought in by prefetch()
  std::uint64_t prefetchHits = 0;   ///< demand hits on prefetched lines

  std::uint64_t hits() const { return accesses - misses; }
  double missRate() const {
    return accesses ? static_cast<double>(misses) /
                          static_cast<double>(accesses)
                    : 0.0;
  }
};

class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheConfig& cfg);

  /// Simulate one reference; returns true on hit.  Addresses must be
  /// non-negative.
  bool access(std::int64_t addr, bool isWrite) {
    if (addr < 0) rejectNegative(addr);
    ++stats_.accesses;
    const std::int64_t block = addr >> lineShift_;
    Line* set = setOf(block);
    if (set->tag != block) return accessBeyondMru(set, block, isWrite);
    set->dirty = set->dirty || isWrite;
    consumePrefetchMark(*set);
    return true;
  }

  /// Bring the line holding `addr` into the cache without a demand access —
  /// the model for (software or next-line hardware) prefetching.  A later
  /// demand hit on the line is counted as a prefetch hit.  Prefetch fills
  /// consume memory bandwidth like any fill; that tradeoff (latency hidden,
  /// bandwidth spent) is the paper's Section 1 argument for why
  /// latency-oriented techniques cannot replace traffic reduction.
  void prefetch(std::int64_t addr);

  /// True when the most recent access() hit a line brought in by
  /// prefetch() — used for tagged prefetching (keep the stream running).
  bool lastHitWasPrefetched() const { return lastHitWasPrefetched_; }

  const CacheConfig& config() const { return cfg_; }
  const CacheStats& stats() const { return stats_; }
  void resetStats() { stats_ = CacheStats{}; }

 private:
  struct Line {
    std::int64_t tag = -1;  ///< block number; -1 marks an empty way
    bool dirty = false;
    bool prefetched = false;
  };

  Line* setOf(std::int64_t block) {
    return &lines_[static_cast<std::size_t>(block & setMask_) * ways_];
  }
  void consumePrefetchMark(Line& line) {
    lastHitWasPrefetched_ = line.prefetched;
    if (line.prefetched) {
      ++stats_.prefetchHits;
      line.prefetched = false;
    }
  }
  /// Throws gcr::Error.  Out of line so that the hit path stays small: an
  /// empty way's tag, -1, is the block of every address in [-lineSize, -1].
  [[noreturn]] static void rejectNegative(std::int64_t addr);
  /// Called on the line that leaves the cache to make room for a fill.
  void countWriteback(const Line& victim) {
    if (victim.tag >= 0 && victim.dirty) ++stats_.writebacks;
  }
  /// The out-of-line part of access(): a hit below way 0 or a miss.
  bool accessBeyondMru(Line* set, std::int64_t block, bool isWrite);

  std::vector<Line> lines_;  // numSets * ways, set-major, MRU first
  std::int64_t setMask_ = 0;
  std::size_t ways_ = 0;
  int lineShift_ = 0;
  bool lastHitWasPrefetched_ = false;
  CacheStats stats_;
  CacheConfig cfg_;
};

/// Fully-associative-LRU TLB is a 1-set cache over page-granular addresses.
SetAssocCache makeTlb(int entries, std::int64_t pageSize,
                      const std::string& name = "TLB");

}  // namespace gcr
