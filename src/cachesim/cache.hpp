// Set-associative LRU cache model.
//
// Geometry matches the paper's machines (SGI Octane R10K and Origin2000
// R12K): L1 32KB / 32B lines, L2 1MB or 4MB / 128B lines, both 2-way.  The
// same class models the TLB (numSets = 1, ways = entry count, lineSize =
// page size) and the "perfect cache" of Section 2.1 (fully associative).
// Policy: write-back, write-allocate.
//
// The constructor picks one of two set representations from the geometry.
// Both are exact LRU and agree access by access with the stamped-LRU
// referee in tests/cachesim/stamped_cache.*.
//
//   * Recency-ordered sets: every geometry with more than one set, or with
//     fewer than kStampedMinWays ways (L1, L2).  Way 0 holds the most
//     recently used line and the last way the LRU victim, with empty ways
//     at the tail.  A set is therefore the LRU stack of Section 2.1, cut at
//     the associativity: a lookup walks from the most recent line and stops
//     at the line's stack depth, so an access hits iff its reuse distance
//     within the set is below the way count.  The way-0 compare is inline; a
//     deeper hit moves its line to the front, and a miss shifts the set down
//     one way and fills way 0.
//   * Stamped ways: one set of at least kStampedMinWays ways (the TLB, the
//     perfect cache).  A line stays in the way it was filled into and
//     carries the clock value of its last use; a miss fills the first empty
//     way, else the way with the oldest stamp.  A direct-mapped hint table,
//     block -> way, of max(1024, 4 x ways) slots rounded up to a power of
//     two sits in front of the ways.  A hint is always checked against the
//     way's tag, so a hit through it is one inline compare at any depth;
//     only a stale hint or a miss scans the tags, and a miss scans the
//     stamps for its victim.  A slot that no fill has pointed anywhere
//     proves a miss without the tag scan.  Many pages interleave in a TLB,
//     so its hits sit deep in the recency order, where a recency-ordered
//     set would walk to them.
//
// access() dispatches after the recency path's way-0 compare, which stays
// the first test: for stamped ways setOf() returns an empty line that no
// block matches, so L1 and L2 hits pay nothing for the second
// representation (EXPERIMENTS.md has the placements measured).
//
// sameState() compares two caches' canonical state: what decides every
// later hit, miss, writeback and prefetch hit.  For recency-ordered sets
// that is each set's lines in order with their tag, dirty and prefetch
// bits; for stamped ways the resident lines in stamp order, whichever ways
// hold them.  Stats, the clock and the hint table only count or speed up,
// and are left out.  Time-step extrapolation (driver/measure.hpp) stops a
// simulation once the state after a step equals the state before it.
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
  /// One set of at least this many ways uses stamped ways and the hint
  /// table; every other geometry keeps recency-ordered sets.
  static constexpr int kStampedMinWays = 16;

  explicit SetAssocCache(const CacheConfig& cfg);

  /// Simulate one reference; returns true on hit.  Addresses must be
  /// non-negative.
  bool access(std::int64_t addr, bool isWrite) {
    if (addr < 0) rejectNegative(addr);
    ++stats_.accesses;
    const std::int64_t block = addr >> lineShift_;
    Line* set = setOf(block);
    if (set->tag != block)
      return stamped_ ? accessStamped(block, isWrite)
                      : accessBeyondMru(set, block, isWrite);
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

  /// True when both caches have one geometry and the same canonical state
  /// (above), so that any stream of accesses from here on counts the same
  /// hits, misses, writebacks and prefetch hits in both.
  bool sameState(const SetAssocCache& other) const;

 private:
  struct Line {
    std::int64_t tag = -1;  ///< block number; -1 marks an empty way
    bool dirty = false;
    bool prefetched = false;

    bool operator==(const Line&) const = default;
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

  /// access() on stamped ways, after setOf()'s empty line: the hinted
  /// way's compare is inline.
  bool accessStamped(std::int64_t block, bool isWrite) {
    std::uint32_t& hint = hint_[static_cast<std::size_t>(block & hintMask_)];
    Line& line = lines_[hint];
    if (line.tag != block) return accessStampedScan(hint, block, isWrite);
    stamps_[hint] = ++clock_;
    line.dirty = line.dirty || isWrite;
    consumePrefetchMark(line);
    return true;
  }
  /// The out-of-line part of accessStamped(): a stale hint or a miss.
  bool accessStampedScan(std::uint32_t& hint, std::int64_t block,
                         bool isWrite);
  /// The way holding `block`, found by a tag scan unless `hint` was never
  /// set; re-points `hint` at it.  0 when the block is absent.
  std::size_t findStamped(std::uint32_t& hint, std::int64_t block);
  /// Fill `block` into the first empty way, else the least recently used
  /// one, and point `hint` at it.
  void fillStamped(std::uint32_t& hint, const Line& line);
  /// The resident stamped lines, most recently used first.
  std::vector<Line> stampedRecencyOrder() const;

  // Recency-ordered: numSets * ways, set-major, MRU first.  Stamped: an
  // empty line that setOf() returns and no block matches, then ways 1..ways.
  std::vector<Line> lines_;
  std::int64_t setMask_ = 0;
  std::size_t ways_ = 0;
  int lineShift_ = 0;
  bool lastHitWasPrefetched_ = false;
  CacheStats stats_;
  CacheConfig cfg_;
  // Stamped ways only.
  bool stamped_ = false;
  std::int64_t hintMask_ = 0;
  std::uint64_t clock_ = 0;
  std::vector<std::uint64_t> stamps_;  // per line; 0 marks an empty way
  std::vector<std::uint32_t> hint_;    // block & hintMask_ -> way; 0 until
                                       // a fill points it
};

/// Fully-associative-LRU TLB is a 1-set cache over page-granular addresses.
SetAssocCache makeTlb(int entries, std::int64_t pageSize,
                      const std::string& name = "TLB");

}  // namespace gcr
