// Test-only referees for the reuse-distance tracker.
//
// FenwickTree and ReuseDistanceTracker are the tracker the library shipped
// before time compaction, the dense element index and bitset leaves: an
// int64 Fenwick tree over trace positions, sized to the trace length, with
// one mark per datum at the position of its latest access and a FlatMap64
// from address to that position.  The class bodies are the shipped code
// unchanged; only their namespace moved, and access() moved from the .cpp
// into the header.  The library tracker must return the same distance on
// every access (tests/locality/tracker_referee_test.cpp).
//
// naiveReuseDistances is the O(T * D) definition itself: for each access,
// the number of distinct other data touched since the previous access to
// the same datum.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "support/assert.hpp"
#include "support/flat_map.hpp"
#include "support/histogram.hpp"

namespace gcr::testing {

class FenwickTree {
 public:
  /// Add `delta` at position `i` (0-based).  Grows capacity on demand.
  void add(std::uint64_t i, int delta) {
    if (i >= size_) grow(i + 1);
    for (std::uint64_t x = i + 1; x <= size_; x += x & (~x + 1))
      tree_[x] += delta;
  }

  /// Sum of positions [0, i] (0-based, inclusive).  i may exceed capacity.
  std::int64_t prefixSum(std::uint64_t i) const {
    std::int64_t total = 0;
    std::uint64_t x = std::min(i + 1, size_);
    for (; x > 0; x -= x & (~x + 1)) total += tree_[x];
    return total;
  }

  /// Sum of positions [lo, hi] inclusive; 0 when the range is empty.
  std::int64_t rangeSum(std::uint64_t lo, std::uint64_t hi) const {
    if (lo > hi) return 0;
    return prefixSum(hi) - (lo == 0 ? 0 : prefixSum(lo - 1));
  }

  std::uint64_t capacity() const { return size_; }

  /// Pre-size to avoid rebuilds when the final position count is known.
  void reserve(std::uint64_t n) {
    if (n > size_) grow(n);
  }

 private:
  void grow(std::uint64_t needed) {
    std::uint64_t newSize = size_ ? size_ : 1024;
    while (newSize < needed) newSize *= 2;
    // Extract live marks under the old size, then rebuild at the new size.
    std::vector<std::uint64_t> marked;
    for (std::uint64_t i = 0; i < size_; ++i)
      if (rangeSum(i, i) != 0) marked.push_back(i);
    tree_.assign(newSize + 1, 0);
    size_ = newSize;
    for (std::uint64_t i : marked) add(i, 1);
  }

  std::uint64_t size_ = 0;
  std::vector<std::int64_t> tree_;  // 1-based internal
};

class ReuseDistanceTracker {
 public:
  static constexpr std::uint64_t kCold = Log2Histogram::kCold;

  /// Process one access; returns its reuse distance, or kCold for a first
  /// access.
  std::uint64_t access(std::int64_t addr) {
    std::uint64_t& lastPlusOne = last_[addr];
    std::uint64_t distance = kCold;
    if (lastPlusOne != 0) {
      const std::uint64_t prev = lastPlusOne - 1;
      // Marks strictly after `prev` and strictly before `time_` are the
      // distinct other data touched in between.
      distance = static_cast<std::uint64_t>(
          time_ > prev + 1 ? marks_.rangeSum(prev + 1, time_ - 1) : 0);
      marks_.add(prev, -1);
    }
    marks_.add(time_, +1);
    lastPlusOne = time_ + 1;
    ++time_;
    return distance;
  }

  std::uint64_t accesses() const { return time_; }
  std::uint64_t distinctData() const { return last_.size(); }

  /// Pre-size both internal structures: the mark tree for the trace length
  /// and the last-access map for the distinct-datum count.  Pass
  /// expectedDistinctData = 0 when only the trace length is known; the map
  /// is then sized for the trace length too (distinct data is bounded by
  /// it), which avoids every mid-trace rehash at the cost of memory — use
  /// the two-argument form for large traces.
  void reserve(std::uint64_t expectedAccesses,
               std::uint64_t expectedDistinctData = 0) {
    marks_.reserve(expectedAccesses);
    last_.reserve(static_cast<std::size_t>(
        expectedDistinctData > 0 ? expectedDistinctData : expectedAccesses));
  }

 private:
  FlatMap64<std::uint64_t> last_;  // addr -> 1 + trace position of last access
  FenwickTree marks_;
  std::uint64_t time_ = 0;
};

/// O(T * D) reference implementation for differential testing.
inline std::vector<std::uint64_t> naiveReuseDistances(
    const std::vector<std::int64_t>& trace) {
  std::vector<std::uint64_t> out(trace.size(), ReuseDistanceTracker::kCold);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    for (std::size_t j = i; j-- > 0;) {
      if (trace[j] == trace[i]) {
        std::unordered_set<std::int64_t> between;
        for (std::size_t k = j + 1; k < i; ++k)
          if (trace[k] != trace[i]) between.insert(trace[k]);
        out[i] = between.size();
        break;
      }
    }
  }
  return out;
}

}  // namespace gcr::testing
