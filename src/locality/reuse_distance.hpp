// Reuse-distance analysis (Section 2.1 of the paper).
//
// The reuse distance of a reference is the number of *distinct* data items
// accessed between it and the closest previous reference to the same item
// (Figure 1: in `a b c a`, the second `a` has distance 2).  On a perfect
// cache — fully associative, LRU — a reuse hits iff its distance is smaller
// than the cache capacity; that equivalence is tested against the cache
// simulator.
//
// The streaming tracker keeps one mark per datum seen, in a time slot: the
// slot of the datum's latest access.  The distance of a reuse is the number
// of marks after the datum's own.  Time and memory are bounded by the
// distinct data, not by the trace length:
//
//   * Time compaction.  When the slot cursor reaches capacity, the live
//     marks are renumbered densely in time order, by one pass over the slot
//     bits and a slot -> datum array.  Capacity stays at least twice the
//     live count, so compaction costs O(1) amortized per access.
//   * Bitset leaves.  One bit per slot in 64-bit words, under a Fenwick tree
//     of per-word counts (capacity / 64 entries).  A reuse within a few
//     words of the cursor is counted by popcounts; any other reuse is
//     live − prefix(previous slot), one walk of the tree.  The cursor's own
//     word enters the tree once, when it fills.
//   * A last-access index that is a dense array over the element range the
//     caller declares (reserve()), with a FlatMap64 for every other key.
//
// Memory is 4 bytes per element of the declared range, 16–33 bytes per
// distinct datum for the slots, and a hash-map entry (19–37 bytes) per datum
// outside the range.  The trace-length-sized tracker this replaced is the
// test referee (tests/locality/tracker_referee.hpp).
//
// The InstrSink adapter that builds a ReuseProfile, and profileAddresses(),
// take a sampling rate and live with the sampler in sampled_reuse.hpp.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "support/assert.hpp"
#include "support/flat_map.hpp"
#include "support/histogram.hpp"

namespace gcr {

/// Per-datum storage keyed like a tracker: keys in [0, range) in a dense
/// array, every other key (negative, or past the range) in a FlatMap64.
template <typename V>
class ElementIndex {
 public:
  /// Index keys in [0, range) densely.  Only before the first key.
  void setRange(std::uint64_t range) {
    dense_.assign(static_cast<std::size_t>(range), V{});
  }

  /// Find or insert `key` (value-initialized).  The reference is valid
  /// until the next insertion.
  V& operator[](std::int64_t key) {
    const auto k = static_cast<std::uint64_t>(key);
    return k < dense_.size() ? dense_[k] : sparse_[key];
  }

 private:
  std::vector<V> dense_;
  FlatMap64<V> sparse_;
};

class ReuseDistanceTracker {
 public:
  static constexpr std::uint64_t kCold = Log2Histogram::kCold;
  /// Slots are numbered in 32 bits, which holds while the distinct data
  /// stay below 2^30; access() throws gcr::Error at the bound.
  static constexpr std::uint64_t kMaxDistinctData = std::uint64_t{1} << 30;

  /// Process one access; returns its reuse distance, or kCold for a first
  /// access.
  std::uint64_t access(std::int64_t key);

  std::uint64_t accesses() const { return accesses_; }
  /// Distinct data seen so far (not the size of the element range).
  std::uint64_t distinctData() const { return live_; }

  /// Index the keys in [0, elementRange) densely: pass the layout's data
  /// footprint over the key granularity.  Keys outside the range still
  /// work, through a hash map.  Call before the first access.
  /// `expectedAccesses` is ignored (kept for source compatibility): the
  /// slots follow the live data, not the trace length.
  void reserve(std::uint64_t expectedAccesses, std::uint64_t elementRange = 0);

 private:
  /// Reuses whose mark is at most this many words behind the cursor's word
  /// are counted by popcounts instead of a tree walk.
  static constexpr std::uint32_t kScanWords = 4;

  std::uint64_t marksAfter(std::uint32_t slot) const;
  void treeAdd(std::uint32_t word, std::int32_t delta);
  void compact();

  ElementIndex<std::uint32_t> lastSlot_;  // datum -> 1 + slot of its mark
  std::vector<std::int64_t> datumAt_;     // slot -> datum that took it
  std::vector<std::uint64_t> bits_;       // slot holds a live mark
  std::vector<std::uint32_t> tree_;  // Fenwick over word counts, 1-based;
                                     // only words behind the cursor's
  std::uint32_t cursor_ = 0;         // next slot
  std::uint32_t capacity_ = 0;       // slots, a multiple of 64
  std::uint64_t live_ = 0;
  std::uint64_t accesses_ = 0;
};

inline std::uint64_t ReuseDistanceTracker::marksAfter(
    std::uint32_t slot) const {
  const std::uint32_t w = slot >> 6;
  const std::uint32_t cursorWord = cursor_ >> 6;
  if (cursorWord - w <= kScanWords) {
    // Slots past the cursor hold no mark, so the cursor's word counts whole.
    std::uint64_t n =
        static_cast<std::uint64_t>(std::popcount(bits_[w] >> (slot & 63) >> 1));
    for (std::uint32_t i = w + 1; i <= cursorWord; ++i)
      n += static_cast<std::uint64_t>(std::popcount(bits_[i]));
    return n;
  }
  // Every mark is behind the cursor: the ones after `slot` are the live
  // count minus the marks in [0, slot].
  std::uint64_t upTo = static_cast<std::uint64_t>(
      std::popcount(bits_[w] << (63 - (slot & 63))));
  for (std::uint32_t i = w; i > 0; i &= i - 1) upTo += tree_[i];
  return live_ - upTo;
}

inline void ReuseDistanceTracker::treeAdd(std::uint32_t word,
                                          std::int32_t delta) {
  const auto size = static_cast<std::uint32_t>(tree_.size());
  for (std::uint32_t i = word + 1; i < size; i += i & (~i + 1))
    tree_[i] += static_cast<std::uint32_t>(delta);
}

inline std::uint64_t ReuseDistanceTracker::access(std::int64_t key) {
  // Compact before the lookup, never between clearing the old mark and
  // setting the new one: compaction renumbers every live mark, and the
  // datum's old mark must be one of them.
  if (cursor_ == capacity_) compact();
  std::uint32_t& last = lastSlot_[key];
  const std::uint32_t word = cursor_ >> 6;
  std::uint64_t distance = kCold;
  if (last != 0) {
    const std::uint32_t prev = last - 1;
    distance = marksAfter(prev);
    bits_[prev >> 6] &= ~(std::uint64_t{1} << (prev & 63));
    if ((prev >> 6) != word) treeAdd(prev >> 6, -1);
  } else {
    GCR_CHECK(live_ + 1 < kMaxDistinctData,
              "reuse tracker: 2^30 distinct data exceed its 32-bit slots");
    ++live_;
  }
  bits_[word] |= std::uint64_t{1} << (cursor_ & 63);
  datumAt_[cursor_] = key;
  last = ++cursor_;
  if ((cursor_ & 63) == 0)
    treeAdd(word, static_cast<std::int32_t>(std::popcount(bits_[word])));
  ++accesses_;
  return distance;
}

/// Full result of running reuse-distance analysis over a trace.
struct ReuseProfile {
  Log2Histogram histogram;        ///< finite reuse distances, log2-binned
  std::uint64_t accesses = 0;
  std::uint64_t distinctData = 0;

  /// Fraction of reuses (cold misses excluded) with distance >= `cap`, i.e.
  /// misses on a perfect cache holding `cap` elements.
  double missFractionAtCapacity(std::uint64_t cap) const;
};

/// Aggregate per-task profiles (one per version/size/app in a parallel
/// sweep) into a suite-wide profile: histograms merge bin-wise, access
/// counts sum.  `distinctData` sums too and is therefore an upper bound —
/// the tasks' address spaces may overlap.
ReuseProfile mergeProfiles(std::span<const ReuseProfile> parts);

/// `now` after `steps` more time steps that each add what the last one did
/// (the profile went from `before` to `now` over it): the histogram,
/// `accesses` and `distinctData` become now + steps * (now - before).
/// Throws gcr::Error when a count overflows 64 bits.
ReuseProfile extrapolateSteps(const ReuseProfile& now,
                              const ReuseProfile& before,
                              std::uint64_t steps);

/// Whether a tracker replaying a plan's time steps (interp/schedule.hpp,
/// replayUntilRepeat) is back in the state it had one step earlier, judged
/// from its profiles at the two boundaries.  Its state is the recency order
/// of the data it has seen.  Every step emits the same stream, so after
/// any step k >= 2 that order is the stream's order of last touches, as it
/// was after step k - 1.  The premise is checked, not assumed: a step that
/// touches a datum for the first time did not replay step 1's stream, and
/// does not count as a repeat.
bool trackerStateRepeats(const ReuseProfile& before, const ReuseProfile& now);

}  // namespace gcr
