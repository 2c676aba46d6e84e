#include "locality/reuse_distance.hpp"

#include <algorithm>

namespace gcr {

namespace {
// Capacity starts at kMinSlots and doubles until it is at least twice the
// live count, so a compaction leaves half the slots free.  Below 2^30 live
// data it stays at most 2^31, and 1 + slot fits 32 bits.
constexpr std::uint64_t kMinSlots = 1024;
}  // namespace

void ReuseDistanceTracker::reserve(std::uint64_t, std::uint64_t elementRange) {
  if (elementRange == 0) return;
  GCR_CHECK(accesses_ == 0,
            "reserve the element range before the first access");
  lastSlot_.setRange(elementRange);
}

void ReuseDistanceTracker::compact() {
  // Renumber the live marks 0, 1, ... in time order.  A mark never moves to
  // a later slot, so datumAt_ is rewritten in place.
  std::uint32_t next = 0;
  for (std::size_t w = 0; w < bits_.size(); ++w) {
    for (std::uint64_t b = bits_[w]; b != 0; b &= b - 1) {
      const std::int64_t key =
          datumAt_[w * 64 + static_cast<std::size_t>(std::countr_zero(b))];
      datumAt_[next] = key;
      lastSlot_[key] = ++next;
    }
  }
  GCR_ASSERT(next == live_);

  std::uint64_t slots = std::max<std::uint64_t>(capacity_, kMinSlots);
  while (slots < 2 * live_) slots *= 2;
  if (slots != capacity_) {
    capacity_ = static_cast<std::uint32_t>(slots);
    datumAt_.resize(slots);
    bits_.resize(slots / 64);
    tree_.resize(slots / 64 + 1);
  }

  // Slots [0, live) hold the marks; the words they fill are in the tree.
  const auto full = static_cast<std::size_t>(live_ / 64);
  std::fill(bits_.begin(), bits_.end(), 0);
  std::fill_n(bits_.begin(), full, ~std::uint64_t{0});
  if (live_ % 64 != 0) bits_[full] = (std::uint64_t{1} << (live_ % 64)) - 1;
  std::fill(tree_.begin(), tree_.end(), 0);
  std::fill_n(tree_.begin() + 1, full, 64);
  for (std::size_t i = 1; i < tree_.size(); ++i) {
    const std::size_t parent = i + (i & (~i + 1));
    if (parent < tree_.size()) tree_[parent] += tree_[i];
  }
  cursor_ = next;
}

double ReuseProfile::missFractionAtCapacity(std::uint64_t cap) const {
  const std::uint64_t finite = histogram.totalFinite();
  if (finite == 0) return 0.0;
  return static_cast<double>(histogram.countAtLeast(cap)) /
         static_cast<double>(finite);
}

ReuseProfile mergeProfiles(std::span<const ReuseProfile> parts) {
  ReuseProfile total;
  for (const ReuseProfile& p : parts) {
    total.histogram.merge(p.histogram);
    total.accesses += p.accesses;
    total.distinctData += p.distinctData;
  }
  return total;
}

ReuseProfile extrapolateSteps(const ReuseProfile& now,
                              const ReuseProfile& before,
                              std::uint64_t steps) {
  constexpr const char* kWhat = "extrapolated reuse-profile count";
  ReuseProfile p;
  p.histogram.add(Log2Histogram::kCold,
                  checkedExtrapolate(now.histogram.coldCount(),
                                     before.histogram.coldCount(), steps,
                                     kWhat));
  for (int b = 0; b <= now.histogram.highestNonEmptyBin(); ++b)
    if (const std::uint64_t count =
            checkedExtrapolate(now.histogram.binCount(b),
                               before.histogram.binCount(b), steps, kWhat))
      p.histogram.add(Log2Histogram::binLow(b), count);
  p.accesses = checkedExtrapolate(now.accesses, before.accesses, steps, kWhat);
  p.distinctData =
      checkedExtrapolate(now.distinctData, before.distinctData, steps, kWhat);
  return p;
}

bool trackerStateRepeats(const ReuseProfile& before, const ReuseProfile& now) {
  return now.histogram.coldCount() == before.histogram.coldCount();
}

}  // namespace gcr
