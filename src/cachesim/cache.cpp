#include "cachesim/cache.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace gcr {

SetAssocCache::SetAssocCache(const CacheConfig& cfg) : cfg_(cfg) {
  GCR_CHECK(cfg_.lineSize > 0 && std::has_single_bit(
                static_cast<std::uint64_t>(cfg_.lineSize)),
            "line size must be a positive power of two");
  GCR_CHECK(cfg_.ways > 0, "ways must be positive");
  // Bounds lineSize * ways by sizeBytes before anything multiplies them.
  GCR_CHECK(cfg_.ways <= cfg_.sizeBytes / cfg_.lineSize,
            "size smaller than one line per way");
  GCR_CHECK(cfg_.sizeBytes % (cfg_.lineSize * cfg_.ways) == 0,
            "size not divisible by way size");
  const std::int64_t sets = cfg_.numSets();
  GCR_CHECK(sets > 0 && std::has_single_bit(static_cast<std::uint64_t>(sets)),
            "set count must be a positive power of two");
  setMask_ = sets - 1;
  ways_ = static_cast<std::size_t>(cfg_.ways);
  lineShift_ = std::countr_zero(static_cast<std::uint64_t>(cfg_.lineSize));
  stamped_ = sets == 1 && cfg_.ways >= kStampedMinWays;
  lines_.assign(static_cast<std::size_t>(sets) * ways_ + (stamped_ ? 1 : 0),
                Line{});
  if (stamped_) {
    stamps_.assign(ways_ + 1, 0);
    const std::size_t slots =
        std::bit_ceil(std::max<std::size_t>(1024, 4 * ways_));
    hint_.assign(slots, 0);
    hintMask_ = static_cast<std::int64_t>(slots - 1);
  }
}

void SetAssocCache::rejectNegative(std::int64_t addr) {
  throw Error("negative cache address " + std::to_string(addr));
}

bool SetAssocCache::accessBeyondMru(Line* set, std::int64_t block,
                                    bool isWrite) {
  // Walk down the recency order moving each line one way back, until the
  // block turns up (a hit at that depth) or the LRU line falls off the end
  // (a miss).  Either way the accessed line ends up in way 0.
  Line carried = set[0];
  for (std::size_t w = 1; w < ways_; ++w) {
    Line line = set[w];
    set[w] = carried;
    if (line.tag == block) {
      line.dirty = line.dirty || isWrite;
      consumePrefetchMark(line);
      set[0] = line;
      return true;
    }
    carried = line;
  }
  ++stats_.misses;
  lastHitWasPrefetched_ = false;
  countWriteback(carried);
  set[0] = Line{block, isWrite, false};
  return false;
}

bool SetAssocCache::accessStampedScan(std::uint32_t& hint, std::int64_t block,
                                      bool isWrite) {
  const std::size_t w = findStamped(hint, block);
  if (w != 0) {
    Line& line = lines_[w];
    stamps_[w] = ++clock_;
    line.dirty = line.dirty || isWrite;
    consumePrefetchMark(line);
    return true;
  }
  ++stats_.misses;
  lastHitWasPrefetched_ = false;
  fillStamped(hint, Line{block, isWrite, false});
  return false;
}

std::size_t SetAssocCache::findStamped(std::uint32_t& hint,
                                       std::int64_t block) {
  // Every fill points its block's slot at a way, so a slot still at 0 has
  // never had a block that maps to it resident.
  if (hint == 0) return 0;
  for (std::size_t w = 1; w <= ways_; ++w)
    if (lines_[w].tag == block) {
      hint = static_cast<std::uint32_t>(w);
      return w;
    }
  return 0;
}

void SetAssocCache::fillStamped(std::uint32_t& hint, const Line& line) {
  // Empty ways carry stamp 0, below every used one, so the first minimum is
  // the first empty way while there is one, else the LRU line.
  const auto victim = std::min_element(stamps_.begin() + 1, stamps_.end());
  const auto w = static_cast<std::size_t>(victim - stamps_.begin());
  countWriteback(lines_[w]);
  lines_[w] = line;
  *victim = ++clock_;
  hint = static_cast<std::uint32_t>(w);
}

void SetAssocCache::prefetch(std::int64_t addr) {
  if (addr < 0) rejectNegative(addr);
  const std::int64_t block = addr >> lineShift_;
  if (stamped_) {
    std::uint32_t& hint = hint_[static_cast<std::size_t>(block & hintMask_)];
    if (findStamped(hint, block) != 0) return;  // already resident
    ++stats_.prefetchFills;
    fillStamped(hint, Line{block, false, true});
    return;
  }
  Line* set = setOf(block);
  for (std::size_t w = 0; w < ways_; ++w)
    if (set[w].tag == block) return;  // already resident; recency unchanged
  ++stats_.prefetchFills;
  countWriteback(set[ways_ - 1]);
  std::copy_backward(set, set + ways_ - 1, set + ways_);
  set[0] = Line{block, false, true};
}

std::vector<SetAssocCache::Line> SetAssocCache::stampedRecencyOrder() const {
  std::vector<std::size_t> ways;
  for (std::size_t w = 1; w <= ways_; ++w)
    if (stamps_[w] != 0) ways.push_back(w);
  std::sort(ways.begin(), ways.end(), [&](std::size_t a, std::size_t b) {
    return stamps_[a] > stamps_[b];
  });
  std::vector<Line> order;
  order.reserve(ways.size());
  for (std::size_t w : ways) order.push_back(lines_[w]);
  return order;
}

bool SetAssocCache::sameState(const SetAssocCache& other) const {
  if (setMask_ != other.setMask_ || ways_ != other.ways_ ||
      lineShift_ != other.lineShift_)
    return false;
  // Recency-ordered sets keep their empty ways at the tail, all alike, so
  // equal arrays are equal states.
  if (!stamped_) return lines_ == other.lines_;
  return stampedRecencyOrder() == other.stampedRecencyOrder();
}

SetAssocCache makeTlb(int entries, std::int64_t pageSize,
                      const std::string& name) {
  GCR_CHECK(entries > 0 && pageSize > 0 &&
                entries <= std::numeric_limits<std::int64_t>::max() / pageSize,
            "TLB entries and page size must be positive, with a reach that "
            "fits in 64 bits");
  CacheConfig cfg;
  cfg.lineSize = pageSize;
  cfg.ways = entries;
  cfg.sizeBytes = pageSize * entries;
  cfg.name = name;
  return SetAssocCache(cfg);
}

}  // namespace gcr
