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
  lines_.assign(static_cast<std::size_t>(sets) * ways_, Line{});
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

void SetAssocCache::prefetch(std::int64_t addr) {
  if (addr < 0) rejectNegative(addr);
  const std::int64_t block = addr >> lineShift_;
  Line* set = setOf(block);
  for (std::size_t w = 0; w < ways_; ++w)
    if (set[w].tag == block) return;  // already resident; recency unchanged
  ++stats_.prefetchFills;
  countWriteback(set[ways_ - 1]);
  std::copy_backward(set, set + ways_ - 1, set + ways_);
  set[0] = Line{block, false, true};
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
