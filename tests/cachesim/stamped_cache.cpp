#include "stamped_cache.hpp"

#include <bit>

namespace gcr::testing {

StampedCache::StampedCache(const CacheConfig& cfg) : cfg_(cfg) {
  GCR_CHECK(cfg_.lineSize > 0 && std::has_single_bit(
                static_cast<std::uint64_t>(cfg_.lineSize)),
            "line size must be a positive power of two");
  GCR_CHECK(cfg_.ways > 0, "ways must be positive");
  GCR_CHECK(cfg_.sizeBytes % (cfg_.lineSize * cfg_.ways) == 0,
            "size not divisible by way size");
  const std::int64_t sets = cfg_.numSets();
  GCR_CHECK(sets > 0 && std::has_single_bit(static_cast<std::uint64_t>(sets)),
            "set count must be a positive power of two");
  setMask_ = sets - 1;
  lineShift_ = std::countr_zero(static_cast<std::uint64_t>(cfg_.lineSize));
  lines_.assign(static_cast<std::size_t>(sets) *
                    static_cast<std::size_t>(cfg_.ways),
                Line{});
}

StampedCache::Line* StampedCache::findVictim(std::int64_t set) {
  Line* base = &lines_[static_cast<std::size_t>(set) *
                       static_cast<std::size_t>(cfg_.ways)];
  Line* victim = base;
  for (int w = 0; w < cfg_.ways; ++w) {
    if (base[w].tag < 0) return &base[w];
    if (base[w].lastUse < victim->lastUse) victim = &base[w];
  }
  return victim;
}

bool StampedCache::access(std::int64_t addr, bool isWrite) {
  ++stats_.accesses;
  ++clock_;
  lastHitWasPrefetched_ = false;
  const std::int64_t block = addr >> lineShift_;
  const std::int64_t set = block & setMask_;
  Line* base = &lines_[static_cast<std::size_t>(set) *
                       static_cast<std::size_t>(cfg_.ways)];

  for (int w = 0; w < cfg_.ways; ++w) {
    Line& line = base[w];
    if (line.tag == block) {
      line.lastUse = clock_;
      line.dirty = line.dirty || isWrite;
      if (line.prefetched) {
        ++stats_.prefetchHits;
        line.prefetched = false;
        lastHitWasPrefetched_ = true;
      }
      return true;
    }
  }
  ++stats_.misses;
  Line* victim = findVictim(set);
  if (victim->tag >= 0 && victim->dirty) ++stats_.writebacks;
  victim->tag = block;
  victim->lastUse = clock_;
  victim->dirty = isWrite;
  victim->prefetched = false;
  return false;
}

void StampedCache::prefetch(std::int64_t addr) {
  const std::int64_t block = addr >> lineShift_;
  const std::int64_t set = block & setMask_;
  Line* base = &lines_[static_cast<std::size_t>(set) *
                       static_cast<std::size_t>(cfg_.ways)];
  for (int w = 0; w < cfg_.ways; ++w)
    if (base[w].tag == block) return;  // already resident
  ++clock_;
  ++stats_.prefetchFills;
  Line* victim = findVictim(set);
  if (victim->tag >= 0 && victim->dirty) ++stats_.writebacks;
  victim->tag = block;
  victim->lastUse = clock_;
  victim->dirty = false;
  victim->prefetched = true;
}

StampedCache makeStampedTlb(int entries, std::int64_t pageSize) {
  CacheConfig cfg;
  cfg.lineSize = pageSize;
  cfg.ways = entries;
  cfg.sizeBytes = pageSize * entries;
  cfg.name = "TLB";
  return StampedCache(cfg);
}

StampedHierarchy::StampedHierarchy(const MachineConfig& cfg)
    : cfg_(cfg),
      l1_(cfg.l1),
      l2_(cfg.l2),
      tlb_(makeStampedTlb(cfg.tlbEntries, cfg.pageSize)) {}

void StampedHierarchy::access(std::int64_t addr, bool isWrite) {
  tlb_.access(addr, false);
  if (!l1_.access(addr, isWrite)) {
    const bool l2Hit = l2_.access(addr, isWrite);
    if (cfg_.l2NextLinePrefetch && (!l2Hit || l2_.lastHitWasPrefetched()))
      l2_.prefetch(addr + cfg_.l2.lineSize);
  }
}

void StampedHierarchy::onInstr(int, std::span<const std::int64_t> reads,
                               std::int64_t write) {
  for (std::int64_t r : reads) access(r, false);
  access(write, true);
}

void StampedHierarchy::onBlock(const InstrBlock& b) {
  for (std::size_t i = 0; i < b.size(); ++i) {
    for (std::int64_t r : b.reads(i)) access(r, false);
    access(b.writes[i], true);
  }
}

MissCounts StampedHierarchy::counts() const {
  MissCounts m;
  m.refs = l1_.stats().accesses;
  m.l1Misses = l1_.stats().misses;
  m.l2Misses = l2_.stats().misses;
  m.tlbMisses = tlb_.stats().misses;
  m.l2Writebacks = l2_.stats().writebacks;
  m.l2Prefetches = l2_.stats().prefetchFills;
  m.l2PrefetchHits = l2_.stats().prefetchHits;
  return m;
}

}  // namespace gcr::testing
