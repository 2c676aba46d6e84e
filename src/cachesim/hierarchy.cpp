#include "cachesim/hierarchy.hpp"

namespace gcr {

MachineConfig MachineConfig::origin2000() {
  MachineConfig cfg;
  cfg.l1 = CacheConfig{32 * 1024, 32, 2, "L1"};
  cfg.l2 = CacheConfig{4 * 1024 * 1024, 128, 2, "L2"};
  cfg.tlbEntries = 64;
  cfg.pageSize = 16 * 1024;
  cfg.name = "Origin2000(R12K)";
  return cfg;
}

MachineConfig MachineConfig::octane() {
  MachineConfig cfg = origin2000();
  cfg.l2.sizeBytes = 1024 * 1024;
  cfg.name = "Octane(R10K)";
  return cfg;
}

MachineConfig MachineConfig::scaledDown(int k) const {
  GCR_CHECK(k > 0, "scale factor must be positive");
  MachineConfig cfg = *this;
  cfg.l1.sizeBytes /= k;
  cfg.l2.sizeBytes /= k;
  cfg.tlbEntries = std::max(4, cfg.tlbEntries / k);
  cfg.name = name + "/"+ std::to_string(k);
  return cfg;
}

MemoryHierarchy::MemoryHierarchy(const MachineConfig& cfg)
    : cfg_(cfg),
      l1_(cfg.l1),
      l2_(cfg.l2),
      tlb_(makeTlb(cfg.tlbEntries, cfg.pageSize)) {}

void MemoryHierarchy::access(std::int64_t addr, bool isWrite) {
  tlb_.access(addr, false);
  if (!l1_.access(addr, isWrite)) {
    // L1 miss allocates in L1; the fill (and any write-allocate) reads
    // through L2.
    // Tagged next-line prefetch: trigger on a demand miss and again on the
    // first hit to a prefetched line, so a stream stays one line ahead.
    const bool l2Hit = l2_.access(addr, isWrite);
    if (cfg_.l2NextLinePrefetch && (!l2Hit || l2_.lastHitWasPrefetched()))
      l2_.prefetch(addr + cfg_.l2.lineSize);
  }
}

void MemoryHierarchy::onInstr(int, std::span<const std::int64_t> reads,
                              std::int64_t write) {
  for (std::int64_t r : reads) access(r, false);
  access(write, true);
}

void MemoryHierarchy::onBlock(const InstrBlock& b) {
  for (std::size_t i = 0; i < b.size(); ++i) {
    for (std::int64_t r : b.reads(i)) access(r, false);
    access(b.writes[i], true);
  }
}

MissCounts MemoryHierarchy::counts() const {
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

std::uint64_t MissCounts::memoryTrafficBytes(std::int64_t l2LineSize) const {
  constexpr const char* kWhat = "memory traffic";
  const std::uint64_t lines = checkedAdd(
      checkedAdd(l2Misses, l2Prefetches, kWhat), l2Writebacks, kWhat);
  return checkedMul(lines, static_cast<std::uint64_t>(l2LineSize), kWhat);
}

double MissCounts::effectiveBandwidthRatio(std::int64_t l2LineSize) const {
  const std::uint64_t traffic = memoryTrafficBytes(l2LineSize);
  if (traffic == 0) return 0.0;
  return static_cast<double>(
             checkedMul(refs, std::uint64_t{8}, "referenced bytes")) /
         static_cast<double>(traffic);
}

MissCounts extrapolateSteps(const MissCounts& now, const MissCounts& before,
                            std::uint64_t steps) {
  constexpr const char* kWhat = "extrapolated miss count";
  auto field = [&](std::uint64_t MissCounts::*f) {
    return checkedExtrapolate(now.*f, before.*f, steps, kWhat);
  };
  MissCounts m;
  m.refs = field(&MissCounts::refs);
  m.l1Misses = field(&MissCounts::l1Misses);
  m.l2Misses = field(&MissCounts::l2Misses);
  m.tlbMisses = field(&MissCounts::tlbMisses);
  m.l2Writebacks = field(&MissCounts::l2Writebacks);
  m.l2Prefetches = field(&MissCounts::l2Prefetches);
  m.l2PrefetchHits = field(&MissCounts::l2PrefetchHits);
  return m;
}

std::uint64_t MemoryHierarchy::memoryTrafficBytes() const {
  return counts().memoryTrafficBytes(cfg_.l2.lineSize);
}

double MemoryHierarchy::effectiveBandwidthRatio() const {
  return counts().effectiveBandwidthRatio(cfg_.l2.lineSize);
}

bool MemoryHierarchy::sameState(const MemoryHierarchy& other) const {
  return tlb_.sameState(other.tlb_) && l1_.sameState(other.l1_) &&
         l2_.sameState(other.l2_);
}

}  // namespace gcr
