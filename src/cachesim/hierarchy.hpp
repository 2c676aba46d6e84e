// Two-level cache hierarchy + TLB, standing in for the hardware counters of
// the paper's SGI machines, plus the simple latency cost model that converts
// miss counts into the "execution time" bars of Figure 10.
#pragma once

#include <cstdint>
#include <string>

#include "cachesim/cache.hpp"
#include "interp/trace.hpp"

namespace gcr {

struct MachineConfig {
  CacheConfig l1;
  CacheConfig l2;
  int tlbEntries = 64;
  std::int64_t pageSize = 16 * 1024;
  /// Next-line prefetch into L2 on every L2 demand miss — the proxy for
  /// the MIPSpro compiler's software prefetching ("compiler-directed
  /// prefetching ... -Ofast" in Section 4.2).  Hides fill latency, spends
  /// bandwidth.
  bool l2NextLinePrefetch = false;
  std::string name;

  /// SGI Origin2000 (MIPS R12K): 32KB/32B 2-way L1, 4MB/128B 2-way L2.
  static MachineConfig origin2000();
  /// SGI Octane (MIPS R10K): as Origin2000 but 1MB L2.
  static MachineConfig octane();
  /// Geometry scaled by 1/k (same line sizes) for reduced-size studies.
  MachineConfig scaledDown(int k) const;
};

struct MissCounts {
  std::uint64_t refs = 0;
  std::uint64_t l1Misses = 0;
  std::uint64_t l2Misses = 0;
  std::uint64_t tlbMisses = 0;
  std::uint64_t l2Writebacks = 0;
  std::uint64_t l2Prefetches = 0;
  std::uint64_t l2PrefetchHits = 0;

  bool operator==(const MissCounts&) const = default;

  double l1MissRate() const {
    return refs ? static_cast<double>(l1Misses) / static_cast<double>(refs)
                : 0.0;
  }
  double l2MissRate() const {
    return refs ? static_cast<double>(l2Misses) / static_cast<double>(refs)
                : 0.0;
  }
  double tlbMissRate() const {
    return refs ? static_cast<double>(tlbMisses) / static_cast<double>(refs)
                : 0.0;
  }

  /// Bytes transferred from/to memory in L2 lines of `l2LineSize` bytes:
  /// demand fills, prefetch fills, and writebacks.  The quantity the
  /// paper's strategy minimizes.  Throws gcr::Error when it overflows 64
  /// bits.
  std::uint64_t memoryTrafficBytes(std::int64_t l2LineSize) const;

  /// Effective-bandwidth ratio: bytes the program actually referenced
  /// divided by bytes the memory system moved.  1.0 means every transferred
  /// byte was useful exactly once; higher means cache reuse amplified the
  /// transfers; low values signal wasted bandwidth (the paper's Section 1
  /// diagnosis).  0 when nothing moved.
  double effectiveBandwidthRatio(std::int64_t l2LineSize) const;
};

/// `now` after `steps` more time steps that each add what the last one did
/// (the counts went from `before` to `now` over it), field by field.
/// Throws gcr::Error when a count overflows 64 bits.
MissCounts extrapolateSteps(const MissCounts& now, const MissCounts& before,
                            std::uint64_t steps);

/// Latency cost model (cycles).  Deliberately simple and documented: one
/// cycle per reference plus per-miss penalties.  Only *relative* times are
/// meaningful — exactly how Figure 10 presents them (normalized bars).
struct CostModel {
  double refCost = 1.0;
  double l1MissCost = 8.0;
  double l2MissCost = 60.0;
  double tlbMissCost = 40.0;

  double cycles(const MissCounts& m) const {
    return refCost * static_cast<double>(m.refs) +
           l1MissCost * static_cast<double>(m.l1Misses) +
           l2MissCost * static_cast<double>(m.l2Misses) +
           tlbMissCost * static_cast<double>(m.tlbMisses);
  }
};

/// Drives TLB + L1 + L2 from a flattened access stream; also usable as an
/// InstrSink directly.
class MemoryHierarchy final : public InstrSink {
 public:
  explicit MemoryHierarchy(const MachineConfig& cfg);

  void access(std::int64_t addr, bool isWrite);
  void onInstr(int stmtId, std::span<const std::int64_t> reads,
               std::int64_t write) override;
  void onBlock(const InstrBlock& b) override;

  MissCounts counts() const;
  const MachineConfig& config() const { return cfg_; }

  /// MissCounts::memoryTrafficBytes of counts().
  std::uint64_t memoryTrafficBytes() const;
  /// MissCounts::effectiveBandwidthRatio of counts().
  double effectiveBandwidthRatio() const;

  /// True when the TLB, L1 and L2 of both hierarchies, of one machine, are
  /// each in the same state (SetAssocCache::sameState): from here on any
  /// stream gives both the same counts.
  bool sameState(const MemoryHierarchy& other) const;

 private:
  MachineConfig cfg_;
  SetAssocCache l1_;
  SetAssocCache l2_;
  SetAssocCache tlb_;
};

}  // namespace gcr
