#include "locality/multicore.hpp"

#include <algorithm>
#include <limits>

#include "locality/sampled_reuse.hpp"
#include "support/assert.hpp"

namespace gcr {

namespace {

/// One core's private L1+L2 driven by its slice stream: the MemoryHierarchy
/// access path (hierarchy.cpp) minus TLB and prefetch — an L1 miss reads
/// through the private L2, write-back write-allocate at both levels.
class PrivateLevelsSink final : public InstrSink {
 public:
  PrivateLevelsSink(const CacheConfig& l1, const CacheConfig& l2)
      : l1_(l1), l2_(l2) {}

  void access(std::int64_t addr, bool isWrite) {
    if (!l1_.access(addr, isWrite)) l2_.access(addr, isWrite);
  }
  void onInstr(int, std::span<const std::int64_t> reads,
               std::int64_t write) override {
    for (std::int64_t r : reads) access(r, false);
    access(write, true);
  }
  void onBlock(const InstrBlock& b) override {
    for (std::size_t i = 0; i < b.size(); ++i) {
      for (std::int64_t r : b.reads(i)) access(r, false);
      access(b.writes[i], true);
    }
  }

  const CacheStats& l1Stats() const { return l1_.stats(); }
  const CacheStats& l2Stats() const { return l2_.stats(); }

 private:
  SetAssocCache l1_;
  SetAssocCache l2_;
};

}  // namespace

Log2Histogram scaleReuseDistances(const Log2Histogram& h, int cores) {
  GCR_CHECK(cores >= 1, "scale needs at least one core");
  Log2Histogram out;
  const std::uint64_t mul = static_cast<std::uint64_t>(cores);
  for (int b = 0; b <= h.highestNonEmptyBin(); ++b) {
    const std::uint64_t count = h.binCount(b);
    if (count == 0) continue;
    // Scale the bin's representative (lower-edge) distance; for a
    // power-of-two core count this shifts every distance in the bin by
    // exactly log2(cores) bins, i.e. the scaling is bin-exact.
    const std::uint64_t low = Log2Histogram::binLow(b);
    const std::uint64_t scaled =
        low > std::numeric_limits<std::uint64_t>::max() / mul
            ? std::numeric_limits<std::uint64_t>::max() / 2
            : low * mul;
    out.add(scaled, count);
  }
  out.add(Log2Histogram::kCold, h.coldCount());
  return out;
}

MulticoreProfile analyzeMulticore(const AccessPlan& plan,
                                  const CacheTopology& topo,
                                  const MulticoreCostModel& cost,
                                  ThreadPool* pool) {
  GCR_CHECK(topo.cores >= 1, "topology needs at least one core");
  GCR_CHECK(topo.llc.lineSize > 0, "topology LLC needs a line size");
  const int cores = topo.cores;
  const auto dataBytes = static_cast<std::uint64_t>(plan.layout->totalBytes());

  struct CoreOut {
    CoreCacheStats stats;
    ReuseProfile lines;
  };
  std::vector<CoreOut> outs(static_cast<std::size_t>(cores));
  auto runCore = [&](std::size_t c) {
    PrivateLevelsSink priv(topo.l1, topo.l2);
    ReuseDistanceSink lines(topo.llc.lineSize);
    lines.reserve(dataBytes);
    TeeSink tee({&priv, &lines});
    replaySlice(plan, {cores, static_cast<int>(c), topo.schedule}, &tee);
    CoreOut& o = outs[c];
    o.stats.refs = priv.l1Stats().accesses;
    o.stats.l1Misses = priv.l1Stats().misses;
    o.stats.l2Misses = priv.l2Stats().misses;
    o.stats.l2Writebacks = priv.l2Stats().writebacks;
    o.lines = lines.takeProfile();
    o.stats.lineAccesses = o.lines.accesses;
    o.stats.coldLines = o.lines.distinctData;
  };
  // Slot-per-core on the pool: cores share nothing, so results are
  // bit-identical for any thread count (PR 1's discipline).
  if (pool != nullptr && cores > 1) {
    pool->parallelFor(static_cast<std::size_t>(cores), runCore);
  } else {
    for (std::size_t c = 0; c < outs.size(); ++c) runCore(c);
  }

  MulticoreProfile mp;
  mp.cores = cores;
  mp.schedule = topo.schedule;
  mp.llcCapacityLines = static_cast<std::uint64_t>(topo.llcCapacityLines());
  mp.perCore.reserve(outs.size());
  for (const CoreOut& o : outs) {
    mp.perCore.push_back(o.stats);
    mp.shared.merge(scaleReuseDistances(o.lines.histogram, cores));
    mp.sharedAccesses += o.lines.accesses;
    mp.sharedColdLines += o.stats.coldLines;
  }
  const std::uint64_t finite = mp.shared.totalFinite();
  mp.llcMissFraction =
      finite > 0 ? static_cast<double>(
                       mp.shared.countAtLeast(mp.llcCapacityLines)) /
                       static_cast<double>(finite)
                 : 0.0;
  for (const CoreCacheStats& c : mp.perCore)
    mp.cycles = std::max(
        mp.cycles,
        cost.coreCycles(c.refs, c.l1Misses, c.l2Misses,
                        static_cast<double>(c.l2Misses) * mp.llcMissFraction));
  return mp;
}

ReuseProfile interleavedSharedProfile(const AccessPlan& plan,
                                      const CacheTopology& topo) {
  GCR_CHECK(topo.llc.lineSize > 0, "topology LLC needs a line size");
  ReuseDistanceSink sink(topo.llc.lineSize);
  sink.reserve(static_cast<std::uint64_t>(plan.layout->totalBytes()));
  replayInterleaved(plan, topo.cores, topo.schedule, &sink);
  return sink.takeProfile();
}

}  // namespace gcr
