#include "locality/multicore.hpp"

#include <algorithm>
#include <limits>
#include <optional>

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

  /// The private-level fields of CoreCacheStats.
  CoreCacheStats stats() const {
    CoreCacheStats s;
    s.refs = l1_.stats().accesses;
    s.l1Misses = l1_.stats().misses;
    s.l2Misses = l2_.stats().misses;
    s.l2Writebacks = l2_.stats().writebacks;
    return s;
  }
  bool sameState(const PrivateLevelsSink& other) const {
    return l1_.sameState(other.l1_) && l2_.sameState(other.l2_);
  }

 private:
  SetAssocCache l1_;
  SetAssocCache l2_;
};

/// extrapolateSteps for the private-level fields of CoreCacheStats.
CoreCacheStats extrapolateSteps(const CoreCacheStats& now,
                                const CoreCacheStats& before,
                                std::uint64_t steps) {
  constexpr const char* kWhat = "extrapolated per-core count";
  CoreCacheStats s;
  s.refs = checkedExtrapolate(now.refs, before.refs, steps, kWhat);
  s.l1Misses = checkedExtrapolate(now.l1Misses, before.l1Misses, steps, kWhat);
  s.l2Misses = checkedExtrapolate(now.l2Misses, before.l2Misses, steps, kWhat);
  s.l2Writebacks =
      checkedExtrapolate(now.l2Writebacks, before.l2Writebacks, steps, kWhat);
  return s;
}

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

  std::vector<CoreCacheStats> perCore(static_cast<std::size_t>(cores));
  std::vector<Log2Histogram> lineHistograms(perCore.size());
  auto runCore = [&](std::size_t c) {
    PrivateLevelsSink priv(topo.l1, topo.l2);
    ReuseDistanceSink lines(topo.llc.lineSize);
    lines.reserve(dataBytes);
    TeeSink tee({&priv, &lines});
    // Both simulators at the last step boundary: the core's replay stops
    // once both repeat, and the rest is extrapolated from its last step.
    std::optional<PrivateLevelsSink> privBefore;
    ReuseProfile linesBefore;
    const std::uint64_t skipped = replayUntilRepeat(
        plan, {cores, static_cast<int>(c), topo.schedule}, &tee, [&] {
          ReuseProfile now = lines.profile();
          if (privBefore && priv.sameState(*privBefore) &&
              trackerStateRepeats(linesBefore, now))
            return true;
          privBefore = priv;
          linesBefore = std::move(now);
          return false;
        });
    CoreCacheStats stats = priv.stats();
    ReuseProfile profile = lines.profile();
    if (skipped > 0) {
      stats = extrapolateSteps(stats, privBefore->stats(), skipped);
      profile = extrapolateSteps(profile, linesBefore, skipped);
    }
    stats.lineAccesses = profile.accesses;
    stats.coldLines = profile.distinctData;
    perCore[c] = stats;
    lineHistograms[c] = std::move(profile.histogram);
  };
  // Slot-per-core on the pool: cores share nothing, so results are
  // bit-identical for any thread count (PR 1's discipline).
  if (pool != nullptr && cores > 1) {
    pool->parallelFor(perCore.size(), runCore);
  } else {
    for (std::size_t c = 0; c < perCore.size(); ++c) runCore(c);
  }
  return composeMulticore(std::move(perCore), lineHistograms, topo, cost);
}

MulticoreProfile composeMulticore(std::vector<CoreCacheStats> perCore,
                                  const std::vector<Log2Histogram>& lines,
                                  const CacheTopology& topo,
                                  const MulticoreCostModel& cost) {
  GCR_CHECK(lines.size() == perCore.size(),
            "one line histogram per core needed");
  MulticoreProfile mp;
  mp.cores = topo.cores;
  mp.schedule = topo.schedule;
  mp.llcCapacityLines = static_cast<std::uint64_t>(topo.llcCapacityLines());
  for (std::size_t c = 0; c < perCore.size(); ++c) {
    mp.shared.merge(scaleReuseDistances(lines[c], topo.cores));
    mp.sharedAccesses += perCore[c].lineAccesses;
    mp.sharedColdLines += perCore[c].coldLines;
  }
  mp.perCore = std::move(perCore);
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
  return sink.profile();
}

}  // namespace gcr
