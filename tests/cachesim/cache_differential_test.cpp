// Differential tests of the recency-ordered SetAssocCache against the
// stamped-LRU referee (stamped_cache.hpp).
//
// Streams: for every geometry in a grid of associativities, set counts and
// line sizes, seeded strided, windowed-random and beyond-capacity thrash
// streams with mixed writes and interleaved prefetches must give the same
// return value and lastHitWasPrefetched() on every access and the same
// CacheStats throughout.  Single-set geometries of up to 2,048 ways (the
// stamped ways with their hint table, cache.hpp) also run an aliasing
// stream whose live blocks all share one hint slot.
//
// Programs: MemoryHierarchy must report the same MissCounts as a hierarchy
// built from the referee on every registry app under four strategies, on
// the paper's machines with and without next-line prefetch and on the TLB
// geometries of bench_ablation_tlb_reach.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "cachesim/cache.hpp"
#include "cachesim/hierarchy.hpp"
#include "driver/pipeline.hpp"
#include "interp/interp.hpp"
#include "stamped_cache.hpp"
#include "support/prng.hpp"

namespace gcr {
namespace {

using testing::StampedCache;
using testing::StampedHierarchy;

// --- streams ---------------------------------------------------------------

enum class StreamKind { Strided, WindowedRandom, Thrash, Aliasing };

const char* streamName(StreamKind k) {
  switch (k) {
    case StreamKind::Strided: return "strided";
    case StreamKind::WindowedRandom: return "windowed-random";
    case StreamKind::Thrash: return "thrash";
    case StreamKind::Aliasing: return "aliasing";
  }
  return "?";
}

/// Block stride of the aliasing stream: a multiple of every hint table of
/// up to 2^16 slots (every geometry of up to 16,384 ways), so all of its
/// blocks map to one hint slot, and to one set of any geometry of up to
/// 2^16 sets.
constexpr std::int64_t kAliasStride = std::int64_t{1} << 16;

/// One step of a stream: a demand access, or a prefetch() call.
struct Op {
  std::int64_t addr = 0;
  bool isWrite = false;
  bool prefetch = false;
};

/// A seeded stream over `cfg`.  Addresses are 8-byte aligned and
/// non-negative; about a third of the accesses write, and about one op in
/// eight is a prefetch of the next line or of a random line (for the
/// aliasing stream, a random one of its blocks).
std::vector<Op> makeStream(StreamKind kind, const CacheConfig& cfg,
                           std::uint64_t seed) {
  SplitMix64 rng(seed);
  const std::int64_t line = cfg.lineSize;
  const std::int64_t sets = cfg.numSets();
  const std::int64_t capacityLines = sets * cfg.ways;
  // Enough accesses to wrap every stream several times, bounded so that the
  // 128-way, 512-set geometries stay fast under the sanitizers.
  const std::int64_t len = 2000 + 3 * std::min<std::int64_t>(capacityLines,
                                                             4096);
  const std::int64_t spanLines = 2 * capacityLines + 3;
  std::vector<Op> ops;
  ops.reserve(static_cast<std::size_t>(len + len / 4));

  auto offsetInLine = [&] { return 8 * rng.nextInRange(0, line / 8 - 1); };
  std::int64_t cursor = rng.nextInRange(0, spanLines - 1) * line;
  const std::int64_t strides[] = {8, line, line * sets, 3 * line + 8,
                                  8 * rng.nextInRange(1, 4 * line / 8)};
  const std::int64_t stride = strides[rng.nextBelow(5)];
  const std::int64_t window =
      std::max<std::int64_t>(1, capacityLines / 2 +
                                    rng.nextInRange(0, 2 * capacityLines));
  std::int64_t windowBase = 0;
  // Thrash: a cycle of blocks one longer than what they compete for, so
  // LRU evicts each block just before its reuse.  Either the whole cache
  // (when small) or one set's ways.
  const bool wholeCache = capacityLines <= 2048 && rng.nextBelow(2) == 0;
  const std::int64_t cycle =
      (wholeCache ? capacityLines : cfg.ways) + 1 + rng.nextInRange(0, 2);
  const std::int64_t cycleStride = wholeCache ? line : line * sets;
  const std::int64_t cycleSet = rng.nextInRange(0, sets - 1) * line;
  // Aliasing: half to two and a half times as many blocks as ways, one
  // kAliasStride apart, visited in turn or at random.  (Drawn for this kind
  // only, so the other kinds' streams stay as they were.)
  const bool aliasing = kind == StreamKind::Aliasing;
  const std::int64_t aliasBase =
      aliasing ? rng.nextInRange(0, kAliasStride - 1) : 0;
  const std::int64_t aliasCount =
      aliasing ? cfg.ways / 2 + 1 + rng.nextInRange(0, 2 * cfg.ways) : 1;
  auto aliasBlock = [&](std::int64_t k) {
    return (aliasBase + k * kAliasStride) * line;
  };
  auto randomLine = [&] {
    return aliasing ? aliasBlock(rng.nextInRange(0, aliasCount - 1))
                    : rng.nextInRange(0, spanLines - 1) * line;
  };

  for (std::int64_t i = 0; i < len; ++i) {
    std::int64_t addr = 0;
    switch (kind) {
      case StreamKind::Strided:
        if (rng.nextBelow(64) == 0)
          cursor = rng.nextInRange(0, spanLines - 1) * line;
        cursor = (cursor + stride) % (spanLines * line);
        addr = cursor;
        break;
      case StreamKind::WindowedRandom:
        if (rng.nextBelow(16) == 0) windowBase += rng.nextInRange(1, 4);
        addr = (windowBase + rng.nextInRange(0, window - 1)) * line +
               offsetInLine();
        break;
      case StreamKind::Thrash:
        addr = cycleSet + (i % cycle) * cycleStride + offsetInLine();
        // Occasionally repeating the previous op's address keeps some hits.
        if (rng.nextBelow(8) == 0) addr = ops.empty() ? 0 : ops.back().addr;
        break;
      case StreamKind::Aliasing:
        addr = (rng.nextBelow(2) == 0
                    ? aliasBlock(i % aliasCount)
                    : aliasBlock(rng.nextInRange(0, aliasCount - 1))) +
               offsetInLine();
        break;
    }
    ops.push_back(Op{addr, rng.nextBelow(3) == 0, false});
    if (rng.nextBelow(8) == 0) {
      const std::int64_t target =
          rng.nextBelow(2) == 0 ? addr + line : randomLine();
      ops.push_back(Op{target, false, true});
    }
  }
  return ops;
}

std::string describe(const CacheStats& s) {
  std::ostringstream os;
  os << "{accesses " << s.accesses << ", misses " << s.misses
     << ", writebacks " << s.writebacks << ", prefetchFills "
     << s.prefetchFills << ", prefetchHits " << s.prefetchHits << "}";
  return os.str();
}

bool sameStats(const CacheStats& a, const CacheStats& b) {
  return a.accesses == b.accesses && a.misses == b.misses &&
         a.writebacks == b.writebacks && a.prefetchFills == b.prefetchFills &&
         a.prefetchHits == b.prefetchHits;
}

/// Replays `ops` on both models; a demand miss or a hit on a prefetched
/// line also prefetches the next line (MemoryHierarchy's tagged prefetch).
::testing::AssertionResult replayAgrees(const CacheConfig& cfg,
                                        const std::vector<Op>& ops) {
  SetAssocCache fast(cfg);
  StampedCache ref(cfg);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (op.prefetch) {
      fast.prefetch(op.addr);
      ref.prefetch(op.addr);
    } else {
      const bool hit = fast.access(op.addr, op.isWrite);
      const bool refHit = ref.access(op.addr, op.isWrite);
      if (hit != refHit ||
          fast.lastHitWasPrefetched() != ref.lastHitWasPrefetched())
        return ::testing::AssertionFailure()
               << "op " << i << " addr " << op.addr << ": hit " << hit
               << " vs referee " << refHit << ", prefetched-hit "
               << fast.lastHitWasPrefetched() << " vs "
               << ref.lastHitWasPrefetched();
      if (!hit || fast.lastHitWasPrefetched()) {
        fast.prefetch(op.addr + cfg.lineSize);
        ref.prefetch(op.addr + cfg.lineSize);
      }
    }
    if (!sameStats(fast.stats(), ref.stats()))
      return ::testing::AssertionFailure()
             << "op " << i << " addr " << op.addr << ": stats "
             << describe(fast.stats()) << " vs referee "
             << describe(ref.stats());
  }
  return ::testing::AssertionSuccess();
}

class CacheDifferential : public ::testing::TestWithParam<int> {};

TEST_P(CacheDifferential, StreamsMatchStampedReferee) {
  const int ways = GetParam();
  std::uint64_t seed = static_cast<std::uint64_t>(ways) * 1000;
  for (std::int64_t sets : {1, 2, 16, 512}) {
    for (std::int64_t line : {8, 64, 1024, 16384}) {
      const CacheConfig cfg{sets * ways * line, line, ways, "diff"};
      for (StreamKind kind : {StreamKind::Strided, StreamKind::WindowedRandom,
                              StreamKind::Thrash}) {
        const std::vector<Op> ops = makeStream(kind, cfg, ++seed);
        EXPECT_TRUE(replayAgrees(cfg, ops))
            << ways << "-way, " << sets << " sets, " << line << "B lines, "
            << streamName(kind) << " stream, seed " << seed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheDifferential,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 64, 128),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param) + "way";
                         });

// One set of at least SetAssocCache::kStampedMinWays ways takes the stamped
// ways and the hint table.  The grid above reaches them only with streams
// of at most 2 x 128 + 3 blocks, fewer than the 1,024 hint slots, so no two
// live blocks there ever share a slot.  These geometries run every stream
// kind, the aliasing one included: the TLB (64 x 16 KB pages), a 2,048-way
// element-grained perfect cache, and ways that are not powers of two.
TEST(CacheDifferentialStamped, FullyAssociativeStreamsMatchStampedReferee) {
  const struct {
    int ways;
    std::int64_t line;
  } geometries[] = {{16, 64},   {64, 16384}, {128, 8},
                    {300, 1024}, {1024, 64}, {2048, 8}};
  std::uint64_t seed = 777000;
  for (const auto& g : geometries) {
    ASSERT_GE(g.ways, SetAssocCache::kStampedMinWays);
    const CacheConfig cfg{g.ways * g.line, g.line, g.ways, "stamped"};
    for (StreamKind kind : {StreamKind::Strided, StreamKind::WindowedRandom,
                            StreamKind::Thrash, StreamKind::Aliasing}) {
      const std::vector<Op> ops = makeStream(kind, cfg, ++seed);
      EXPECT_TRUE(replayAgrees(cfg, ops))
          << g.ways << "-way, 1 set, " << g.line << "B lines, "
          << streamName(kind) << " stream, seed " << seed;
    }
  }
}

// --- whole programs ----------------------------------------------------------

/// The machines every program is simulated on: the paper's two machines,
/// Origin2000 scaled by 1/16, and by 1/256 (so that even the small
/// programs write back from L2), each with and without next-line prefetch,
/// plus the TLB geometries of bench_ablation_tlb_reach on Origin2000.
std::vector<MachineConfig> differentialMachines() {
  std::vector<MachineConfig> out;
  const MachineConfig o2k = MachineConfig::origin2000();
  for (const MachineConfig& base :
       {o2k, MachineConfig::octane(), o2k.scaledDown(16),
        o2k.scaledDown(256)}) {
    for (bool prefetch : {false, true}) {
      MachineConfig m = base;
      m.l2NextLinePrefetch = prefetch;
      out.push_back(m);
    }
  }
  const struct {
    std::int64_t pageSize;
    int entries;
  } tlbs[] = {{16384, 64}, {4096, 32}, {4096, 16}};
  for (const auto& t : tlbs) {
    MachineConfig m = o2k;
    m.pageSize = t.pageSize;
    m.tlbEntries = t.entries;
    out.push_back(m);
  }
  return out;
}

std::string describe(const MissCounts& m) {
  std::ostringstream os;
  os << "{refs " << m.refs << ", l1 " << m.l1Misses << ", l2 " << m.l2Misses
     << ", tlb " << m.tlbMisses << ", wb " << m.l2Writebacks << ", pf "
     << m.l2Prefetches << ", pfHits " << m.l2PrefetchHits << "}";
  return os.str();
}

class CacheDifferentialApps : public ::testing::TestWithParam<std::string> {};

TEST_P(CacheDifferentialApps, HierarchyMatchesStampedReferee) {
  const std::string app = GetParam();
  const std::int64_t n = app == "SP" || app == "Sweep3D" ? 10 : 64;
  const std::vector<MachineConfig> machines = differentialMachines();
  // Summed over every run, so the comparison is not vacuous.  (L2
  // writebacks stay 0 on programs whose writes always hit L1 lines they
  // just read; the streams above cover writebacks.)
  MissCounts seen;
  for (Strategy strategy : {Strategy::NoOpt, Strategy::SgiLike,
                            Strategy::Fused, Strategy::FusedRegrouped}) {
    const ProgramVersion v = makeVersion(apps::buildApp(app), strategy);
    std::vector<std::unique_ptr<MemoryHierarchy>> fast;
    std::vector<std::unique_ptr<StampedHierarchy>> ref;
    std::vector<InstrSink*> sinks;
    for (const MachineConfig& m : machines) {
      fast.push_back(std::make_unique<MemoryHierarchy>(m));
      ref.push_back(std::make_unique<StampedHierarchy>(m));
      sinks.push_back(fast.back().get());
      sinks.push_back(ref.back().get());
    }
    TeeSink tee(sinks);
    trace(v.program, v.layoutAt(n), ExecOptions{.n = n, .timeSteps = 2}, tee);
    for (std::size_t i = 0; i < machines.size(); ++i) {
      const MissCounts got = fast[i]->counts();
      const MissCounts want = ref[i]->counts();
      seen.l2Misses += got.l2Misses;
      seen.tlbMisses += got.tlbMisses;
      seen.l2PrefetchHits += got.l2PrefetchHits;
      EXPECT_EQ(describe(got), describe(want))
          << app << " " << v.name << " on " << machines[i].name
          << (machines[i].l2NextLinePrefetch ? " +prefetch" : "") << ", TLB "
          << machines[i].tlbEntries << "x" << machines[i].pageSize;
    }
  }
  EXPECT_GT(seen.l2Misses, 0u);
  EXPECT_GT(seen.tlbMisses, 0u);
  EXPECT_GT(seen.l2PrefetchHits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, CacheDifferentialApps,
    ::testing::Values("Swim", "Tomcatv", "ADI", "SP", "Sweep3D",
                      "Tomcatv-noInterchange", "Jacobi", "Livermore"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

}  // namespace
}  // namespace gcr
