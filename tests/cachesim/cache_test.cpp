#include "cachesim/cache.hpp"

#include <gtest/gtest.h>

#include "locality/reuse_distance.hpp"
#include "support/prng.hpp"

namespace gcr {
namespace {

SetAssocCache tiny(int ways, std::int64_t lines) {
  return SetAssocCache(CacheConfig{32 * lines, 32, ways, "tiny"});
}

TEST(Cache, HitAfterFill) {
  SetAssocCache c = tiny(2, 8);
  EXPECT_FALSE(c.access(0, false));
  EXPECT_TRUE(c.access(0, false));
  EXPECT_TRUE(c.access(31, false));   // same 32B line
  EXPECT_FALSE(c.access(32, false));  // next line
  EXPECT_EQ(c.stats().accesses, 4u);
  EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEvictionWithinSet) {
  // Direct-mapped 4-line cache: lines 0 and 4 conflict.
  SetAssocCache c(CacheConfig{4 * 32, 32, 1, "dm"});
  c.access(0, false);
  c.access(4 * 32, false);  // evicts line 0
  EXPECT_FALSE(c.access(0, false));
}

TEST(Cache, TwoWaySurvivesOneConflict) {
  SetAssocCache c(CacheConfig{8 * 32, 32, 2, "2w"});
  // Three blocks mapping to the same set (4 sets: stride 4*32).
  c.access(0, false);
  c.access(4 * 32, false);
  EXPECT_TRUE(c.access(0, false));        // still resident
  c.access(8 * 32, false);                // evicts LRU = 4*32
  EXPECT_TRUE(c.access(0, false));
  EXPECT_FALSE(c.access(4 * 32, false));
}

TEST(Cache, WritebackOnDirtyEviction) {
  SetAssocCache c(CacheConfig{1 * 32, 32, 1, "1line"});
  c.access(0, true);    // dirty
  c.access(32, false);  // evicts dirty line -> writeback
  EXPECT_EQ(c.stats().writebacks, 1u);
  c.access(64, false);  // evicts clean line -> no writeback
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, TlbIsFullyAssociative) {
  SetAssocCache tlb = makeTlb(4, 4096);
  for (std::int64_t p = 0; p < 4; ++p) tlb.access(p * 4096, false);
  for (std::int64_t p = 0; p < 4; ++p) EXPECT_TRUE(tlb.access(p * 4096, false));
  tlb.access(4 * 4096, false);  // evicts LRU page 0
  EXPECT_FALSE(tlb.access(0, false));
  EXPECT_TRUE(tlb.access(3 * 4096, false));
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(SetAssocCache(CacheConfig{100, 32, 2, "bad"}), Error);
  EXPECT_THROW(SetAssocCache(CacheConfig{64, 33, 1, "bad"}), Error);
  EXPECT_THROW(SetAssocCache(CacheConfig{3 * 32 * 2, 32, 2, "bad"}), Error);
}

TEST(Cache, RejectsGeometryWhoseWaySizeOverflows) {
  // lineSize * ways and pageSize * entries wrap to 0 in 64 bits; the
  // geometry must be rejected before anything divides by the product.
  const std::int64_t huge = std::int64_t{1} << 62;
  EXPECT_THROW(SetAssocCache(CacheConfig{1, huge, 4, "wrap"}), Error);
  EXPECT_THROW(SetAssocCache(CacheConfig{huge, huge, 4, "wrap"}), Error);
  EXPECT_THROW(makeTlb(4, huge), Error);
  EXPECT_THROW(makeTlb(1 << 30, std::int64_t{1} << 40), Error);
  EXPECT_THROW(makeTlb(4, 0), Error);
  EXPECT_THROW(makeTlb(0, 4096), Error);
  // A reach that fits still builds.
  EXPECT_NO_THROW(makeTlb(1, huge));
}

TEST(Cache, RejectsNegativeAddresses) {
  // An empty way is tagged -1, the block of every address in
  // [-lineSize, -1]: a negative address must not "hit" an empty line.
  SetAssocCache c(CacheConfig{2 * 32, 32, 2, "2w"});
  EXPECT_THROW(c.access(-8, true), Error);
  EXPECT_THROW(c.access(-1, false), Error);
  EXPECT_THROW(c.prefetch(-32), Error);
  EXPECT_EQ(c.stats().misses, 0u);
  EXPECT_EQ(c.stats().prefetchFills, 0u);
  // The cache is still empty: the first real access misses.
  EXPECT_FALSE(c.access(0, true));
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, PrefetchFillsAndHits) {
  SetAssocCache c = tiny(2, 8);
  c.prefetch(64);
  EXPECT_EQ(c.stats().prefetchFills, 1u);
  EXPECT_EQ(c.stats().misses, 0u);   // prefetch is not a demand miss
  EXPECT_TRUE(c.access(64, false));  // demand hit on the prefetched line
  EXPECT_EQ(c.stats().prefetchHits, 1u);
  // Second hit is an ordinary hit — the flag was consumed.
  c.access(64, false);
  EXPECT_EQ(c.stats().prefetchHits, 1u);
}

TEST(Cache, PrefetchOfResidentLineIsFree) {
  SetAssocCache c = tiny(2, 8);
  c.access(0, false);
  c.prefetch(0);
  EXPECT_EQ(c.stats().prefetchFills, 0u);
}

TEST(Cache, PrefetchEvictsAndWritesBack) {
  SetAssocCache c(CacheConfig{1 * 32, 32, 1, "1line"});
  c.access(0, true);  // dirty
  c.prefetch(32);     // evicts the dirty line
  EXPECT_EQ(c.stats().writebacks, 1u);
}

// Section 2.1's equivalence: on a fully-associative LRU cache with
// element-granular lines, an access hits iff its reuse distance is smaller
// than the capacity.  Differential-test the cache against the tracker.
TEST(Cache, PerfectCacheMatchesReuseDistance) {
  constexpr std::int64_t kCapacity = 64;  // elements
  // Element-granular "cache": line size 8, fully associative.
  SetAssocCache perfect(CacheConfig{kCapacity * 8, 8, kCapacity, "perfect"});
  ReuseDistanceTracker tracker;
  SplitMix64 rng(23);
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t elem = rng.nextInRange(0, 300);
    const std::uint64_t dist = tracker.access(elem);
    const bool hit = perfect.access(elem * 8, false);
    const bool expectHit =
        dist != ReuseDistanceTracker::kCold && dist < kCapacity;
    EXPECT_EQ(hit, expectHit) << "access " << i << " elem " << elem
                              << " dist " << dist;
  }
}

}  // namespace
}  // namespace gcr
