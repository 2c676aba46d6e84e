#include "support/flat_map.hpp"

#include <gtest/gtest.h>

#include <unordered_map>

#include "support/prng.hpp"

namespace gcr {
namespace {

TEST(FlatMap64, InsertAndFind) {
  FlatMap64<int> m;
  EXPECT_TRUE(m.empty());
  m[42] = 7;
  m[-9] = 3;
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(42), nullptr);
  EXPECT_EQ(*m.find(42), 7);
  EXPECT_EQ(*m.find(-9), 3);
  EXPECT_EQ(m.find(5), nullptr);
}

TEST(FlatMap64, DefaultValueInitialized) {
  FlatMap64<std::uint64_t> m;
  EXPECT_EQ(m[123], 0u);
  m[123] += 5;
  EXPECT_EQ(m[123], 5u);
}

TEST(FlatMap64, GrowthPreservesEntries) {
  FlatMap64<std::int64_t> m;
  for (std::int64_t k = 0; k < 10000; ++k) m[k * 977 - 31] = k;
  for (std::int64_t k = 0; k < 10000; ++k) {
    auto* v = m.find(k * 977 - 31);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, k);
  }
  EXPECT_EQ(m.size(), 10000u);
}

TEST(FlatMap64, MatchesUnorderedMapUnderRandomOps) {
  FlatMap64<std::uint64_t> m;
  std::unordered_map<std::int64_t, std::uint64_t> ref;
  SplitMix64 rng(99);
  for (int op = 0; op < 50000; ++op) {
    const std::int64_t key = rng.nextInRange(-500, 500);
    const std::uint64_t val = rng.next();
    m[key] = val;
    ref[key] = val;
  }
  EXPECT_EQ(m.size(), ref.size());
  for (const auto& [k, v] : ref) {
    auto* got = m.find(k);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, v);
  }
}

TEST(FlatMap64, ClearEmpties) {
  FlatMap64<int> m;
  for (int k = 0; k < 100; ++k) m[k] = k;
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(50), nullptr);
}

TEST(FlatMap64, ForEachVisitsAll) {
  FlatMap64<int> m;
  for (int k = 0; k < 64; ++k) m[k * 7] = k;
  int visited = 0;
  std::int64_t keySum = 0;
  m.forEach([&](std::int64_t k, int) {
    ++visited;
    keySum += k;
  });
  EXPECT_EQ(visited, 64);
  EXPECT_EQ(keySum, 7 * (63 * 64) / 2);
}

TEST(FlatMap64, OversizeReserveIsRejectedNotALoop) {
  // Sizes whose capacity doubling would wrap used to loop forever.
  FlatMap64<std::uint32_t> m;
  EXPECT_THROW(m.reserve(std::size_t{1300000000000000000}), Error);
  EXPECT_THROW(m.reserve(std::size_t{1} << 62), Error);
  EXPECT_THROW(m.reserve(~std::size_t{0}), Error);
  m.reserve(1000);  // an ordinary size still works, and the map is intact
  m[5] = 9;
  EXPECT_EQ(*m.find(5), 9u);
}

}  // namespace
}  // namespace gcr
