// TrackerReferee: the library's reuse-distance tracker (time compaction, a
// dense element index, bitset leaves) against the trace-length-sized
// tracker it replaced (tests/locality/tracker_referee.hpp), access by
// access: every distance, plus accesses() and distinctData().  The cases
// cross many compactions: random traces over working sets of 1 to 20,000
// data with negative keys, under element-range hints that cover none, all
// or a third of the keys; the adversarial shapes; every evaluation app under
// five strategies at element and line granularity; and the sampled tracker.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "interp/schedule_corpus.hpp"
#include "locality/reuse_distance.hpp"
#include "locality/sampled_reuse.hpp"
#include "locality/tracker_referee.hpp"
#include "support/prng.hpp"

namespace gcr {
namespace {

/// Feed `trace` to the library tracker (dense over [0, range)) and to the
/// referee; the first access whose distance differs fails the case.
::testing::AssertionResult matchesReferee(
    const std::vector<std::int64_t>& trace, std::uint64_t range) {
  ReuseDistanceTracker t;
  t.reserve(trace.size(), range);
  testing::ReuseDistanceTracker ref;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::uint64_t got = t.access(trace[i]);
    const std::uint64_t want = ref.access(trace[i]);
    if (got != want)
      return ::testing::AssertionFailure()
             << "access " << i << " (key " << trace[i] << "): distance "
             << got << ", referee " << want;
  }
  if (t.accesses() != ref.accesses() ||
      t.distinctData() != ref.distinctData())
    return ::testing::AssertionFailure()
           << "accesses " << t.accesses() << "/" << ref.accesses()
           << ", distinct " << t.distinctData() << "/" << ref.distinctData();
  return ::testing::AssertionSuccess();
}

/// The three element-range hints of every synthetic case: none, all keys
/// >= 0 below `keyEnd`, and the first third of them.
std::vector<std::uint64_t> rangeHints(std::int64_t keyEnd) {
  const auto end =
      static_cast<std::uint64_t>(std::max<std::int64_t>(keyEnd, 0));
  return {0, end, end / 3};
}

/// A random trace over `keys`: phases of uniform draws, scans (forward and
/// backward) over random windows, and tight loops over small hot sets, so
/// reuses land both next to the cursor and far behind it.
std::vector<std::int64_t> randomTrace(SplitMix64& rng,
                                      const std::vector<std::int64_t>& keys,
                                      std::size_t len) {
  const auto w = static_cast<std::int64_t>(keys.size());
  std::vector<std::int64_t> trace;
  trace.reserve(len);
  while (trace.size() < len) {
    switch (rng.nextBelow(4)) {
      case 0:
        for (int i = 0; i < 500 && trace.size() < len; ++i)
          trace.push_back(keys[static_cast<std::size_t>(rng.nextBelow(
              static_cast<std::uint64_t>(w)))]);
        break;
      case 1: {
        const std::int64_t lo = rng.nextInRange(0, w - 1);
        const std::int64_t hi = rng.nextInRange(lo, w - 1);
        const bool down = rng.nextBelow(2) == 0;
        for (std::int64_t i = lo; i <= hi && trace.size() < len; ++i)
          trace.push_back(keys[static_cast<std::size_t>(down ? hi - (i - lo)
                                                             : i)]);
        break;
      }
      case 2: {
        const std::int64_t lo = rng.nextInRange(0, w - 1);
        const std::int64_t span =
            std::min<std::int64_t>(w - lo, 1 + rng.nextBelow(40));
        for (int rep = 0; rep < 5; ++rep)
          for (std::int64_t i = 0; i < span && trace.size() < len; ++i)
            trace.push_back(keys[static_cast<std::size_t>(lo + i)]);
        break;
      }
      default: {  // the same datum again and again
        const std::int64_t k = keys[static_cast<std::size_t>(
            rng.nextBelow(static_cast<std::uint64_t>(w)))];
        for (int i = 0; i < 100 && trace.size() < len; ++i) trace.push_back(k);
      }
    }
  }
  return trace;
}

TEST(TrackerReferee, RandomTracesAcrossManyCompactions) {
  SplitMix64 rng(2024);
  for (const std::int64_t w : {1, 2, 3, 63, 64, 65, 700, 4096, 20000}) {
    // Keys from -w/2 up: a third to a half of them negative.
    std::vector<std::int64_t> keys;
    for (std::int64_t i = 0; i < w; ++i) keys.push_back(i - w / 2);
    // Enough accesses to fill the slots many times over.
    const std::size_t len =
        static_cast<std::size_t>(std::max<std::int64_t>(30000, 25 * w));
    const std::vector<std::int64_t> trace = randomTrace(rng, keys, len);
    for (const std::uint64_t range : rangeHints(w - w / 2))
      EXPECT_TRUE(matchesReferee(trace, range))
          << "working set " << w << ", range " << range;
  }
}

TEST(TrackerReferee, RandomWorkingSetsGrowAndShrink) {
  // Phases over working sets of random size and offset, so the live count
  // grows across compactions (the slots grow) while many data go idle.
  SplitMix64 rng(77);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<std::int64_t> trace;
    for (int phase = 0; phase < 8; ++phase) {
      const std::int64_t w = rng.nextInRange(1, 6000);
      const std::int64_t base = rng.nextInRange(-4000, 8000);
      std::vector<std::int64_t> keys;
      for (std::int64_t i = 0; i < w; ++i) keys.push_back(base + i);
      const std::vector<std::int64_t> part =
          randomTrace(rng, keys, static_cast<std::size_t>(3 * w + 2000));
      trace.insert(trace.end(), part.begin(), part.end());
    }
    for (const std::uint64_t range : rangeHints(14000))
      EXPECT_TRUE(matchesReferee(trace, range))
          << "trial " << trial << ", range " << range;
  }
}

TEST(TrackerReferee, SparseKeysFarOutsideAnyRange) {
  SplitMix64 rng(5);
  std::vector<std::int64_t> keys;
  for (int i = 0; i < 3000; ++i)
    keys.push_back(static_cast<std::int64_t>(rng.next()));
  const std::vector<std::int64_t> trace = randomTrace(rng, keys, 60000);
  for (const std::uint64_t range : {0u, 1000u})
    EXPECT_TRUE(matchesReferee(trace, range)) << "range " << range;
}

TEST(TrackerReferee, AdversarialShapes) {
  std::vector<std::vector<std::int64_t>> shapes;
  shapes.emplace_back(5000, 7);  // all the same datum
  {
    std::vector<std::int64_t> t;  // all distinct, negative keys included
    for (std::int64_t i = 0; i < 6000; ++i) t.push_back(i * 3 - 100);
    shapes.push_back(std::move(t));
  }
  {
    std::vector<std::int64_t> t;  // saw-tooth
    for (int rep = 0; rep < 60; ++rep) {
      for (std::int64_t i = 0; i <= 300; ++i) t.push_back(i);
      for (std::int64_t i = 300; i >= 0; --i) t.push_back(i);
    }
    shapes.push_back(std::move(t));
  }
  for (const std::int64_t w : {1, 2, 63, 64, 65, 127, 128, 129, 1500}) {
    std::vector<std::int64_t> t;  // cyclic scan: every reuse at distance w-1
    for (int rep = 0; rep < 40; ++rep)
      for (std::int64_t i = 0; i < w; ++i) t.push_back(i);
    shapes.push_back(std::move(t));
  }
  for (std::size_t s = 0; s < shapes.size(); ++s)
    for (const std::uint64_t range : rangeHints(20000))
      EXPECT_TRUE(matchesReferee(shapes[s], range))
          << "shape " << s << ", range " << range;
}

TEST(TrackerReferee, ReuseOfADatumTheCompactionJustRenumbered) {
  // w data touched once, then one datum repeated until the slots run out
  // for any capacity up to 2^16; after each run, every one of the w data is
  // reused in a different order.  Whatever access meets a compaction is a
  // reuse of a renumbered datum: the repeated one (distance 0), or one of
  // the w, near or far behind the cursor.
  for (const std::int64_t w : {1, 5, 64, 200}) {
    std::vector<std::int64_t> trace;
    for (std::int64_t i = 0; i < w; ++i) trace.push_back(i);
    for (int round = 0; round < 6; ++round) {
      for (std::int64_t step = 0; step < (std::int64_t{1} << (round + 10));
           ++step)
        trace.push_back(round % w);
      for (std::int64_t i = 0; i < w; ++i)
        trace.push_back(round % 2 == 0 ? i : w - 1 - i);
    }
    for (const std::uint64_t range : rangeHints(w))
      EXPECT_TRUE(matchesReferee(trace, range))
          << "w " << w << ", range " << range;
  }
}

/// InstrSink that flattens instructions (reads, then the write) at
/// `granularity` into one key stream.
class KeyStream final : public InstrSink {
 public:
  explicit KeyStream(std::int64_t granularity) : g_(granularity) {}
  void onInstr(int, std::span<const std::int64_t> reads,
               std::int64_t write) override {
    for (std::int64_t r : reads) keys.push_back(r / g_);
    keys.push_back(write / g_);
  }
  std::vector<std::int64_t> keys;

 private:
  std::int64_t g_;
};

TEST(TrackerReferee, RegistryAppsEveryStrategyBothGranularities) {
  testing::forEachRegistryCase([](const testing::CorpusCase& c) {
    for (const std::int64_t g : {8, 128}) {
      KeyStream s(g);
      executePlan(c.plan(), c.opts, &s);
      const auto range = static_cast<std::uint64_t>(
          (c.layout.totalBytes() + g - 1) / g);
      for (const std::uint64_t hint : {std::uint64_t{0}, range})
        EXPECT_TRUE(matchesReferee(s.keys, hint))
            << c.name << ", granularity " << g << ", range " << hint;
    }
  });
}

TEST(TrackerReferee, ProfileSinkMatchesRefereeHistogram) {
  // The Engine's profile path: the sink at element granularity with the
  // layout's footprint indexed densely.
  testing::forEachRegistryCase([](const testing::CorpusCase& c) {
    ReuseDistanceSink sink(8);
    sink.reserve(static_cast<std::uint64_t>(c.layout.totalBytes()));
    KeyStream s(8);
    TeeSink tee({&sink, &s});
    executePlan(c.plan(), c.opts, &tee);
    const ReuseProfile got = sink.profile();
    testing::ReuseDistanceTracker ref;
    Log2Histogram want;
    for (const std::int64_t k : s.keys) want.add(ref.access(k));
    EXPECT_EQ(got.histogram.toCsv(), want.toCsv()) << c.name;
    EXPECT_EQ(got.histogram.coldCount(), want.coldCount()) << c.name;
    EXPECT_EQ(got.accesses, ref.accesses()) << c.name;
    EXPECT_EQ(got.distinctData, ref.distinctData()) << c.name;
  });
}

TEST(TrackerReferee, SampledTrackerAtRates1And8And64) {
  // The same sampler built over the referee: the filter mix64(key) <
  // rate * 2^64, distances scaled by 1/rate and rounded.
  SplitMix64 rng(31);
  std::vector<std::int64_t> keys;
  for (std::int64_t i = 0; i < 20000; ++i) keys.push_back(i - 3000);
  const std::vector<std::int64_t> trace = randomTrace(rng, keys, 400000);
  for (const double rate : {1.0, 1.0 / 8.0, 1.0 / 64.0}) {
    for (const std::uint64_t range : rangeHints(17000)) {
      SampledReuseTracker t(rate);
      t.reserve(trace.size(), range);
      testing::ReuseDistanceTracker ref;
      const auto threshold =
          static_cast<std::uint64_t>(std::ldexp(rate, 64));
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < trace.size(); ++i) {
        const std::int64_t k = trace[i];
        std::uint64_t want = SampledReuseTracker::kNotSampled;
        if (rate >= 1.0 || mix64(static_cast<std::uint64_t>(k)) < threshold) {
          want = ref.access(k);
          if (rate < 1.0 && want != testing::ReuseDistanceTracker::kCold)
            want = static_cast<std::uint64_t>(
                std::llround(static_cast<double>(want) * (1.0 / rate)));
        }
        if (t.access(k) != want && mismatches++ == 0)
          ADD_FAILURE() << "rate " << rate << ", range " << range
                        << ": first mismatch at access " << i;
      }
      EXPECT_EQ(mismatches, 0u) << "rate " << rate << ", range " << range;
      EXPECT_EQ(t.accesses(), trace.size());
      EXPECT_EQ(t.sampledAccesses(), ref.accesses()) << "rate " << rate;
      EXPECT_EQ(t.distinctSampled(), ref.distinctData()) << "rate " << rate;
    }
  }
}

}  // namespace
}  // namespace gcr
