// Codec contracts (store/codec.hpp): exact round trips with bit-for-bit
// doubles, canonical re-encoding, and defensive decoding of hostile bytes —
// plus the full serialize → store → mmap-load → deserialize loop over a
// 25-seed random-program corpus.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "../common/random_program.hpp"
#include "../common/temp_dir.hpp"
#include "driver/measure.hpp"
#include "driver/pipeline.hpp"
#include "ir/print.hpp"
#include "store/codec.hpp"
#include "store/store.hpp"
#include "support/prng.hpp"

namespace gcr::store {
namespace {

bool sameDouble(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool sameMeasurement(const Measurement& a, const Measurement& b) {
  return std::memcmp(&a.counts, &b.counts, sizeof a.counts) == 0 &&
         sameDouble(a.cycles, b.cycles) &&
         a.memoryTrafficBytes == b.memoryTrafficBytes &&
         sameDouble(a.effectiveBandwidth, b.effectiveBandwidth);
}

bool sameProfile(const ReuseProfile& a, const ReuseProfile& b) {
  if (a.accesses != b.accesses || a.distinctData != b.distinctData)
    return false;
  if (a.histogram.coldCount() != b.histogram.coldCount()) return false;
  if (a.histogram.highestNonEmptyBin() != b.histogram.highestNonEmptyBin())
    return false;
  for (int bin = 0; bin <= a.histogram.highestNonEmptyBin(); ++bin)
    if (a.histogram.binCount(bin) != b.histogram.binCount(bin)) return false;
  return true;
}

bool sameLayout(const DataLayout& a, const DataLayout& b) {
  if (a.numArrays() != b.numArrays() || a.totalBytes() != b.totalBytes())
    return false;
  for (std::size_t i = 0; i < a.numArrays(); ++i) {
    const ArrayLayout& la = a.layoutOf(static_cast<ArrayId>(i));
    const ArrayLayout& lb = b.layoutOf(static_cast<ArrayId>(i));
    if (la.base != lb.base || la.strides != lb.strides) return false;
  }
  return true;
}

Measurement oddballMeasurement() {
  Measurement m;
  m.counts.refs = 123456789;
  m.counts.l1Misses = 42;
  m.counts.l2Misses = 7;
  m.counts.tlbMisses = 1;
  m.counts.l2Writebacks = 99;
  m.counts.l2Prefetches = 5;
  m.counts.l2PrefetchHits = 3;
  m.cycles = 0.1 + 0.2;  // not exactly 0.3
  m.memoryTrafficBytes = ~std::uint64_t{0} - 17;
  m.effectiveBandwidth = std::numeric_limits<double>::quiet_NaN();
  return m;
}

TEST(StoreCodec, MeasurementRoundTripIsBitExact) {
  const Measurement m = oddballMeasurement();
  const auto bytes = encodeMeasurement(m);
  const auto back = decodeMeasurement(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(sameMeasurement(m, *back));  // NaN, -0.0, denormal included
  EXPECT_EQ(encodeMeasurement(*back), bytes);  // canonical
}

TEST(StoreCodec, ProfileRoundTripIsExact) {
  ReuseProfile p;
  p.accesses = 1000;
  p.distinctData = 77;
  p.histogram.add(Log2Histogram::kCold, 77);
  p.histogram.add(0, 10);
  p.histogram.add(1, 20);
  p.histogram.add(12345, 30);
  p.histogram.add(std::uint64_t{1} << 40, 5);

  const auto bytes = encodeReuseProfile(p);
  const auto back = decodeReuseProfile(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(sameProfile(p, *back));
  EXPECT_EQ(encodeReuseProfile(*back), bytes);
}

TEST(StoreCodec, PipelineResultRoundTripOnRandomCorpus) {
  testing::RandomProgramOptions opts;
  opts.allowTwoDim = true;
  opts.allowReversed = true;
  const PipelineOptions popts = pipelineOptionsFor(Strategy::FusedRegrouped);

  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const Program p = testing::randomProgram(seed, opts);
    const PipelineResult r = runPipeline(p, popts);
    const auto bytes = encodePipelineResult(r);
    auto back = decodePipelineResult(bytes);
    ASSERT_TRUE(back.has_value()) << "seed " << seed;

    EXPECT_EQ(toString(back->program), toString(r.program)) << "seed " << seed;
    EXPECT_EQ(back->regrouped, r.regrouped);
    EXPECT_EQ(back->unrolledLoops, r.unrolledLoops);
    EXPECT_EQ(back->arraysAfterSplit, r.arraysAfterSplit);
    EXPECT_EQ(back->distributedLoops, r.distributedLoops);
    EXPECT_EQ(back->fusionReport.fusions, r.fusionReport.fusions);
    EXPECT_EQ(back->fusionReport.embeddings, r.fusionReport.embeddings);
    EXPECT_EQ(back->fusionReport.peels, r.fusionReport.peels);
    EXPECT_EQ(back->fusionReport.log, r.fusionReport.log);
    EXPECT_EQ(back->fusionReport.signals, r.fusionReport.signals);
    EXPECT_EQ(back->fusionReport.loopsPerLevelBefore,
              r.fusionReport.loopsPerLevelBefore);
    EXPECT_EQ(back->fusionReport.loopsPerLevelAfter,
              r.fusionReport.loopsPerLevelAfter);
    EXPECT_EQ(back->regroupReport.compatibleGroups,
              r.regroupReport.compatibleGroups);
    EXPECT_EQ(back->regroupReport.partitionsFormed,
              r.regroupReport.partitionsFormed);
    EXPECT_EQ(back->regroupReport.log, r.regroupReport.log);

    ASSERT_EQ(back->diagnostics.size(), r.diagnostics.size());
    for (std::size_t i = 0; i < r.diagnostics.size(); ++i) {
      EXPECT_EQ(back->diagnostics[i].format(), r.diagnostics[i].format());
      EXPECT_EQ(back->diagnostics[i].witness, r.diagnostics[i].witness);
    }

    // The decoded result must materialize the same memory layout — this is
    // what the Engine uses it for.
    EXPECT_TRUE(sameLayout(back->layoutAt(16), r.layoutAt(16)))
        << "seed " << seed;
    EXPECT_TRUE(sameLayout(back->layoutAt(24), r.layoutAt(24)))
        << "seed " << seed;

    // Canonical: re-encoding the decoded value is byte-identical, which is
    // what makes the store's content checksum meaningful.
    EXPECT_EQ(encodePipelineResult(*back), bytes) << "seed " << seed;
  }
}

TEST(StoreCodec, StoreRoundTripThroughDiskIsByteIdentical) {
  // The full loop of the ISSUE: serialize → put → mmap get → deserialize,
  // byte-identical, for measurements and reuse profiles of a 25-seed corpus.
  testing::ScopedTempDir dir("gcr-store-codec");
  ArtifactStore::Options sopts;
  sopts.dir = dir.path();
  auto store = ArtifactStore::open(sopts);
  ASSERT_NE(store, nullptr);

  const MachineConfig machine = MachineConfig::origin2000();
  testing::RandomProgramOptions opts;
  opts.allowTwoDim = true;

  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const Program p = testing::randomProgram(seed, opts);
    const ProgramVersion v = makeVersion(p, Strategy::NoOpt);
    const Measurement m = measure(v, 16, machine);
    const ReuseProfile prof = reuseProfileOf(v, 16);

    const Signature sigM{seed, 0xABC};
    const Signature sigP{seed, 0xDEF};
    const auto mBytes = encodeMeasurement(m);
    const auto pBytes = encodeReuseProfile(prof);
    ASSERT_TRUE(store->put(ArtifactKind::Measurement, sigM, mBytes));
    ASSERT_TRUE(store->put(ArtifactKind::ReuseProfile, sigP, pBytes));

    auto mEntry = store->get(ArtifactKind::Measurement, sigM);
    auto pEntry = store->get(ArtifactKind::ReuseProfile, sigP);
    ASSERT_TRUE(mEntry.has_value()) << "seed " << seed;
    ASSERT_TRUE(pEntry.has_value()) << "seed " << seed;

    const auto mBack = decodeMeasurement(mEntry->payload());
    const auto pBack = decodeReuseProfile(pEntry->payload());
    ASSERT_TRUE(mBack.has_value()) << "seed " << seed;
    ASSERT_TRUE(pBack.has_value()) << "seed " << seed;
    EXPECT_TRUE(sameMeasurement(m, *mBack)) << "seed " << seed;
    EXPECT_TRUE(sameProfile(prof, *pBack)) << "seed " << seed;
    EXPECT_EQ(encodeMeasurement(*mBack), mBytes) << "seed " << seed;
    EXPECT_EQ(encodeReuseProfile(*pBack), pBytes) << "seed " << seed;
  }
  EXPECT_EQ(store->counters().corruptRejected, 0u);
}

TEST(StoreCodec, DecodeRejectsTruncationAndTrailingBytes) {
  const auto bytes = encodeMeasurement(oddballMeasurement());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> shorter(bytes.begin(),
                                            bytes.begin() + cut);
    EXPECT_FALSE(decodeMeasurement(shorter).has_value()) << "cut " << cut;
  }
  auto longer = bytes;
  longer.push_back(0);
  EXPECT_FALSE(decodeMeasurement(longer).has_value());

  const Program p = testing::randomProgram(3);
  const auto rBytes =
      encodePipelineResult(runPipeline(p, pipelineOptionsFor(
                                              Strategy::FusedRegrouped)));
  // Sample truncation points (every offset would be O(n^2) over a large
  // encoding); always include the interesting edges.
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                          rBytes.size() / 3, rBytes.size() / 2,
                          rBytes.size() - 1}) {
    const std::vector<std::uint8_t> shorter(rBytes.begin(),
                                            rBytes.begin() + cut);
    EXPECT_FALSE(decodePipelineResult(shorter).has_value()) << "cut " << cut;
  }
  auto rLonger = rBytes;
  rLonger.push_back(7);
  EXPECT_FALSE(decodePipelineResult(rLonger).has_value());
}

TEST(StoreCodec, DecodeRejectsWrongCodecVersion) {
  auto bytes = encodeMeasurement(oddballMeasurement());
  bytes[0] = 0x63;  // codec version is the leading u32
  EXPECT_FALSE(decodeMeasurement(bytes).has_value());
}

TEST(StoreCodec, DecodeNeverCrashesOnBitFlips) {
  // At the codec layer a bit flip may decode to a *different valid value*
  // (the store's checksums are what reject flipped content); the codec's own
  // contract is bounds-safety: no crash, no hang, no huge allocation.  The
  // sanitizer CI jobs give this test teeth.
  const Program p = testing::randomProgram(5, {.allowTwoDim = true});
  const auto bytes =
      encodePipelineResult(runPipeline(p, pipelineOptionsFor(
                                              Strategy::FusedRegrouped)));
  const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 512);
  for (std::size_t i = 0; i < bytes.size(); i += stride) {
    for (std::uint8_t bit : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      auto mutated = bytes;
      mutated[i] ^= bit;
      (void)decodePipelineResult(mutated);  // must simply not blow up
    }
  }
}

TEST(StoreCodec, DecodeRejectsRandomGarbage) {
  SplitMix64 rng(0xC0FFEE);
  for (int round = 0; round < 64; ++round) {
    std::vector<std::uint8_t> soup(rng.nextBelow(300));
    for (auto& b : soup) b = static_cast<std::uint8_t>(rng.nextBelow(256));
    // Garbage essentially never forms a full well-formed value that also
    // consumes every byte; all three decoders must return nullopt (and
    // certainly not throw or scribble).
    EXPECT_FALSE(decodeMeasurement(soup).has_value());
    EXPECT_FALSE(decodeReuseProfile(soup).has_value());
    EXPECT_FALSE(decodePipelineResult(soup).has_value());
    EXPECT_FALSE(decodeSymbolicProfile(soup).has_value());
  }
}

// --- symbolic_profile artifacts ---------------------------------------------

bool sameSymbolicProfile(const SymbolicReuseProfile& a,
                         const SymbolicReuseProfile& b) {
  if (a.minN != b.minN || !(a.footprint == b.footprint)) return false;
  if (a.sites.size() != b.sites.size()) return false;
  if (a.perSite.size() != b.perSite.size()) return false;
  for (std::size_t i = 0; i < a.sites.size(); ++i) {
    const SymbolicSiteInfo& sa = a.sites[i];
    const SymbolicSiteInfo& sb = b.sites[i];
    if (sa.stmtId != sb.stmtId || sa.array != sb.array ||
        sa.isWrite != sb.isWrite || sa.operand != sb.operand ||
        sa.loc != sb.loc || sa.text != sb.text)
      return false;
    const SymbolicSiteProfile& ea = a.perSite[i];
    const SymbolicSiteProfile& eb = b.perSite[i];
    if (ea.cls != eb.cls || ea.carryLevel != eb.carryLevel ||
        ea.bailout != eb.bailout || !(ea.distance == eb.distance) ||
        !(ea.count == eb.count) || ea.degree != eb.degree ||
        ea.evadable != eb.evadable || ea.imprecise != eb.imprecise)
      return false;
  }
  return true;
}

/// Every codec feature in one hand-built profile: a cold site (no
/// formulas), a carried site with min/floor-div expressions and a degree,
/// and a bailed site (reason code, no distance, indeterminate degree).
SymbolicReuseProfile oddballSymbolicProfile() {
  SymbolicReuseProfile p;
  p.minN = 16;
  p.footprint = symAdd(symMul(symN(), symN()), symConst(7));
  p.sites.push_back({0, 0, true, 1, "i/j", "A[i][j]"});
  p.perSite.push_back({ReuseClass::Cold, -1, SymbolicBailout::None, SymExpr{},
                       symMul(symN(), symN()), std::nullopt, false, false});
  p.sites.push_back({1, 1, false, 0, "i", "B[i-1]"});
  p.perSite.push_back(
      {ReuseClass::LoopCarried, 0, SymbolicBailout::None,
       symMin(symConst(256), symFloorDiv(symAdd(symN(), symConst(3)), 2), 16),
       symAffine(AffineN::N() - 2), 0, false, true});
  p.sites.push_back({2, 1, false, 1, "i", "B[i+(N-20)]"});
  p.perSite.push_back({ReuseClass::LoopCarried, 0,
                       SymbolicBailout::SignIndeterminateDelta, SymExpr{},
                       symAffine(AffineN::N() - 2), std::nullopt, false,
                       false});
  return p;
}

TEST(StoreCodec, SymbolicProfileRoundTripIsExact) {
  const SymbolicReuseProfile p = oddballSymbolicProfile();
  const auto bytes = encodeSymbolicProfile(p);
  const auto back = decodeSymbolicProfile(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(sameSymbolicProfile(p, *back));
  EXPECT_EQ(encodeSymbolicProfile(*back), bytes);  // canonical
}

TEST(StoreCodec, SymbolicProfileRoundTripOnAnalyzedCorpus) {
  // Real analyzer output (deep Min chains, cross-unit sums, imprecise
  // flags) must survive serialize → decode → re-encode byte-identically.
  testing::RandomProgramOptions opts;
  opts.allowTwoDim = true;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Program p = testing::randomProgram(seed, opts);
    const SymbolicReuseProfile sym = analyzeSymbolicReuse(p);
    const auto bytes = encodeSymbolicProfile(sym);
    const auto back = decodeSymbolicProfile(bytes);
    ASSERT_TRUE(back.has_value()) << "seed " << seed;
    EXPECT_TRUE(sameSymbolicProfile(sym, *back)) << "seed " << seed;
    EXPECT_EQ(encodeSymbolicProfile(*back), bytes) << "seed " << seed;
  }
}

TEST(StoreCodec, SymbolicProfileDecodeRejectsTruncationAndTrailingBytes) {
  const auto bytes = encodeSymbolicProfile(oddballSymbolicProfile());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> shorter(bytes.begin(),
                                            bytes.begin() + cut);
    EXPECT_FALSE(decodeSymbolicProfile(shorter).has_value()) << "cut " << cut;
  }
  auto longer = bytes;
  longer.push_back(0);
  EXPECT_FALSE(decodeSymbolicProfile(longer).has_value());

  auto wrongVersion = bytes;
  wrongVersion[0] = 0x7F;  // codec version is the leading u32
  EXPECT_FALSE(decodeSymbolicProfile(wrongVersion).has_value());
}

MulticoreProfile oddballMulticoreProfile() {
  MulticoreProfile p;
  p.cores = 3;
  p.schedule = ParallelSchedule::Cyclic;
  p.llcCapacityLines = 1u << 17;
  for (int c = 0; c < 3; ++c) {
    CoreCacheStats s;
    s.refs = 1000u * static_cast<std::uint64_t>(c + 1);
    s.l1Misses = 100u + static_cast<std::uint64_t>(c);
    s.l2Misses = 10u + static_cast<std::uint64_t>(c);
    s.l2Writebacks = c == 0 ? 0u : 7u;
    s.lineAccesses = 500u * static_cast<std::uint64_t>(c + 1);
    s.coldLines = 42u;
    p.perCore.push_back(s);
  }
  p.shared.add(0, 5);
  p.shared.add(12345, 9);
  p.shared.add(Log2Histogram::kCold, 126);
  p.sharedAccesses = 3000;
  p.sharedColdLines = 126;
  p.llcMissFraction = 0.125;
  p.cycles = 1.5e9;
  return p;
}

bool sameMulticoreProfile(const MulticoreProfile& a, const MulticoreProfile& b) {
  return encodeMulticoreProfile(a) == encodeMulticoreProfile(b);
}

TEST(StoreCodec, MulticoreProfileRoundTripIsExact) {
  const MulticoreProfile p = oddballMulticoreProfile();
  const auto bytes = encodeMulticoreProfile(p);
  const auto back = decodeMulticoreProfile(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(sameMulticoreProfile(p, *back));
  EXPECT_EQ(back->cores, 3);
  EXPECT_EQ(back->schedule, ParallelSchedule::Cyclic);
  EXPECT_EQ(back->perCore.size(), 3u);
  EXPECT_EQ(back->shared.coldCount(), 126u);
  EXPECT_EQ(back->llcMissFraction, 0.125);
  EXPECT_EQ(encodeMulticoreProfile(*back), bytes);  // canonical
}

TEST(StoreCodec, MulticoreProfileDecodeRejectsTruncationAndTrailingBytes) {
  const auto bytes = encodeMulticoreProfile(oddballMulticoreProfile());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> shorter(bytes.begin(),
                                            bytes.begin() + cut);
    EXPECT_FALSE(decodeMulticoreProfile(shorter).has_value()) << "cut " << cut;
  }
  auto longer = bytes;
  longer.push_back(0);
  EXPECT_FALSE(decodeMulticoreProfile(longer).has_value());

  auto wrongVersion = bytes;
  wrongVersion[0] = 0x7F;
  EXPECT_FALSE(decodeMulticoreProfile(wrongVersion).has_value());
}

TEST(StoreCodec, MulticoreProfileDecodeNeverCrashesOnBitFlips) {
  const auto bytes = encodeMulticoreProfile(oddballMulticoreProfile());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (std::uint8_t bit : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      auto mutated = bytes;
      mutated[i] ^= bit;
      (void)decodeMulticoreProfile(mutated);
    }
  }
  SUCCEED();
}

TEST(StoreCodec, SymbolicProfileDecodeNeverCrashesOnBitFlips) {
  // Same bounds-safety contract as the other codecs: a flipped byte may
  // decode, may reject — it must never crash, hang, or over-allocate.
  const auto bytes = encodeSymbolicProfile(oddballSymbolicProfile());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (std::uint8_t bit : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      auto mutated = bytes;
      mutated[i] ^= bit;
      (void)decodeSymbolicProfile(mutated);
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace gcr::store
