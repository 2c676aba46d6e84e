// Wire-protocol codecs: round trips for every frame and payload kind, and
// the defensive-decode contract — decode() of arbitrary bytes returns
// nullopt, never throws, never over-reads, and rejects trailing bytes.
// The random-bytes fuzz at the bottom runs under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "server/protocol.hpp"

namespace gcr::server {
namespace {

TEST(Protocol, FrameHeaderRoundTrip) {
  FrameHeader h;
  h.kind = MsgKind::Measure;
  h.payloadBytes = 12345;
  const std::vector<std::uint8_t> bytes = encodeFrameHeader(h);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes);
  const std::optional<FrameHeader> back = decodeFrameHeader(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->magic, kFrameMagic);
  EXPECT_EQ(back->version, kProtocolVersion);
  EXPECT_EQ(back->kind, MsgKind::Measure);
  EXPECT_EQ(back->payloadBytes, 12345u);
}

TEST(Protocol, FrameHeaderRejectsWrongSizeAndMagic) {
  FrameHeader h;
  std::vector<std::uint8_t> bytes = encodeFrameHeader(h);
  EXPECT_FALSE(decodeFrameHeader({bytes.data(), bytes.size() - 1}));
  EXPECT_FALSE(decodeFrameHeader({bytes.data(), 0}));
  bytes[0] ^= 0xFF;  // corrupt the magic
  EXPECT_FALSE(decodeFrameHeader(bytes));
}

TEST(Protocol, HelloRoundTrip) {
  const std::vector<std::uint8_t> bytes =
      encodeHelloRequest(HelloRequest{"tenant-a"});
  const auto back = decodeHelloRequest(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->tenant, "tenant-a");

  HelloReply reply;
  reply.serverName = "gcr-server/1";
  const auto reply2 = decodeHelloReply(encodeHelloReply(reply));
  ASSERT_TRUE(reply2.has_value());
  EXPECT_EQ(reply2->protocolVersion, kProtocolVersion);
  EXPECT_EQ(reply2->serverName, "gcr-server/1");
}

TEST(Protocol, MeasureRequestRoundTrip) {
  MeasureRequest req;
  req.spec.app = "Swim";
  req.spec.strategy = Strategy::FusedRegrouped;
  req.spec.fusionLevels = 4;
  req.spec.padBytes = 2048;
  req.n = 96;
  req.timeSteps = 3;
  req.machine = MachineConfig::origin2000();
  const auto back = decodeMeasureRequest(encodeMeasureRequest(req));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->spec.app, "Swim");
  EXPECT_EQ(back->spec.strategy, Strategy::FusedRegrouped);
  EXPECT_EQ(back->spec.fusionLevels, 4);
  EXPECT_EQ(back->spec.padBytes, 2048);
  EXPECT_EQ(back->n, 96);
  EXPECT_EQ(back->timeSteps, 3u);
  EXPECT_EQ(back->machine.l2.sizeBytes, req.machine.l2.sizeBytes);
  EXPECT_EQ(back->machine.tlbEntries, req.machine.tlbEntries);
  EXPECT_EQ(back->cost.l1MissCost, req.cost.l1MissCost);
}

TEST(Protocol, MulticoreRequestRoundTrip) {
  MulticoreRequest req;
  req.spec.app = "ADI";
  req.spec.strategy = Strategy::Fused;
  req.n = 40;
  req.timeSteps = 2;
  req.topology = CacheTopology::symmetric(4, ParallelSchedule::Cyclic);
  req.topology.name = "nehalem-4";
  const auto back = decodeMulticoreRequest(encodeMulticoreRequest(req));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->spec.app, "ADI");
  EXPECT_EQ(back->spec.strategy, Strategy::Fused);
  EXPECT_EQ(back->n, 40);
  EXPECT_EQ(back->timeSteps, 2u);
  EXPECT_EQ(back->topology.cores, 4);
  EXPECT_EQ(back->topology.schedule, ParallelSchedule::Cyclic);
  EXPECT_EQ(back->topology.l1.sizeBytes, req.topology.l1.sizeBytes);
  EXPECT_EQ(back->topology.llc.ways, req.topology.llc.ways);
  EXPECT_EQ(back->topology.name, "nehalem-4");

  // Trailing bytes and truncation reject like every other request codec.
  std::vector<std::uint8_t> bytes = encodeMulticoreRequest(req);
  for (std::size_t len = 0; len < bytes.size(); ++len)
    EXPECT_FALSE(decodeMulticoreRequest({bytes.data(), len}).has_value())
        << "decoded a " << len << "-byte prefix";
  bytes.push_back(0);
  EXPECT_FALSE(decodeMulticoreRequest(bytes).has_value());
}

TEST(Protocol, StatsReplyCarriesMulticoreCounters) {
  StatsReply r;
  r.engine.multicore.hits = 11;
  r.engine.multicore.misses = 3;
  r.engine.multicore.entries = 2;
  const auto back = decodeStatsReply(encodeStatsReply(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->engine.multicore.hits, 11u);
  EXPECT_EQ(back->engine.multicore.misses, 3u);
  EXPECT_EQ(back->engine.multicore.entries, 2u);
}

TEST(Protocol, RequestCodecsRejectUnknownStrategy) {
  MeasureRequest req;
  req.spec.app = "ADI";
  std::vector<std::uint8_t> bytes = encodeMeasureRequest(req);
  // The strategy word sits after the codec version (u32) and the app string
  // (u64 length + bytes); corrupt it wholesale instead of surgically — any
  // out-of-range value must be refused.
  bool rejectedSomething = false;
  for (std::size_t i = 4; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> mutant = bytes;
    mutant[i] = 0xEE;
    if (!decodeMeasureRequest(mutant).has_value()) rejectedSomething = true;
  }
  EXPECT_TRUE(rejectedSomething);
}

TEST(Protocol, CodecsRejectTrailingBytes) {
  std::vector<std::uint8_t> bytes =
      encodeHelloRequest(HelloRequest{"tenant"});
  bytes.push_back(0);
  EXPECT_FALSE(decodeHelloRequest(bytes).has_value());

  std::vector<std::uint8_t> verify =
      encodeVerifyRequest(VerifyRequest{"ADI", 16});
  verify.push_back(7);
  EXPECT_FALSE(decodeVerifyRequest(verify).has_value());
}

TEST(Protocol, CodecsRejectTruncationAtEveryLength) {
  MeasureRequest req;
  req.spec.app = "Tomcatv";
  req.machine = MachineConfig::origin2000();
  const std::vector<std::uint8_t> bytes = encodeMeasureRequest(req);
  for (std::size_t len = 0; len < bytes.size(); ++len)
    EXPECT_FALSE(decodeMeasureRequest({bytes.data(), len}).has_value())
        << "decoded a " << len << "-byte prefix";
}

TEST(Protocol, ErrorReplyRoundTrip) {
  ErrorReply err;
  err.code = ErrorCode::Busy;
  err.message = "tenant over limit";
  const auto back = decodeErrorReply(encodeErrorReply(err));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->code, ErrorCode::Busy);
  EXPECT_EQ(back->message, "tenant over limit");
  EXPECT_STREQ(errorCodeName(ErrorCode::Busy), "busy");
}

TEST(Protocol, VerifyReplyRoundTrip) {
  VerifyReply r;
  r.notes = 3;
  r.warnings = 1;
  r.diagnostics = {"a:1:x note", "b:2:y warning"};
  const auto back = decodeVerifyReply(encodeVerifyReply(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->notes, 3u);
  EXPECT_EQ(back->warnings, 1u);
  EXPECT_EQ(back->errors, 0u);
  ASSERT_EQ(back->diagnostics.size(), 2u);
  EXPECT_EQ(back->diagnostics[1], "b:2:y warning");
}

TEST(Protocol, StatsReplyRoundTrip) {
  StatsReply r;
  r.server.connectionsAccepted = 5;
  r.server.requestsAdmitted = 40;
  r.server.draining = true;
  r.tenants = {{"a", 30, 2}, {"b", 10, 0}};
  r.engine.measurement.hits = 17;
  r.engine.symbolic.hits = 6;
  r.engine.symbolic.misses = 1;
  r.engine.inflightCoalesced = 4;
  r.engine.store.puts = 9;
  r.engine.store.bytesStored = 2;
  r.cacheDir = "/tmp/store";
  const auto back = decodeStatsReply(encodeStatsReply(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->server.connectionsAccepted, 5u);
  EXPECT_TRUE(back->server.draining);
  ASSERT_EQ(back->tenants.size(), 2u);
  EXPECT_EQ(back->tenants[0].tenant, "a");
  EXPECT_EQ(back->tenants[0].admitted, 30u);
  EXPECT_EQ(back->engine.measurement.hits, 17u);
  EXPECT_EQ(back->engine.symbolic.hits, 6u);
  EXPECT_EQ(back->engine.symbolic.misses, 1u);
  EXPECT_EQ(back->engine.inflightCoalesced, 4u);
  EXPECT_EQ(back->engine.store.puts, 9u);
  EXPECT_EQ(back->engine.store.bytesStored, 2u);
  EXPECT_EQ(back->cacheDir, "/tmp/store");
}

TEST(Protocol, DecodersNeverCrashOnMutatedPayloads) {
  // Flip every byte of every valid encoding (and truncate at every point):
  // decoders must return a value or nullopt, never throw or over-read.
  MeasureRequest mreq;
  mreq.spec.app = "ADI";
  mreq.machine = MachineConfig::origin2000();
  StatsReply stats;
  stats.tenants = {{"t", 1, 0}};
  stats.cacheDir = "/x";
  const std::vector<std::vector<std::uint8_t>> corpus = {
      encodeHelloRequest(HelloRequest{"t"}),
      encodeOptimizeRequest(OptimizeRequest{{"ADI", Strategy::Fused, 8, 0}}),
      encodeMeasureRequest(mreq),
      encodeProfileRequest(ProfileRequest{{"SP", Strategy::NoOpt, 8, 0}, 16, 1}),
      encodeVerifyRequest(VerifyRequest{"Swim", 16}),
      encodeHelloReply(HelloReply{}),
      encodeErrorReply(ErrorReply{ErrorCode::BadRequest, "m"}),
      encodeVerifyReply(VerifyReply{1, 0, 0, {"d"}}),
      encodeStatsReply(stats),
  };
  auto tryAll = [](std::span<const std::uint8_t> bytes) {
    (void)decodeHelloRequest(bytes);
    (void)decodeOptimizeRequest(bytes);
    (void)decodeMeasureRequest(bytes);
    (void)decodeProfileRequest(bytes);
    (void)decodeVerifyRequest(bytes);
    (void)decodeHelloReply(bytes);
    (void)decodeErrorReply(bytes);
    (void)decodeVerifyReply(bytes);
    (void)decodeStatsReply(bytes);
  };
  for (const std::vector<std::uint8_t>& seed : corpus) {
    for (std::size_t i = 0; i < seed.size(); ++i) {
      std::vector<std::uint8_t> mutant = seed;
      mutant[i] ^= 0xFF;
      tryAll(mutant);
      mutant[i] = 0xFF;
      tryAll(mutant);
      tryAll({seed.data(), i});
    }
  }
  SUCCEED();  // surviving without UB/throw IS the assertion (ASan/UBSan)
}

TEST(Protocol, DecodersNeverCrashOnRandomBytes) {
  // Deterministic LCG garbage at many lengths, including length prefixes
  // that claim far more data than present.
  std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(round * 7 % 512));
    for (std::uint8_t& b : bytes) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      b = static_cast<std::uint8_t>(lcg >> 56);
    }
    (void)decodeHelloRequest(bytes);
    (void)decodeOptimizeRequest(bytes);
    (void)decodeMeasureRequest(bytes);
    (void)decodeProfileRequest(bytes);
    (void)decodeVerifyRequest(bytes);
    (void)decodeHelloReply(bytes);
    (void)decodeErrorReply(bytes);
    (void)decodeVerifyReply(bytes);
    (void)decodeStatsReply(bytes);
    (void)decodeFrameHeader(bytes);
  }
  SUCCEED();
}

}  // namespace
}  // namespace gcr::server
