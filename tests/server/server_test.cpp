// End-to-end daemon tests over a real unix socket: correctness (wire
// results match a direct in-process Engine, warm duplicates replay
// verbatim, cross-client coalescing), admission control (Busy, connection
// cap), drain semantics, and the fault-isolation contract — no byte
// sequence a client sends may crash or wedge the server.  The malicious-
// client cases speak raw bytes on the socket on purpose.  Runs under
// ASan/UBSan and TSan in CI.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "../common/temp_dir.hpp"
#include "apps/registry.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "store/codec.hpp"

namespace gcr::server {
namespace {

struct TestServer {
  testing::ScopedTempDir dir{"gcr-srv"};
  std::string socketPath;
  std::unique_ptr<Server> server;

  explicit TestServer(ServerOptions opts = {}) {
    socketPath = dir.path() + "/gcr.sock";
    opts.unixSocketPath = socketPath;
    server = Server::start(std::move(opts));
  }
};

MeasureRequest adiRequest(std::int64_t n = 32) {
  MeasureRequest req;
  req.spec.app = "ADI";
  req.spec.strategy = Strategy::Fused;
  req.n = n;
  req.machine = MachineConfig::origin2000();
  return req;
}

/// Raw-byte connection for the malicious-client cases.  `recvTimeoutMs`
/// bounds every read: a malicious frame can leave BOTH sides legitimately
/// waiting (the server for a promised payload, this test for a reply), and
/// only the attacker's patience should decide that standoff, not the test.
struct RawConn {
  int fd = -1;
  explicit RawConn(const std::string& path, int recvTimeoutMs = 0) {
    fd = connectAddress(path);
    if (fd >= 0 && recvTimeoutMs > 0) {
      struct timeval tv {};
      tv.tv_sec = recvTimeoutMs / 1000;
      tv.tv_usec = (recvTimeoutMs % 1000) * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    }
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
  bool sendBytes(const void* data, std::size_t size) const {
    return ::send(fd, data, size, MSG_NOSIGNAL) ==
           static_cast<ssize_t>(size);
  }
  bool hello(const std::string& tenant = "raw") const {
    return sendFrame(fd, MsgKind::Hello,
                     encodeHelloRequest(HelloRequest{tenant})) &&
           recvFrame(fd).ok;
  }
};

// --- correctness -----------------------------------------------------------

TEST(Server, MeasureMatchesDirectEngineAndWarmDuplicateIsVerbatim) {
  TestServer ts;
  ASSERT_NE(ts.server, nullptr);
  std::string error;
  auto client = Client::connect(ts.socketPath, "t1", &error);
  ASSERT_NE(client, nullptr) << error;

  const MeasureRequest req = adiRequest();
  const Result<Measurement> wire = client->measure(req);
  ASSERT_TRUE(wire.ok()) << wire.message;
  const std::vector<std::uint8_t> firstPayload = client->lastPayload();

  // The wire payload is the store codec of a direct in-process run, byte
  // for byte.
  Engine direct;
  const Measurement local = direct.measure(
      direct.version(apps::buildApp("ADI"), Strategy::Fused,
                     req.spec.versionSpec()),
      req.n, req.machine, req.timeSteps, req.cost);
  EXPECT_EQ(firstPayload, store::encodeMeasurement(local));

  // Warm duplicate: a cache replay sends the same bytes.
  const Result<Measurement> dup = client->measure(req);
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(client->lastPayload(), firstPayload);

  const Result<StatsReply> stats = client->stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->engine.measurement.hits, 0u);
}

TEST(Server, ProfileAndOptimizeAndVerifyRoundTrip) {
  TestServer ts;
  ASSERT_NE(ts.server, nullptr);
  auto client = Client::connect(ts.socketPath, "t1");
  ASSERT_NE(client, nullptr);

  ProfileRequest preq;
  preq.spec.app = "Swim";
  preq.n = 48;
  const Result<ReuseProfile> prof = client->profile(preq);
  ASSERT_TRUE(prof.ok()) << prof.message;
  EXPECT_GT(prof->accesses, 0u);

  OptimizeRequest oreq;
  oreq.spec.app = "Tomcatv";
  oreq.spec.strategy = Strategy::FusedRegrouped;
  const Result<PipelineResult> opt = client->optimize(oreq);
  ASSERT_TRUE(opt.ok()) << opt.message;

  const Result<VerifyReply> ver = client->verify(VerifyRequest{"ADI", 16});
  ASSERT_TRUE(ver.ok()) << ver.message;
  EXPECT_EQ(ver->errors, 0u);
}

TEST(Server, ConcurrentClientsShareOneEngine) {
  TestServer ts;
  ASSERT_NE(ts.server, nullptr);
  constexpr int kClients = 6;
  std::vector<std::thread> threads;
  // vector<char>, not vector<bool>: the threads write distinct slots, and
  // vector<bool>'s bit packing would make those writes race on one word.
  std::vector<char> ok(kClients, 0);
  for (int i = 0; i < kClients; ++i)
    threads.emplace_back([&, i] {
      auto c =
          Client::connect(ts.socketPath, "tenant-" + std::to_string(i));
      if (c == nullptr) return;
      // All clients request the same work: exactly one computation may run.
      const Result<Measurement> r = c->measure(adiRequest());
      ok[static_cast<std::size_t>(i)] = r.ok();
    });
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kClients; ++i) EXPECT_TRUE(ok[i]) << i;

  auto c = Client::connect(ts.socketPath, "checker");
  ASSERT_NE(c, nullptr);
  const Result<StatsReply> stats = c->stats();
  ASSERT_TRUE(stats.ok());
  // One measurement entry exists — the inflight map guarantees a single
  // computation — and every duplicate was served by the cache or coalesced
  // onto in-flight work.  The sum is a lower bound, not an equality:
  // inflightCoalesced is engine-wide, and on slow (sanitized) builds the
  // duplicates also coalesce on the shared pipeline computation.
  EXPECT_GE(stats->engine.measurement.hits + stats->engine.inflightCoalesced,
            static_cast<std::uint64_t>(kClients - 1));
  EXPECT_EQ(stats->engine.measurement.entries, 1u);
  EXPECT_GE(stats->tenants.size(), static_cast<std::size_t>(kClients));
}

TEST(Server, MulticoreMatchesDirectEngineAndWarmDuplicateIsVerbatim) {
  TestServer ts;
  ASSERT_NE(ts.server, nullptr);
  auto client = Client::connect(ts.socketPath, "t1");
  ASSERT_NE(client, nullptr);

  MulticoreRequest req;
  req.spec.app = "ADI";
  req.spec.strategy = Strategy::Fused;
  req.n = 20;
  req.topology = CacheTopology::symmetric(4).scaledDown(16);
  const Result<MulticoreProfile> wire = client->multicore(req);
  ASSERT_TRUE(wire.ok()) << wire.message;
  EXPECT_EQ(wire->cores, 4);
  EXPECT_GT(wire->sharedAccesses, 0u);
  const std::vector<std::uint8_t> firstPayload = client->lastPayload();

  // The wire payload is the store codec verbatim: a direct in-process
  // Engine run serializes to the same bytes.
  Engine direct;
  const MulticoreProfile local = direct.multicoreProfile(
      direct.version(apps::buildApp("ADI"), Strategy::Fused,
                     req.spec.versionSpec()),
      req.n, req.topology, req.timeSteps);
  EXPECT_EQ(firstPayload, store::encodeMulticoreProfile(local));

  const Result<MulticoreProfile> dup = client->multicore(req);
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(client->lastPayload(), firstPayload);

  const Result<StatsReply> stats = client->stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->engine.multicore.misses, 1u);
  EXPECT_EQ(stats->engine.multicore.hits, 1u);
}

TEST(Server, ConcurrentMulticoreSessionsOnAThreadedEngineMatchDirectRuns) {
  // Each session thread runs its multicore request on the shared Engine,
  // whose per-core simulations fan out on the Engine's 4-thread pool, so
  // several sessions enter the pool at once.  Every reply must still equal
  // a direct run of the same request.
  ServerOptions opts;
  opts.engine.threads = 4;
  TestServer ts(opts);
  ASSERT_NE(ts.server, nullptr);
  constexpr int kSessions = 6;
  constexpr int kRounds = 3;
  auto requestFor = [](int session, int round) {
    MulticoreRequest req;
    req.spec.app = session % 2 == 0 ? "Swim" : "Tomcatv";
    req.spec.strategy = Strategy::Fused;
    req.n = 24 + 2 * (session * kRounds + round);  // a distinct key each
    req.topology = CacheTopology::symmetric(4).scaledDown(16);
    return req;
  };

  std::vector<Result<MulticoreProfile>> wire(kSessions * kRounds);
  std::vector<std::thread> sessions;
  for (int s = 0; s < kSessions; ++s)
    sessions.emplace_back([&, s] {
      auto c = Client::connect(ts.socketPath, "tenant-" + std::to_string(s));
      if (c == nullptr) return;
      for (int r = 0; r < kRounds; ++r)
        wire[static_cast<std::size_t>(s * kRounds + r)] =
            c->multicore(requestFor(s, r));
    });
  for (std::thread& t : sessions) t.join();

  Engine direct(EngineConfig().withThreads(1));
  for (int s = 0; s < kSessions; ++s)
    for (int r = 0; r < kRounds; ++r) {
      const Result<MulticoreProfile>& got =
          wire[static_cast<std::size_t>(s * kRounds + r)];
      ASSERT_TRUE(got.ok()) << got.message;
      const MulticoreRequest req = requestFor(s, r);
      const MulticoreProfile want = direct.multicoreProfile(
          direct.version(apps::buildApp(req.spec.app), req.spec.strategy,
                         req.spec.versionSpec()),
          req.n, req.topology, req.timeSteps);
      EXPECT_EQ(store::encodeMulticoreProfile(*got),
                store::encodeMulticoreProfile(want))
          << "session " << s << " round " << r;
    }
}

TEST(Server, MulticoreBadGeometryIsBadRequestNotACrash) {
  TestServer ts;
  ASSERT_NE(ts.server, nullptr);
  auto client = Client::connect(ts.socketPath, "t1");
  ASSERT_NE(client, nullptr);

  MulticoreRequest req;
  req.spec.app = "ADI";
  req.n = 16;
  req.topology = CacheTopology::symmetric(2);
  req.topology.cores = 0;  // semantically invalid, well-framed
  const Result<MulticoreProfile> r = client->multicore(req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error, ErrorCode::BadRequest);

  req.topology = CacheTopology::symmetric(2);
  req.topology.llc.lineSize = 0;
  const Result<MulticoreProfile> r2 = client->multicore(req);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.error, ErrorCode::BadRequest);

  // Payload-level rejection keeps the session open.
  const Result<MulticoreProfile> good = client->multicore(
      [] {
        MulticoreRequest ok;
        ok.spec.app = "ADI";
        ok.n = 16;
        ok.topology = CacheTopology::symmetric(2).scaledDown(16);
        return ok;
      }());
  EXPECT_TRUE(good.ok()) << good.message;
}

TEST(Server, OverflowingCacheGeometryIsBadRequestNotACrash) {
  // Positive fields whose products wrap to 0 in 64 bits: lineSize * ways
  // for a cache level, pageSize * tlbEntries for the TLB.
  TestServer ts;
  ASSERT_NE(ts.server, nullptr);
  auto client = Client::connect(ts.socketPath, "t1");
  ASSERT_NE(client, nullptr);
  const std::int64_t huge = std::int64_t{1} << 62;

  MeasureRequest l1 = adiRequest(16);
  l1.machine.l1 = CacheConfig{1, huge, 4, "L1"};
  const Result<Measurement> r1 = client->measure(l1);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.error, ErrorCode::BadRequest);

  MeasureRequest tlb = adiRequest(16);
  tlb.machine.pageSize = huge;
  tlb.machine.tlbEntries = 4;
  const Result<Measurement> r2 = client->measure(tlb);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.error, ErrorCode::BadRequest);

  MulticoreRequest mc;
  mc.spec.app = "ADI";
  mc.n = 16;
  mc.topology = CacheTopology::symmetric(2).scaledDown(16);
  mc.topology.l2 = CacheConfig{1, huge, 4, "L2"};
  const Result<MulticoreProfile> r3 = client->multicore(mc);
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.error, ErrorCode::BadRequest);

  // The daemon and the session survive all three.
  const Result<StatsReply> stats = client->stats();
  ASSERT_TRUE(stats.ok()) << stats.message;
  EXPECT_GE(stats->server.requestsErrored, 3u);
}

// --- admission control -----------------------------------------------------

TEST(Server, PerTenantLimitZeroRejectsWithBusy) {
  ServerOptions opts;
  opts.maxInFlightPerTenant = 0;  // admission always refuses work
  TestServer ts(opts);
  ASSERT_NE(ts.server, nullptr);
  auto client = Client::connect(ts.socketPath, "t1");
  ASSERT_NE(client, nullptr);

  const Result<Measurement> r = client->measure(adiRequest());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error, ErrorCode::Busy);

  // Busy is backpressure, not a fault: the session stays usable.
  const Result<StatsReply> stats = client->stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->server.requestsBusyRejected, 1u);
  ASSERT_EQ(stats->tenants.size(), 1u);
  EXPECT_EQ(stats->tenants[0].busyRejected, 1u);
}

TEST(Server, ConnectionCapRejectsTheExtraClient) {
  ServerOptions opts;
  opts.maxConnections = 2;
  TestServer ts(opts);
  ASSERT_NE(ts.server, nullptr);
  auto c1 = Client::connect(ts.socketPath, "a");
  auto c2 = Client::connect(ts.socketPath, "b");
  ASSERT_NE(c1, nullptr);
  ASSERT_NE(c2, nullptr);

  // The third connection is turned away with an explicit Busy error frame.
  RawConn raw(ts.socketPath);
  ASSERT_GE(raw.fd, 0);
  const RecvResult r = recvFrame(raw.fd);
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.header.kind, MsgKind::ReplyError);
  const auto err = decodeErrorReply(r.payload);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::Busy);

  // Capacity frees when a session closes.
  c1.reset();
  for (int i = 0; i < 100; ++i) {
    auto c3 = Client::connect(ts.socketPath, "c");
    if (c3 != nullptr) {
      SUCCEED();
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "slot was never released";
}

// --- fault isolation: no client bytes may crash or wedge the daemon -------

TEST(Server, GarbageBytesGetErrorReplyAndClose) {
  TestServer ts;
  ASSERT_NE(ts.server, nullptr);
  RawConn raw(ts.socketPath);
  ASSERT_GE(raw.fd, 0);
  const char garbage[] = "GET / HTTP/1.1\r\nHost: nope\r\n\r\n";
  ASSERT_TRUE(raw.sendBytes(garbage, sizeof garbage - 1));
  const RecvResult r = recvFrame(raw.fd);
  // Bad magic is a framing error: error reply, then close.
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.header.kind, MsgKind::ReplyError);
  const RecvResult after = recvFrame(raw.fd);
  // Closed: clean EOF, or a reset when our unread garbage was discarded.
  EXPECT_FALSE(after.ok);
  EXPECT_TRUE(after.eof || after.truncated);

  // The daemon survived.
  auto probe = Client::connect(ts.socketPath, "probe");
  EXPECT_NE(probe, nullptr);
}

TEST(Server, WrongProtocolVersionIsRejected) {
  TestServer ts;
  ASSERT_NE(ts.server, nullptr);
  RawConn raw(ts.socketPath);
  ASSERT_GE(raw.fd, 0);
  FrameHeader h;
  h.version = kProtocolVersion + 1;
  h.kind = MsgKind::Hello;
  const std::vector<std::uint8_t> bytes = encodeFrameHeader(h);
  ASSERT_TRUE(raw.sendBytes(bytes.data(), bytes.size()));
  const RecvResult r = recvFrame(raw.fd);
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.header.kind, MsgKind::ReplyError);
  const auto err = decodeErrorReply(r.payload);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::UnsupportedVersion);
  EXPECT_TRUE(recvFrame(raw.fd).eof);
}

TEST(Server, OversizedLengthPrefixIsRejectedBeforeAllocation) {
  ServerOptions opts;
  opts.maxPayloadBytes = 4096;
  TestServer ts(opts);
  ASSERT_NE(ts.server, nullptr);
  RawConn raw(ts.socketPath);
  ASSERT_GE(raw.fd, 0);
  FrameHeader h;
  h.kind = MsgKind::Hello;
  h.payloadBytes = ~0ull;  // 16 EiB — must be refused without allocating
  const std::vector<std::uint8_t> bytes = encodeFrameHeader(h);
  ASSERT_TRUE(raw.sendBytes(bytes.data(), bytes.size()));
  const RecvResult r = recvFrame(raw.fd);
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.header.kind, MsgKind::ReplyError);
  const auto err = decodeErrorReply(r.payload);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::OversizedFrame);
}

TEST(Server, TruncatedFrameDisconnectIsHandled) {
  TestServer ts;
  ASSERT_NE(ts.server, nullptr);
  {
    // Half a header, then vanish.
    RawConn raw(ts.socketPath);
    ASSERT_GE(raw.fd, 0);
    const std::vector<std::uint8_t> bytes =
        encodeFrameHeader(FrameHeader{});
    ASSERT_TRUE(raw.sendBytes(bytes.data(), bytes.size() / 2));
  }
  {
    // Full header promising a payload that never arrives, then vanish.
    RawConn raw(ts.socketPath);
    ASSERT_GE(raw.fd, 0);
    FrameHeader h;
    h.kind = MsgKind::Hello;
    h.payloadBytes = 100;
    const std::vector<std::uint8_t> bytes = encodeFrameHeader(h);
    ASSERT_TRUE(raw.sendBytes(bytes.data(), bytes.size()));
  }
  // Both connections died mid-frame; the daemon must not care.
  auto probe = Client::connect(ts.socketPath, "probe");
  ASSERT_NE(probe, nullptr);
  const Result<StatsReply> stats = probe->stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->server.framingErrors, 1u);
}

TEST(Server, UndecodablePayloadKeepsSessionOpen) {
  TestServer ts;
  ASSERT_NE(ts.server, nullptr);
  RawConn raw(ts.socketPath);
  ASSERT_GE(raw.fd, 0);
  ASSERT_TRUE(raw.hello());

  // A well-framed Measure whose payload is garbage: payload-level error,
  // and the frame boundary is intact so the session continues.
  const std::vector<std::uint8_t> junk = {0xDE, 0xAD, 0xBE, 0xEF};
  ASSERT_TRUE(sendFrame(raw.fd, MsgKind::Measure, junk));
  const RecvResult r = recvFrame(raw.fd);
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.header.kind, MsgKind::ReplyError);
  const auto err = decodeErrorReply(r.payload);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::MalformedFrame);

  // Same socket, valid request: still served.
  ASSERT_TRUE(sendFrame(raw.fd, MsgKind::Stats, {}));
  const RecvResult stats = recvFrame(raw.fd);
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.header.kind, MsgKind::ReplyStats);
}

TEST(Server, UnknownKindAndPreHelloWorkAreProtocolErrors) {
  TestServer ts;
  ASSERT_NE(ts.server, nullptr);
  {
    RawConn raw(ts.socketPath);
    ASSERT_GE(raw.fd, 0);
    // Work before Hello: the session has no tenant yet.
    ASSERT_TRUE(sendFrame(raw.fd, MsgKind::Measure,
                          encodeMeasureRequest(adiRequest())));
    const RecvResult r = recvFrame(raw.fd);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.header.kind, MsgKind::ReplyError);
    const auto err = decodeErrorReply(r.payload);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, ErrorCode::ProtocolViolation);
  }
  {
    RawConn raw(ts.socketPath);
    ASSERT_GE(raw.fd, 0);
    ASSERT_TRUE(raw.hello());
    ASSERT_TRUE(sendFrame(raw.fd, static_cast<MsgKind>(77), {}));
    const RecvResult r = recvFrame(raw.fd);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.header.kind, MsgKind::ReplyError);
    const auto err = decodeErrorReply(r.payload);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, ErrorCode::UnknownKind);
  }
}

TEST(Server, UnknownAppIsBadRequestNotACrash) {
  TestServer ts;
  ASSERT_NE(ts.server, nullptr);
  auto client = Client::connect(ts.socketPath, "t1");
  ASSERT_NE(client, nullptr);
  MeasureRequest req = adiRequest();
  req.spec.app = "NotAnApp";
  const Result<Measurement> r = client->measure(req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error, ErrorCode::BadRequest);
  // Session survives the rejection.
  EXPECT_TRUE(client->stats().ok());
}

TEST(Server, FuzzedFramesNeverKillTheDaemon) {
  TestServer ts;
  ASSERT_NE(ts.server, nullptr);
  std::uint64_t lcg = 0xDA3E39CB94B95BDBull;
  for (int round = 0; round < 60; ++round) {
    RawConn raw(ts.socketPath, /*recvTimeoutMs=*/300);
    if (raw.fd < 0) continue;  // accept backlog churn; next round retries
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(1 + (round * 13) % 96));
    for (std::uint8_t& b : bytes) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      b = static_cast<std::uint8_t>(lcg >> 56);
    }
    // Half the rounds start with a valid magic+version so the fuzz reaches
    // the kind/length/payload layers instead of dying on the magic check.
    if (round % 2 == 0 && bytes.size() >= 8) {
      const std::uint32_t magic = kFrameMagic, version = kProtocolVersion;
      std::memcpy(bytes.data(), &magic, 4);
      std::memcpy(bytes.data() + 4, &version, 4);
    }
    (void)raw.sendBytes(bytes.data(), bytes.size());
    (void)recvFrame(raw.fd);  // whatever comes back, if anything
  }
  // The proof: a fresh client still gets real service.
  auto probe = Client::connect(ts.socketPath, "probe");
  ASSERT_NE(probe, nullptr);
  EXPECT_TRUE(probe->stats().ok());
}

// --- drain ----------------------------------------------------------------

TEST(Server, DrainFinishesInFlightWorkAndRefusesNewWork) {
  TestServer ts;
  ASSERT_NE(ts.server, nullptr);

  // Launch a cold request, then drain while it computes.
  bool replyOk = false;
  std::thread worker([&] {
    auto c = Client::connect(ts.socketPath, "in-flight");
    if (c == nullptr) return;
    const Result<Measurement> r = c->measure(adiRequest(64));
    replyOk = r.ok() || r.error == ErrorCode::ShuttingDown;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ts.server->drainAndStop();
  worker.join();
  EXPECT_TRUE(replyOk) << "in-flight request lost its reply";

  // Fully stopped: new connections fail outright.
  EXPECT_EQ(connectAddress(ts.socketPath), -1);
}

TEST(Server, DoubleDrainAndDestructionAreIdempotent) {
  TestServer ts;
  ASSERT_NE(ts.server, nullptr);
  ts.server->drainAndStop();
  ts.server->drainAndStop();  // second call is a no-op
  ts.server.reset();          // destructor after explicit drain: no-op too
  SUCCEED();
}

TEST(Server, StatsServedWhileDrainingReportsDraining) {
  // Stats is the observability ping: it must answer even mid-drain.  Use a
  // session opened *before* the drain begins (new connections are refused).
  TestServer ts;
  ASSERT_NE(ts.server, nullptr);
  auto client = Client::connect(ts.socketPath, "watcher");
  ASSERT_NE(client, nullptr);

  std::thread slow([&] {
    auto c = Client::connect(ts.socketPath, "slowpoke");
    if (c != nullptr) (void)c->measure(adiRequest(72));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  std::thread drainer([&] { ts.server->drainAndStop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const Result<StatsReply> stats = client->stats();
  if (stats.ok()) EXPECT_TRUE(stats->server.draining);
  client.reset();  // unblock the drain's half-close handshake
  drainer.join();
  slow.join();
}

}  // namespace
}  // namespace gcr::server
