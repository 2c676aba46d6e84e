#include "server/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "analysis/legality.hpp"
#include "apps/registry.hpp"
#include "ir/diagnostic.hpp"
#include "store/codec.hpp"
#include "support/assert.hpp"

namespace gcr::server {

namespace {

constexpr const char* kServerName = "gcr-server/1";

/// One accepted session.  fd mutation (close from the owning thread,
/// SHUT_RD from the drain path) is serialized by the server's connection
/// mutex so a recycled descriptor is never touched.
struct Connection {
  int fd = -1;
  std::thread thread;
  std::atomic<bool> done{false};
};

struct TenantState {
  std::uint64_t admitted = 0;
  std::uint64_t busyRejected = 0;
  int inflight = 0;
};

}  // namespace

struct Server::Impl {
  ServerOptions opts;
  Engine engine;

  int unixFd = -1;
  int tcpFd = -1;
  int boundTcpPort = -1;
  int wakePipe[2] = {-1, -1};

  std::thread acceptThread;
  std::atomic<bool> draining{false};
  std::atomic<bool> stopped{false};

  mutable std::mutex mutex;  // connections + counters + tenants
  std::vector<std::shared_ptr<Connection>> connections;
  ServerCounters counters;
  int globalInflight = 0;
  std::map<std::string, TenantState> tenants;

  explicit Impl(ServerOptions o) : opts(std::move(o)), engine(opts.engine) {
    if (opts.maxConnections < 0) opts.maxConnections = 0;
    if (opts.maxRequestsInFlight < 0) opts.maxRequestsInFlight = 0;
    if (opts.maxInFlightPerTenant < 0) opts.maxInFlightPerTenant = 0;
  }

  // --- admission ------------------------------------------------------------

  /// RAII admission ticket; valid() == admitted.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Impl* impl, std::string tenant)
        : impl_(impl), tenant_(std::move(tenant)) {}
    Ticket(Ticket&& o) noexcept
        : impl_(std::exchange(o.impl_, nullptr)),
          tenant_(std::move(o.tenant_)) {}
    Ticket& operator=(Ticket&&) = delete;
    ~Ticket() {
      if (impl_ == nullptr) return;
      std::lock_guard<std::mutex> lock(impl_->mutex);
      --impl_->globalInflight;
      --impl_->tenants[tenant_].inflight;
    }
    bool valid() const { return impl_ != nullptr; }

   private:
    Impl* impl_ = nullptr;
    std::string tenant_;
  };

  Ticket tryAdmit(const std::string& tenant) {
    std::lock_guard<std::mutex> lock(mutex);
    TenantState& t = tenants[tenant];
    if (globalInflight >= opts.maxRequestsInFlight ||
        t.inflight >= opts.maxInFlightPerTenant) {
      ++t.busyRejected;
      ++counters.requestsBusyRejected;
      return Ticket();
    }
    ++globalInflight;
    ++t.inflight;
    ++t.admitted;
    ++counters.requestsAdmitted;
    return Ticket(this, tenant);
  }

  // --- replies --------------------------------------------------------------

  bool reply(int fd, MsgKind kind, std::span<const std::uint8_t> payload) {
    const bool ok = sendFrame(fd, kind, payload);
    std::lock_guard<std::mutex> lock(mutex);
    if (ok) ++counters.repliesSent;
    return ok;
  }

  bool replyError(int fd, ErrorCode code, const std::string& message) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (code != ErrorCode::Busy) ++counters.requestsErrored;
    }
    return reply(fd, MsgKind::ReplyError,
                 encodeErrorReply(ErrorReply{code, message}));
  }

  // --- request handlers -----------------------------------------------------

  /// Resolve the request's program + version through the shared Engine.
  /// Throws gcr::Error (unknown app) — mapped to BadRequest by the caller.
  ProgramVersion versionFor(const WorkSpec& spec) {
    const Program p = apps::buildApp(spec.app);
    return engine.version(p, spec.strategy, spec.versionSpec());
  }

  bool handleOptimize(int fd, std::span<const std::uint8_t> payload) {
    const std::optional<OptimizeRequest> req = decodeOptimizeRequest(payload);
    if (!req)
      return replyError(fd, ErrorCode::MalformedFrame,
                        "undecodable optimize request");
    const Program p = apps::buildApp(req->spec.app);
    const PipelineResult result = engine.pipeline(
        p, pipelineOptionsFor(req->spec.strategy, req->spec.versionSpec()));
    return reply(fd, MsgKind::ReplyOptimize,
                 store::encodePipelineResult(result));
  }

  bool handleMeasure(int fd, std::span<const std::uint8_t> payload) {
    const std::optional<MeasureRequest> req = decodeMeasureRequest(payload);
    if (!req)
      return replyError(fd, ErrorCode::MalformedFrame,
                        "undecodable measure request");
    if (req->n <= 0 || req->machine.l1.sizeBytes <= 0 ||
        req->machine.l1.lineSize <= 0 || req->machine.l1.ways <= 0 ||
        req->machine.l2.sizeBytes <= 0 || req->machine.l2.lineSize <= 0 ||
        req->machine.l2.ways <= 0 || req->machine.pageSize <= 0 ||
        req->machine.tlbEntries <= 0)
      return replyError(fd, ErrorCode::BadRequest,
                        "non-positive problem size or machine geometry");
    const ProgramVersion v = versionFor(req->spec);
    const Measurement m =
        engine.measure(v, req->n, req->machine, req->timeSteps, req->cost);
    return reply(fd, MsgKind::ReplyMeasure, store::encodeMeasurement(m));
  }

  bool handleProfile(int fd, std::span<const std::uint8_t> payload) {
    const std::optional<ProfileRequest> req = decodeProfileRequest(payload);
    if (!req)
      return replyError(fd, ErrorCode::MalformedFrame,
                        "undecodable profile request");
    if (req->n <= 0)
      return replyError(fd, ErrorCode::BadRequest, "non-positive problem size");
    const ProgramVersion v = versionFor(req->spec);
    const ReuseProfile p = engine.reuseProfile(v, req->n, req->timeSteps);
    return reply(fd, MsgKind::ReplyProfile, store::encodeReuseProfile(p));
  }

  bool handleMulticore(int fd, std::span<const std::uint8_t> payload) {
    const std::optional<MulticoreRequest> req =
        decodeMulticoreRequest(payload);
    if (!req)
      return replyError(fd, ErrorCode::MalformedFrame,
                        "undecodable multicore request");
    const CacheTopology& t = req->topology;
    if (req->n <= 0 || t.cores < 1 || t.l1.sizeBytes <= 0 ||
        t.l1.lineSize <= 0 || t.l1.ways <= 0 || t.l2.sizeBytes <= 0 ||
        t.l2.lineSize <= 0 || t.l2.ways <= 0 || t.llc.sizeBytes <= 0 ||
        t.llc.lineSize <= 0 || t.llc.ways <= 0)
      return replyError(fd, ErrorCode::BadRequest,
                        "non-positive problem size or topology geometry");
    const ProgramVersion v = versionFor(req->spec);
    const MulticoreProfile mp =
        engine.multicoreProfile(v, req->n, t, req->timeSteps);
    return reply(fd, MsgKind::ReplyMulticore,
                 store::encodeMulticoreProfile(mp));
  }

  bool handleVerify(int fd, std::span<const std::uint8_t> payload) {
    const std::optional<VerifyRequest> req = decodeVerifyRequest(payload);
    if (!req)
      return replyError(fd, ErrorCode::MalformedFrame,
                        "undecodable verify request");
    const Program p = apps::buildApp(req->app);
    VerifyOptions vo;
    vo.minN = req->minN;
    const std::vector<Diagnostic> diags =
        verifyProgram(p, req->app, vo).diags;
    VerifyReply out;
    for (const Diagnostic& d : diags) {
      if (d.severity == Severity::Error)
        ++out.errors;
      else if (d.severity == Severity::Warning)
        ++out.warnings;
      else
        ++out.notes;
      out.diagnostics.push_back(d.format());
    }
    return reply(fd, MsgKind::ReplyVerify, encodeVerifyReply(out));
  }

  bool handleStats(int fd) {
    StatsReply out;
    out.engine = engine.stats();
    out.cacheDir = engine.cacheDirInUse();
    {
      std::lock_guard<std::mutex> lock(mutex);
      out.server = counters;
      out.server.draining = draining.load();
      for (const auto& [name, t] : tenants)
        out.tenants.push_back(TenantStats{name, t.admitted, t.busyRejected});
    }
    return reply(fd, MsgKind::ReplyStats, encodeStatsReply(out));
  }

  /// One well-framed request.  Returns false when the connection must close
  /// (reply write failed).
  bool handleFrame(int fd, const FrameHeader& h,
                   std::span<const std::uint8_t> payload,
                   std::string& tenant) {
    // Session establishment: Hello must precede everything else.
    if (h.kind == MsgKind::Hello) {
      const std::optional<HelloRequest> req = decodeHelloRequest(payload);
      if (!req || req->tenant.empty())
        return replyError(fd, ErrorCode::MalformedFrame,
                          "hello requires a non-empty tenant");
      tenant = req->tenant;
      HelloReply hr;
      hr.serverName = kServerName;
      return reply(fd, MsgKind::ReplyHello, encodeHelloReply(hr));
    }
    if (tenant.empty())
      return replyError(fd, ErrorCode::ProtocolViolation,
                        "first frame must be hello");
    if (h.kind == MsgKind::Stats) return handleStats(fd);  // always served

    const bool isWork =
        h.kind == MsgKind::Optimize || h.kind == MsgKind::Measure ||
        h.kind == MsgKind::Profile || h.kind == MsgKind::Verify ||
        h.kind == MsgKind::Multicore;
    if (!isWork)
      return replyError(fd, ErrorCode::UnknownKind, "unrecognized frame kind");
    if (draining.load())
      return replyError(fd, ErrorCode::ShuttingDown, "server is draining");
    const Ticket ticket = tryAdmit(tenant);
    if (!ticket.valid())
      return replyError(fd, ErrorCode::Busy,
                        "in-flight limit reached; retry later");
    try {
      switch (h.kind) {
        case MsgKind::Optimize: return handleOptimize(fd, payload);
        case MsgKind::Measure: return handleMeasure(fd, payload);
        case MsgKind::Profile: return handleProfile(fd, payload);
        case MsgKind::Verify: return handleVerify(fd, payload);
        case MsgKind::Multicore: return handleMulticore(fd, payload);
        default: break;  // unreachable; isWork filtered above
      }
    } catch (const Error& e) {
      // gcr::Error here is a semantic rejection (unknown app name, invalid
      // program) — the daemon is healthy and the session continues.
      return replyError(fd, ErrorCode::BadRequest, e.what());
    } catch (const std::exception& e) {
      return replyError(fd, ErrorCode::EngineFailure, e.what());
    }
    return false;
  }

  // --- connection loop ------------------------------------------------------

  void serveConnection(const std::shared_ptr<Connection>& conn) {
    std::string tenant;
    const int fd = conn->fd;
    for (;;) {
      const RecvResult r = recvFrame(fd, opts.maxPayloadBytes);
      if (r.ok) {
        if (!handleFrame(fd, r.header, r.payload, tenant)) break;
        continue;
      }
      if (!r.eof) {
        // The byte stream is unsynchronized (bad magic, foreign version,
        // oversized length, or EOF mid-frame): answer what we can and
        // close — resynchronizing an untrusted stream is not attempted.
        {
          std::lock_guard<std::mutex> lock(mutex);
          ++counters.framingErrors;
        }
        if (r.badMagic)
          replyError(fd, ErrorCode::MalformedFrame, "bad frame magic");
        else if (r.badVersion)
          replyError(fd, ErrorCode::UnsupportedVersion,
                     "unsupported protocol version");
        else if (r.oversized)
          replyError(fd, ErrorCode::OversizedFrame,
                     "frame exceeds payload limit");
        // r.truncated: the peer is gone mid-frame; nothing to reply to.
      }
      break;
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      ::close(conn->fd);
      conn->fd = -1;
    }
    conn->done.store(true);
  }

  // --- accept loop ----------------------------------------------------------

  void reapFinishedLocked() {
    for (auto it = connections.begin(); it != connections.end();) {
      if ((*it)->done.load() && (*it)->thread.joinable()) {
        (*it)->thread.join();
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
  }

  void handleAccept(int listenFd) {
    const int fd = ::accept4(listenFd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) return;
    std::lock_guard<std::mutex> lock(mutex);
    reapFinishedLocked();
    if (draining.load() ||
        connections.size() >=
            static_cast<std::size_t>(opts.maxConnections)) {
      ++counters.connectionsRejected;
      sendFrame(fd, MsgKind::ReplyError,
                encodeErrorReply(ErrorReply{
                    draining.load() ? ErrorCode::ShuttingDown
                                    : ErrorCode::Busy,
                    "connection limit reached"}));
      ::close(fd);
      return;
    }
    ++counters.connectionsAccepted;
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->thread = std::thread([this, conn] { serveConnection(conn); });
    connections.push_back(conn);
  }

  void acceptLoop() {
    for (;;) {
      pollfd fds[3];
      nfds_t n = 0;
      int unixIdx = -1, tcpIdx = -1;
      if (unixFd >= 0) {
        unixIdx = static_cast<int>(n);
        fds[n++] = {unixFd, POLLIN, 0};
      }
      if (tcpFd >= 0) {
        tcpIdx = static_cast<int>(n);
        fds[n++] = {tcpFd, POLLIN, 0};
      }
      fds[n++] = {wakePipe[0], POLLIN, 0};
      if (::poll(fds, n, -1) < 0) {
        if (errno == EINTR) continue;
        return;
      }
      if (fds[n - 1].revents != 0) return;  // woken for shutdown
      if (unixIdx >= 0 && (fds[unixIdx].revents & POLLIN) != 0)
        handleAccept(unixFd);
      if (tcpIdx >= 0 && (fds[tcpIdx].revents & POLLIN) != 0)
        handleAccept(tcpFd);
    }
  }

  // --- lifecycle ------------------------------------------------------------

  void drainAndStop() {
    if (stopped.exchange(true)) return;
    draining.store(true);
    // Wake the acceptor; best-effort (the pipe cannot meaningfully fill).
    const char byte = 1;
    (void)!::write(wakePipe[1], &byte, 1);
    if (acceptThread.joinable()) acceptThread.join();
    if (unixFd >= 0) ::close(unixFd);
    if (tcpFd >= 0) ::close(tcpFd);
    if (!opts.unixSocketPath.empty()) ::unlink(opts.unixSocketPath.c_str());

    // Half-close every live session: reads wind down (a blocked read wakes
    // with EOF), writes stay open so in-flight replies still flush.
    std::vector<std::shared_ptr<Connection>> conns;
    {
      std::lock_guard<std::mutex> lock(mutex);
      conns = connections;
      for (const auto& c : conns)
        if (c->fd >= 0) ::shutdown(c->fd, SHUT_RD);
    }
    for (const auto& c : conns)
      if (c->thread.joinable()) c->thread.join();
    {
      std::lock_guard<std::mutex> lock(mutex);
      connections.clear();
    }
    // The persistent store needs no flush: every publication is synchronous
    // and individually crash-safe (write-temp-fsync-rename).
  }

  ~Impl() {
    drainAndStop();
    if (wakePipe[0] >= 0) ::close(wakePipe[0]);
    if (wakePipe[1] >= 0) ::close(wakePipe[1]);
  }
};

Server::Server() = default;

std::unique_ptr<Server> Server::start(ServerOptions opts) {
  if (opts.unixSocketPath.empty() && opts.tcpPort < 0) return nullptr;
  auto impl = std::make_unique<Impl>(std::move(opts));

  if (::pipe(impl->wakePipe) != 0) return nullptr;
  if (!impl->opts.unixSocketPath.empty()) {
    impl->unixFd = listenUnix(impl->opts.unixSocketPath);
    if (impl->unixFd < 0) return nullptr;
  }
  if (impl->opts.tcpPort >= 0) {
    impl->tcpFd = listenTcp(impl->opts.tcpPort, &impl->boundTcpPort);
    if (impl->tcpFd < 0) return nullptr;
  }

  impl->acceptThread = std::thread([i = impl.get()] { i->acceptLoop(); });
  std::unique_ptr<Server> s(new Server());
  s->impl_ = std::move(impl);
  return s;
}

void Server::drainAndStop() { impl_->drainAndStop(); }

Server::~Server() = default;

ServerCounters Server::counters() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  ServerCounters c = impl_->counters;
  c.draining = impl_->draining.load();
  return c;
}

Engine::Stats Server::engineStats() const { return impl_->engine.stats(); }

std::string Server::cacheDir() const { return impl_->engine.cacheDirInUse(); }

int Server::tcpPort() const { return impl_->boundTcpPort; }

}  // namespace gcr::server
