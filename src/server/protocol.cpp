#include "server/protocol.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "support/assert.hpp"

namespace gcr::server {

namespace {

// Every payload codec writes a leading version word, mirroring the store
// codecs: payload encodings can evolve independently of the frame format.
// v2: StatsReply gained the symbolic-profile cache counters.
// v3: MulticoreRequest added; StatsReply gained the multicore cache
//     counters.
// v4: StatsReply dropped the native-tier counters.
constexpr std::uint32_t kCodecVersion = 4;

/// Decode wrapper: version word, body, exact-length check, gcr::Error →
/// nullopt.  The ByteReader bounds-checks every access, so arbitrary byte
/// soup can fail but never over-read.
template <typename T, typename Body>
std::optional<T> decodeWith(std::span<const std::uint8_t> bytes, Body&& body) {
  try {
    ByteReader r(bytes);
    if (r.u32() != kCodecVersion) return std::nullopt;
    T value = body(r);
    if (!r.atEnd()) return std::nullopt;  // trailing bytes are corruption
    return value;
  } catch (const Error&) {
    return std::nullopt;
  }
}

void putCacheConfig(ByteWriter& w, const CacheConfig& c) {
  w.i64(c.sizeBytes).i64(c.lineSize).u32(static_cast<std::uint32_t>(c.ways));
  w.str(c.name);
}

CacheConfig getCacheConfig(ByteReader& r) {
  CacheConfig c;
  c.sizeBytes = r.i64();
  c.lineSize = r.i64();
  c.ways = static_cast<int>(r.u32());
  c.name = r.str();
  return c;
}

void putMachine(ByteWriter& w, const MachineConfig& m) {
  putCacheConfig(w, m.l1);
  putCacheConfig(w, m.l2);
  w.u32(static_cast<std::uint32_t>(m.tlbEntries));
  w.i64(m.pageSize);
  w.b(m.l2NextLinePrefetch);
  w.str(m.name);
}

MachineConfig getMachine(ByteReader& r) {
  MachineConfig m;
  m.l1 = getCacheConfig(r);
  m.l2 = getCacheConfig(r);
  m.tlbEntries = static_cast<int>(r.u32());
  m.pageSize = r.i64();
  m.l2NextLinePrefetch = r.b();
  m.name = r.str();
  return m;
}

void putCost(ByteWriter& w, const CostModel& c) {
  w.f64(c.refCost).f64(c.l1MissCost).f64(c.l2MissCost).f64(c.tlbMissCost);
}

CostModel getCost(ByteReader& r) {
  CostModel c;
  c.refCost = r.f64();
  c.l1MissCost = r.f64();
  c.l2MissCost = r.f64();
  c.tlbMissCost = r.f64();
  return c;
}

void putWorkSpec(ByteWriter& w, const WorkSpec& s) {
  w.str(s.app);
  w.u32(static_cast<std::uint32_t>(s.strategy));
  w.u32(static_cast<std::uint32_t>(s.fusionLevels));
  w.i64(s.padBytes);
}

std::optional<WorkSpec> getWorkSpec(ByteReader& r) {
  WorkSpec s;
  s.app = r.str();
  const std::uint32_t strategy = r.u32();
  if (strategy > static_cast<std::uint32_t>(Strategy::RegroupedOnly))
    return std::nullopt;
  s.strategy = static_cast<Strategy>(strategy);
  s.fusionLevels = static_cast<std::int32_t>(r.u32());
  s.padBytes = r.i64();
  return s;
}

void putTopology(ByteWriter& w, const CacheTopology& t) {
  w.u32(static_cast<std::uint32_t>(t.cores));
  w.u32(static_cast<std::uint32_t>(t.schedule));
  putCacheConfig(w, t.l1);
  putCacheConfig(w, t.l2);
  putCacheConfig(w, t.llc);
  w.str(t.name);
}

std::optional<CacheTopology> getTopology(ByteReader& r) {
  CacheTopology t;
  t.cores = static_cast<int>(r.u32());
  const std::uint32_t sched = r.u32();
  if (sched > static_cast<std::uint32_t>(ParallelSchedule::Cyclic))
    return std::nullopt;
  t.schedule = static_cast<ParallelSchedule>(sched);
  t.l1 = getCacheConfig(r);
  t.l2 = getCacheConfig(r);
  t.llc = getCacheConfig(r);
  t.name = r.str();
  return t;
}

void putCacheCounters(ByteWriter& w, const CacheCounters& c) {
  w.u64(c.hits).u64(c.misses).u64(c.evictions).u64(c.entries);
}

CacheCounters getCacheCounters(ByteReader& r) {
  CacheCounters c;
  c.hits = r.u64();
  c.misses = r.u64();
  c.evictions = r.u64();
  c.entries = r.u64();
  return c;
}

/// Read exactly n bytes; 1 = ok, 0 = clean EOF before any byte, -1 = error
/// or EOF mid-read.
int readAll(int fd, std::uint8_t* out, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got = ::recv(fd, out + done, n - done, 0);
    if (got == 0) return done == 0 ? 0 : -1;
    if (got < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    done += static_cast<std::size_t>(got);
  }
  return 1;
}

bool writeAll(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    // MSG_NOSIGNAL: a peer that closed mid-reply surfaces as EPIPE, never
    // as a process-killing SIGPIPE.
    const ssize_t put = ::send(fd, data + done, n - done, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(put);
  }
  return true;
}

}  // namespace

const char* errorCodeName(ErrorCode c) {
  switch (c) {
    case ErrorCode::MalformedFrame: return "malformed_frame";
    case ErrorCode::UnsupportedVersion: return "unsupported_version";
    case ErrorCode::OversizedFrame: return "oversized_frame";
    case ErrorCode::UnknownKind: return "unknown_kind";
    case ErrorCode::BadRequest: return "bad_request";
    case ErrorCode::Busy: return "busy";
    case ErrorCode::ShuttingDown: return "shutting_down";
    case ErrorCode::EngineFailure: return "engine_failure";
    case ErrorCode::ProtocolViolation: return "protocol_violation";
  }
  return "unknown";
}

std::vector<std::uint8_t> encodeFrameHeader(const FrameHeader& h) {
  ByteWriter w;
  w.u32(h.magic)
      .u32(h.version)
      .u32(static_cast<std::uint32_t>(h.kind))
      .u64(h.payloadBytes);
  return w.take();
}

std::optional<FrameHeader> decodeFrameHeader(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() != kFrameHeaderBytes) return std::nullopt;
  try {
    ByteReader r(bytes);
    FrameHeader h;
    h.magic = r.u32();
    if (h.magic != kFrameMagic) return std::nullopt;
    h.version = r.u32();
    h.kind = static_cast<MsgKind>(r.u32());
    h.payloadBytes = r.u64();
    return h;
  } catch (const Error&) {
    return std::nullopt;
  }
}

// --- request codecs ---------------------------------------------------------

std::vector<std::uint8_t> encodeHelloRequest(const HelloRequest& r) {
  ByteWriter w;
  w.u32(kCodecVersion).str(r.tenant);
  return w.take();
}

std::optional<HelloRequest> decodeHelloRequest(
    std::span<const std::uint8_t> bytes) {
  return decodeWith<HelloRequest>(bytes, [](ByteReader& r) {
    HelloRequest h;
    h.tenant = r.str();
    return h;
  });
}

std::vector<std::uint8_t> encodeOptimizeRequest(const OptimizeRequest& r) {
  ByteWriter w;
  w.u32(kCodecVersion);
  putWorkSpec(w, r.spec);
  return w.take();
}

std::optional<OptimizeRequest> decodeOptimizeRequest(
    std::span<const std::uint8_t> bytes) {
  try {
    ByteReader r(bytes);
    if (r.u32() != kCodecVersion) return std::nullopt;
    std::optional<WorkSpec> spec = getWorkSpec(r);
    if (!spec || !r.atEnd()) return std::nullopt;
    return OptimizeRequest{*spec};
  } catch (const Error&) {
    return std::nullopt;
  }
}

std::vector<std::uint8_t> encodeMeasureRequest(const MeasureRequest& r) {
  ByteWriter w;
  w.u32(kCodecVersion);
  putWorkSpec(w, r.spec);
  w.i64(r.n).u64(r.timeSteps);
  putMachine(w, r.machine);
  putCost(w, r.cost);
  return w.take();
}

std::optional<MeasureRequest> decodeMeasureRequest(
    std::span<const std::uint8_t> bytes) {
  try {
    ByteReader r(bytes);
    if (r.u32() != kCodecVersion) return std::nullopt;
    MeasureRequest m;
    std::optional<WorkSpec> spec = getWorkSpec(r);
    if (!spec) return std::nullopt;
    m.spec = std::move(*spec);
    m.n = r.i64();
    m.timeSteps = r.u64();
    m.machine = getMachine(r);
    m.cost = getCost(r);
    if (!r.atEnd()) return std::nullopt;
    return m;
  } catch (const Error&) {
    return std::nullopt;
  }
}

std::vector<std::uint8_t> encodeProfileRequest(const ProfileRequest& r) {
  ByteWriter w;
  w.u32(kCodecVersion);
  putWorkSpec(w, r.spec);
  w.i64(r.n).u64(r.timeSteps);
  return w.take();
}

std::optional<ProfileRequest> decodeProfileRequest(
    std::span<const std::uint8_t> bytes) {
  try {
    ByteReader r(bytes);
    if (r.u32() != kCodecVersion) return std::nullopt;
    ProfileRequest p;
    std::optional<WorkSpec> spec = getWorkSpec(r);
    if (!spec) return std::nullopt;
    p.spec = std::move(*spec);
    p.n = r.i64();
    p.timeSteps = r.u64();
    if (!r.atEnd()) return std::nullopt;
    return p;
  } catch (const Error&) {
    return std::nullopt;
  }
}

std::vector<std::uint8_t> encodeMulticoreRequest(const MulticoreRequest& r) {
  ByteWriter w;
  w.u32(kCodecVersion);
  putWorkSpec(w, r.spec);
  w.i64(r.n).u64(r.timeSteps);
  putTopology(w, r.topology);
  return w.take();
}

std::optional<MulticoreRequest> decodeMulticoreRequest(
    std::span<const std::uint8_t> bytes) {
  try {
    ByteReader r(bytes);
    if (r.u32() != kCodecVersion) return std::nullopt;
    MulticoreRequest m;
    std::optional<WorkSpec> spec = getWorkSpec(r);
    if (!spec) return std::nullopt;
    m.spec = std::move(*spec);
    m.n = r.i64();
    m.timeSteps = r.u64();
    std::optional<CacheTopology> topo = getTopology(r);
    if (!topo) return std::nullopt;
    m.topology = std::move(*topo);
    if (!r.atEnd()) return std::nullopt;
    return m;
  } catch (const Error&) {
    return std::nullopt;
  }
}

std::vector<std::uint8_t> encodeVerifyRequest(const VerifyRequest& r) {
  ByteWriter w;
  w.u32(kCodecVersion).str(r.app).i64(r.minN);
  return w.take();
}

std::optional<VerifyRequest> decodeVerifyRequest(
    std::span<const std::uint8_t> bytes) {
  return decodeWith<VerifyRequest>(bytes, [](ByteReader& r) {
    VerifyRequest v;
    v.app = r.str();
    v.minN = r.i64();
    return v;
  });
}

// --- reply codecs -----------------------------------------------------------

std::vector<std::uint8_t> encodeHelloReply(const HelloReply& r) {
  ByteWriter w;
  w.u32(kCodecVersion).u32(r.protocolVersion).str(r.serverName);
  return w.take();
}

std::optional<HelloReply> decodeHelloReply(
    std::span<const std::uint8_t> bytes) {
  return decodeWith<HelloReply>(bytes, [](ByteReader& r) {
    HelloReply h;
    h.protocolVersion = r.u32();
    h.serverName = r.str();
    return h;
  });
}

std::vector<std::uint8_t> encodeErrorReply(const ErrorReply& r) {
  ByteWriter w;
  w.u32(kCodecVersion).u32(static_cast<std::uint32_t>(r.code)).str(r.message);
  return w.take();
}

std::optional<ErrorReply> decodeErrorReply(
    std::span<const std::uint8_t> bytes) {
  return decodeWith<ErrorReply>(bytes, [](ByteReader& r) {
    ErrorReply e;
    e.code = static_cast<ErrorCode>(r.u32());
    e.message = r.str();
    return e;
  });
}

std::vector<std::uint8_t> encodeVerifyReply(const VerifyReply& r) {
  ByteWriter w;
  w.u32(kCodecVersion).u32(r.notes).u32(r.warnings).u32(r.errors);
  w.u64(r.diagnostics.size());
  for (const std::string& d : r.diagnostics) w.str(d);
  return w.take();
}

std::optional<VerifyReply> decodeVerifyReply(
    std::span<const std::uint8_t> bytes) {
  return decodeWith<VerifyReply>(bytes, [](ByteReader& r) {
    VerifyReply v;
    v.notes = r.u32();
    v.warnings = r.u32();
    v.errors = r.u32();
    const std::size_t count = r.seqLen(8);  // str = u64 prefix minimum
    v.diagnostics.reserve(count);
    for (std::size_t i = 0; i < count; ++i) v.diagnostics.push_back(r.str());
    return v;
  });
}

std::vector<std::uint8_t> encodeStatsReply(const StatsReply& r) {
  ByteWriter w;
  w.u32(kCodecVersion);
  w.u64(r.server.connectionsAccepted)
      .u64(r.server.connectionsRejected)
      .u64(r.server.requestsAdmitted)
      .u64(r.server.requestsBusyRejected)
      .u64(r.server.requestsErrored)
      .u64(r.server.framingErrors)
      .u64(r.server.repliesSent)
      .b(r.server.draining);
  w.u64(r.tenants.size());
  for (const TenantStats& t : r.tenants)
    w.str(t.tenant), w.u64(t.admitted).u64(t.busyRejected);
  putCacheCounters(w, r.engine.pipeline);
  putCacheCounters(w, r.engine.plan);
  putCacheCounters(w, r.engine.measurement);
  putCacheCounters(w, r.engine.profile);
  putCacheCounters(w, r.engine.symbolic);
  putCacheCounters(w, r.engine.multicore);
  w.u64(r.engine.inflightCoalesced);
  const store::StoreCounters& s = r.engine.store;
  w.u64(s.hits).u64(s.misses).u64(s.puts).u64(s.putFailures);
  w.u64(s.corruptRejected).u64(s.evictions).u64(s.bytesLoaded);
  w.u64(s.bytesStored);
  w.str(r.cacheDir);
  return w.take();
}

std::optional<StatsReply> decodeStatsReply(
    std::span<const std::uint8_t> bytes) {
  return decodeWith<StatsReply>(bytes, [](ByteReader& r) {
    StatsReply out;
    out.server.connectionsAccepted = r.u64();
    out.server.connectionsRejected = r.u64();
    out.server.requestsAdmitted = r.u64();
    out.server.requestsBusyRejected = r.u64();
    out.server.requestsErrored = r.u64();
    out.server.framingErrors = r.u64();
    out.server.repliesSent = r.u64();
    out.server.draining = r.b();
    const std::size_t tenants = r.seqLen(8 + 8 + 8);
    out.tenants.reserve(tenants);
    for (std::size_t i = 0; i < tenants; ++i) {
      TenantStats t;
      t.tenant = r.str();
      t.admitted = r.u64();
      t.busyRejected = r.u64();
      out.tenants.push_back(std::move(t));
    }
    out.engine.pipeline = getCacheCounters(r);
    out.engine.plan = getCacheCounters(r);
    out.engine.measurement = getCacheCounters(r);
    out.engine.profile = getCacheCounters(r);
    out.engine.symbolic = getCacheCounters(r);
    out.engine.multicore = getCacheCounters(r);
    out.engine.inflightCoalesced = r.u64();
    store::StoreCounters& s = out.engine.store;
    s.hits = r.u64();
    s.misses = r.u64();
    s.puts = r.u64();
    s.putFailures = r.u64();
    s.corruptRejected = r.u64();
    s.evictions = r.u64();
    s.bytesLoaded = r.u64();
    s.bytesStored = r.u64();
    out.cacheDir = r.str();
    return out;
  });
}

// --- socket transport -------------------------------------------------------

int listenUnix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  ::unlink(path.c_str());  // stale socket from a dead server
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, backlog) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int listenTcp(int port, int* boundPort, int backlog) {
  if (port < 0 || port > 65535) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, backlog) < 0) {
    ::close(fd);
    return -1;
  }
  if (boundPort != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
      ::close(fd);
      return -1;
    }
    *boundPort = ntohs(bound.sin_port);
  }
  return fd;
}

int connectAddress(const std::string& address) {
  if (address.rfind("tcp:", 0) == 0) {
    const std::string rest = address.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos) return -1;
    const std::string host = rest.substr(0, colon);
    const int port = std::atoi(rest.c_str() + colon + 1);
    if (port <= 0 || port > 65535) return -1;

    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (host.empty() || host == "localhost") {
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      return -1;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  const std::string path =
      address.rfind("unix:", 0) == 0 ? address.substr(5) : address;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool sendFrame(int fd, MsgKind kind, std::span<const std::uint8_t> payload) {
  FrameHeader h;
  h.kind = kind;
  h.payloadBytes = payload.size();
  const std::vector<std::uint8_t> header = encodeFrameHeader(h);
  if (!writeAll(fd, header.data(), header.size())) return false;
  return payload.empty() || writeAll(fd, payload.data(), payload.size());
}

RecvResult recvFrame(int fd, std::uint64_t maxPayloadBytes) {
  RecvResult out;
  std::uint8_t header[kFrameHeaderBytes];
  const int got = readAll(fd, header, sizeof(header));
  if (got == 0) {
    out.eof = true;
    return out;
  }
  if (got < 0) {
    out.truncated = true;
    return out;
  }
  const std::optional<FrameHeader> h =
      decodeFrameHeader(std::span<const std::uint8_t>(header, sizeof(header)));
  if (!h) {
    out.badMagic = true;
    return out;
  }
  out.header = *h;
  if (h->version != kProtocolVersion) {
    out.badVersion = true;
    return out;
  }
  if (h->payloadBytes > maxPayloadBytes) {
    out.oversized = true;  // rejected before any allocation
    return out;
  }
  out.payload.resize(static_cast<std::size_t>(h->payloadBytes));
  if (!out.payload.empty() &&
      readAll(fd, out.payload.data(), out.payload.size()) != 1) {
    out.payload.clear();
    out.truncated = true;
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace gcr::server
