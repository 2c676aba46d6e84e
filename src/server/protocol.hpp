// Wire protocol of the gcr optimization service (DESIGN.md §8).
//
// Every message in either direction is one *frame*: a fixed 20-byte header
// followed by a payload encoded with the store's deterministic binary
// primitives (support/serialize.hpp):
//
//   offset  size  field
//        0     4  magic "GCRF" (LE u32 0x46524347)
//        4     4  protocolVersion (LE)        — kProtocolVersion
//        8     4  kind (LE)                   — MsgKind
//       12     8  payloadBytes (LE)           — bytes following the header
//       20     …  payload (per-kind codec below)
//
// Framing errors (bad magic, unknown version, payload larger than the
// server's limit, EOF mid-frame) leave the byte stream unsynchronized, so
// the peer replies with an Error frame where possible and CLOSES the
// connection.  Payload-level errors (a well-framed request that fails to
// decode, an unknown request kind, an unknown app name) keep the connection
// open: the frame boundary is intact, so the server replies with an Error
// frame and reads the next frame.  No client byte sequence may crash or
// wedge the daemon — tests/server/ fuzzes exactly this contract.
//
// Result payloads (Measurement, ReuseProfile, PipelineResult,
// MulticoreProfile) reuse the persistent store's canonical codecs
// (store/codec.hpp) verbatim, so a reply is byte-identical to what an
// in-process Engine run would have serialized — tests/server/server_test.cpp
// pins this for every result kind, and that a warm duplicate replays the
// first reply's bytes.
//
// The protocol is versioned by rejection, like the store format: a server
// never interprets frames of another protocolVersion — it replies
// ErrorCode::UnsupportedVersion (always encoded at version kProtocolVersion)
// and closes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cachesim/hierarchy.hpp"
#include "driver/measure.hpp"
#include "driver/pipeline.hpp"
#include "engine/engine.hpp"
#include "support/serialize.hpp"

namespace gcr::server {

inline constexpr std::uint32_t kFrameMagic = 0x46524347u;  // "GCRF" LE
inline constexpr std::uint32_t kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 20;
/// Default per-frame payload ceiling; a length prefix beyond the limit is
/// rejected *before* any allocation or read.
inline constexpr std::uint64_t kMaxPayloadBytes = 16ull << 20;

/// Frame kinds.  Requests are < 100, replies >= 100; ReplyError may answer
/// any request.
enum class MsgKind : std::uint32_t {
  Hello = 1,     ///< first frame of every session: tenant id
  Optimize = 2,  ///< run the pipeline; reply carries a full PipelineResult
  Measure = 3,   ///< optimize + simulate; reply carries a Measurement
  Profile = 4,   ///< optimize + reuse profile; reply carries a ReuseProfile
  Verify = 5,    ///< static legality lint; reply carries diagnostics
  Stats = 6,     ///< engine/store/server counters snapshot
  Multicore = 7, ///< optimize + multicore locality analysis; reply carries
                 ///< a MulticoreProfile (ArtifactKind::MulticoreProfile)

  ReplyHello = 101,
  ReplyOptimize = 102,
  ReplyMeasure = 103,
  ReplyProfile = 104,
  ReplyVerify = 105,
  ReplyStats = 106,
  ReplyMulticore = 107,
  ReplyError = 199,
};

enum class ErrorCode : std::uint32_t {
  MalformedFrame = 1,      ///< header or payload failed to decode
  UnsupportedVersion = 2,  ///< protocolVersion != kProtocolVersion
  OversizedFrame = 3,      ///< payloadBytes beyond the server's limit
  UnknownKind = 4,         ///< well-framed but unrecognized MsgKind
  BadRequest = 5,          ///< decoded fine, semantically invalid (e.g.
                           ///< unknown app or strategy)
  Busy = 6,                ///< admission refused: queue or tenant limit
  ShuttingDown = 7,        ///< server is draining; no new work admitted
  EngineFailure = 8,       ///< the Engine threw while computing
  ProtocolViolation = 9,   ///< e.g. a work request before Hello
};

const char* errorCodeName(ErrorCode c);

struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint32_t version = kProtocolVersion;
  MsgKind kind = MsgKind::Hello;
  std::uint64_t payloadBytes = 0;
};

/// Serialize a header into its fixed 20-byte wire form.
std::vector<std::uint8_t> encodeFrameHeader(const FrameHeader& h);

/// Parse a header; nullopt when `bytes` is not exactly kFrameHeaderBytes or
/// the magic does not match.  Version and size policy are the caller's.
std::optional<FrameHeader> decodeFrameHeader(
    std::span<const std::uint8_t> bytes);

// --- request payloads -------------------------------------------------------

struct HelloRequest {
  std::string tenant;  ///< per-tenant accounting key; must be non-empty
};

/// What to optimize and how — the (program, strategy) half of every work
/// request.  Programs are named against the bundled registry
/// (apps::buildApp); fusion/regroup options beyond the VersionSpec fields
/// below take their defaults, exactly as Engine::version() does.
struct WorkSpec {
  std::string app;  ///< registry name ("ADI", "Swim", ...)
  Strategy strategy = Strategy::NoOpt;
  std::int32_t fusionLevels = 8;
  std::int64_t padBytes = 1056;  ///< SgiLike inter-array pad

  VersionSpec versionSpec() const {
    VersionSpec s;
    s.fusionLevels = fusionLevels;
    s.padBytes = padBytes;
    return s;
  }
};

struct OptimizeRequest {
  WorkSpec spec;
};

struct MeasureRequest {
  WorkSpec spec;
  std::int64_t n = 16;
  std::uint64_t timeSteps = 1;
  MachineConfig machine;
  CostModel cost;
};

struct ProfileRequest {
  WorkSpec spec;
  std::int64_t n = 16;
  std::uint64_t timeSteps = 1;
};

struct VerifyRequest {
  std::string app;
  std::int64_t minN = 16;
};

/// Optimize + multicore locality analysis under a CMP topology (private
/// L1/L2 per core, shared LLC; see locality/multicore.hpp).
struct MulticoreRequest {
  WorkSpec spec;
  std::int64_t n = 16;
  std::uint64_t timeSteps = 1;
  CacheTopology topology = CacheTopology::symmetric(2);
};

// Stats and Hello replies carry no request payload beyond the above.

// --- reply payloads ---------------------------------------------------------

struct HelloReply {
  std::uint32_t protocolVersion = kProtocolVersion;
  std::string serverName;  ///< "gcr-server/<version>", for logs
};

struct ErrorReply {
  ErrorCode code = ErrorCode::MalformedFrame;
  std::string message;
};

struct VerifyReply {
  std::uint32_t notes = 0;
  std::uint32_t warnings = 0;
  std::uint32_t errors = 0;
  std::vector<std::string> diagnostics;  ///< Diagnostic::format() lines
};

/// Per-tenant admission accounting, as reported by Stats.
struct TenantStats {
  std::string tenant;
  std::uint64_t admitted = 0;
  std::uint64_t busyRejected = 0;
};

/// Server-level counters (the Engine's own counters ride along separately).
struct ServerCounters {
  std::uint64_t connectionsAccepted = 0;
  std::uint64_t connectionsRejected = 0;  ///< over maxConnections
  std::uint64_t requestsAdmitted = 0;
  std::uint64_t requestsBusyRejected = 0;
  std::uint64_t requestsErrored = 0;   ///< Error replies other than Busy
  std::uint64_t framingErrors = 0;     ///< connections dropped out of sync
  std::uint64_t repliesSent = 0;
  bool draining = false;
};

struct StatsReply {
  ServerCounters server;
  std::vector<TenantStats> tenants;
  Engine::Stats engine;
  std::string cacheDir;  ///< persistent store directory ("" = memory only)
};

// --- payload codecs ---------------------------------------------------------
// Deterministic, defensive: decode() of arbitrary bytes returns nullopt
// (never throws, never over-reads); trailing bytes are rejected.

std::vector<std::uint8_t> encodeHelloRequest(const HelloRequest& r);
std::optional<HelloRequest> decodeHelloRequest(
    std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encodeOptimizeRequest(const OptimizeRequest& r);
std::optional<OptimizeRequest> decodeOptimizeRequest(
    std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encodeMeasureRequest(const MeasureRequest& r);
std::optional<MeasureRequest> decodeMeasureRequest(
    std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encodeProfileRequest(const ProfileRequest& r);
std::optional<ProfileRequest> decodeProfileRequest(
    std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encodeVerifyRequest(const VerifyRequest& r);
std::optional<VerifyRequest> decodeVerifyRequest(
    std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encodeMulticoreRequest(const MulticoreRequest& r);
std::optional<MulticoreRequest> decodeMulticoreRequest(
    std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encodeHelloReply(const HelloReply& r);
std::optional<HelloReply> decodeHelloReply(
    std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encodeErrorReply(const ErrorReply& r);
std::optional<ErrorReply> decodeErrorReply(
    std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encodeVerifyReply(const VerifyReply& r);
std::optional<VerifyReply> decodeVerifyReply(
    std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encodeStatsReply(const StatsReply& r);
std::optional<StatsReply> decodeStatsReply(
    std::span<const std::uint8_t> bytes);

// Measure/Profile/Optimize/Multicore replies are exactly the store codecs
// (store/codec.hpp): encodeMeasurement / encodeReuseProfile /
// encodePipelineResult / encodeMulticoreProfile.

// --- socket transport -------------------------------------------------------
// Thin POSIX helpers shared by the server, the client library, and the
// robustness tests (which speak raw bytes on purpose).  All writes use
// MSG_NOSIGNAL: a peer that vanished mid-reply yields an error return, not
// SIGPIPE.

/// Bind + listen on a unix-domain socket, unlinking a stale path first.
/// Returns the listening fd or -1.
int listenUnix(const std::string& path, int backlog = 64);

/// Bind + listen on 127.0.0.1:<port> (port 0 = ephemeral).  Returns the fd
/// or -1; *boundPort receives the actual port when non-null.
int listenTcp(int port, int* boundPort = nullptr, int backlog = 64);

/// Connect to "unix:<path>", "tcp:<host>:<port>", or a bare filesystem path
/// (treated as unix).  Returns the connected fd or -1.
int connectAddress(const std::string& address);

/// Write one whole frame; false on any short write or error.
bool sendFrame(int fd, MsgKind kind, std::span<const std::uint8_t> payload);

/// What recvFrame saw.  Exactly one of the failure flags is set on error;
/// `header`/`payload` are meaningful only when ok.
struct RecvResult {
  bool ok = false;
  bool eof = false;            ///< clean EOF at a frame boundary
  bool truncated = false;      ///< EOF or error mid-frame
  bool badMagic = false;
  bool badVersion = false;
  bool oversized = false;      ///< payloadBytes > maxPayloadBytes
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// Read one whole frame (blocking).  Never reads past the frame, never
/// allocates before validating the length prefix.
RecvResult recvFrame(int fd, std::uint64_t maxPayloadBytes = kMaxPayloadBytes);

}  // namespace gcr::server
