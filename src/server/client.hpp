// Client library for the gcr optimization service (server/server.hpp).
//
// One Client is one session on one connection: connect to "unix:<path>",
// "tcp:<host>:<port>" or a bare socket path, hello(tenant), then issue
// requests.  Calls are synchronous and strictly ordered (one request, one
// reply) — concurrency across requests is achieved with one Client per
// thread, exactly how the server multiplexes tenants.  Not thread-safe;
// cheap to construct, so make one per thread.
//
// Every call returns a Result<T>: either the decoded value or the error
// the server replied (ErrorCode + message), with transport failures mapped
// to ErrorCode::MalformedFrame and a "transport:" message prefix.  A Busy
// result is an explicit backpressure signal — the request was refused
// before any work, and the session remains usable for a retry.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "driver/measure.hpp"
#include "driver/pipeline.hpp"
#include "locality/reuse_distance.hpp"
#include "server/protocol.hpp"

namespace gcr::server {

template <typename T>
struct Result {
  std::optional<T> value;
  ErrorCode error = ErrorCode::MalformedFrame;  ///< meaningful when !value
  std::string message;

  bool ok() const { return value.has_value(); }
  const T& operator*() const { return *value; }
  const T* operator->() const { return &*value; }
};

class Client {
 public:
  /// Connect and shake hands: hello(tenant) must be the first exchange on
  /// the wire, so it is part of construction.  nullptr on connection or
  /// handshake failure (*error receives the reason when non-null).
  static std::unique_ptr<Client> connect(const std::string& address,
                                         const std::string& tenant,
                                         std::string* error = nullptr);

  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Run the optimization pipeline; the reply is the full PipelineResult
  /// (transformed program, regrouping, reports, diagnostics) in the
  /// store-codec encoding.
  Result<PipelineResult> optimize(const OptimizeRequest& req);

  /// Optimize + simulate on the requested machine.
  Result<Measurement> measure(const MeasureRequest& req);

  /// Optimize + reuse-distance profile.
  Result<ReuseProfile> profile(const ProfileRequest& req);

  /// Optimize + multicore locality analysis under a CMP topology.
  Result<MulticoreProfile> multicore(const MulticoreRequest& req);

  /// Static legality lint of a bundled app.
  Result<VerifyReply> verify(const VerifyRequest& req);

  /// Engine/store/server counters snapshot (served even while the
  /// server drains — the observability ping of `gcr-verify --server`).
  Result<StatsReply> stats();

  /// Raw reply bytes of the last successful measure()/profile()/optimize()
  /// call — the exact wire payload, for byte-identity assertions.
  const std::vector<std::uint8_t>& lastPayload() const;

  const std::string& serverName() const;

 private:
  Client();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gcr::server
