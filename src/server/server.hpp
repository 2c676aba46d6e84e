// gcr-server — the multi-tenant optimization service (DESIGN.md §8).
//
// One Server owns ONE gcr::Engine shared by every connection, so the
// content-addressed caches, the in-flight submit() deduplication, and the
// persistent GCR_CACHE_DIR store are *cross-tenant*: two clients requesting
// the same (program, strategy, size, machine) share one computation and one
// cached result.  The server adds what the
// Engine deliberately does not have — sessions, admission control, and a
// wire protocol:
//
//   * Sessions.  Each accepted connection is a session, opened by a Hello
//     frame naming the tenant.  Requests on one connection are served in
//     order (replies never interleave); concurrency comes from concurrent
//     connections, each on its own thread, all funneling into the shared
//     Engine — which is where mold-style parallelism lives (its thread
//     pool and per-signature coalescing saturate the cores, not the
//     connection count).
//
//   * Admission + backpressure.  A work request is admitted only when the
//     global in-flight count is below maxRequestsInFlight AND the tenant's
//     in-flight count is below maxInFlightPerTenant; otherwise the client
//     gets an explicit Busy error immediately — bounded memory, no hidden
//     queue.  (Pipelined frames a client sends ahead of its replies sit in
//     the kernel socket buffer, which is itself bounded.)  Connections over
//     maxConnections are turned away with Busy at accept time.
//
//   * Graceful drain.  requestStop() (the SIGTERM path) stops the
//     acceptor, lets every request already being processed finish and its
//     reply flush, then half-closes (SHUT_RD) each session so the read
//     loops wind down.  No admitted request ever loses its reply; work
//     arriving during the drain gets ShuttingDown.  The persistent store
//     needs no extra flushing — publications are synchronous and each one
//     is already crash-safe.
//
//   * Fault isolation.  A malformed, truncated, oversized or
//     wrong-version frame costs that one connection at most (error reply
//     where the stream is still synchronized, otherwise close); an Engine
//     failure becomes an EngineFailure error reply.  Nothing a client
//     sends can crash or wedge the daemon (tests/server/ fuzzes this).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "server/protocol.hpp"

namespace gcr::server {

struct ServerOptions {
  /// Unix-domain listening socket path; empty = no unix listener.
  std::string unixSocketPath;
  /// TCP listening port on 127.0.0.1; -1 = no TCP listener, 0 = ephemeral
  /// (read the bound port back via Server::tcpPort()).
  int tcpPort = -1;

  /// The shared Engine's configuration (cacheDir here is what makes the
  /// persistent store cross-tenant).
  EngineConfig engine;

  /// Admission limits; see the header comment.  Zero = reject everything
  /// (useful in tests), negative is clamped to zero.
  int maxConnections = 64;
  int maxRequestsInFlight = 32;
  int maxInFlightPerTenant = 8;

  /// Per-frame payload ceiling (ErrorCode::OversizedFrame beyond it).
  std::uint64_t maxPayloadBytes = kMaxPayloadBytes;
};

class Server {
 public:
  /// Bind, listen and start the acceptor thread.  nullptr when no listener
  /// could be bound (at least one of unixSocketPath / tcpPort must be set).
  static std::unique_ptr<Server> start(ServerOptions opts);

  /// Begin a graceful drain: stop accepting, finish in-flight requests,
  /// half-close sessions.  Idempotent, safe from any thread (it is the
  /// SIGTERM handler's deferred action).  Does not block.
  void requestStop();

  /// requestStop() + block until every connection thread has exited.
  void drainAndStop();

  /// drainAndStop(), then release sockets.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  ServerCounters counters() const;
  std::vector<TenantStats> tenantStats() const;
  Engine::Stats engineStats() const;
  /// Directory of the shared Engine's persistent store ("" = memory only).
  std::string cacheDir() const;

  /// Actual TCP port (after an ephemeral bind); -1 when no TCP listener.
  int tcpPort() const;
  const std::string& unixSocketPath() const;

 private:
  Server();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gcr::server
