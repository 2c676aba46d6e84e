// serve_mixed: the real gcr-server daemon on a unix socket, driven by a
// closed loop of workers() client connections from this process.
#pragma once

#include <sys/types.h>

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "catalog.hpp"
#include "digest.hpp"
#include "referee.hpp"
#include "server/client.hpp"
#include "stats.hpp"

namespace gcrbench {

/// A gcr-server child process with pinned flags and environment.  The
/// destructor kills and reaps a daemon that was not stopped.
class Daemon {
 public:
  /// Spawn `serverBin` listening on `socketPath` over the store `storeDir`;
  /// stdout/stderr go to `logPath`.  nullptr when fork/exec fails or the
  /// socket does not accept connections within ten seconds.
  static std::unique_ptr<Daemon> start(const std::string& serverBin,
                                       const std::string& socketPath,
                                       const std::string& storeDir,
                                       const std::string& logPath);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// SIGTERM (graceful drain) and reap.  True when the daemon exited 0;
  /// *peakRssMb receives its peak resident set from wait4().
  bool stop(double* peakRssMb = nullptr);

  std::string address() const { return "unix:" + socketPath_; }

 private:
  Daemon() = default;
  pid_t pid_ = -1;
  std::string socketPath_;
};

/// A decoded reply of any serve_mixed kind.
using ServeReply = std::variant<std::monostate, gcr::Measurement,
                                gcr::ReuseProfile, gcr::PipelineResult,
                                gcr::MulticoreProfile>;

struct ServeOutcome {
  bool ok = false;
  std::string error;  ///< "<ErrorCode>: message" when !ok
  ServeReply reply;
};

/// The wire request of `k`, field for field what a client sends.
gcr::server::MeasureRequest measureRequest(const Key& k);
gcr::server::ProfileRequest profileRequest(const Key& k);
gcr::server::OptimizeRequest optimizeRequest(const Key& k);
gcr::server::MulticoreRequest multicoreRequest(const Key& k);

/// Send the request of `k` on `client` and wait for the reply.
ServeOutcome issue(gcr::server::Client& client, const Key& k);

/// Digest of a decoded reply (*accesses as replyDigest()).
Digest serveDigest(const ServeReply& r, std::uint64_t* accesses = nullptr);

struct ServeConfig {
  std::string serverBin;
  std::string workDir;  ///< per-round stores, sockets and logs live here
};

/// Daemon-side observations a traced run takes before the daemon stops.
struct ServeProbe {
  std::vector<double> pingSeconds;  ///< Client::stats() round trips
  double busyRatio = 0;
  double cacheHitRatio = 0;
  std::uint64_t inflightCoalesced = 0;
  std::string storeDir;  ///< kept for the caller (which removes it)
};

struct ServeRound {
  double setupSeconds = 0;
  double wallSeconds = 0;
  std::vector<std::vector<ServeItem>> items;  ///< per client, as sent
  std::vector<double> latency, warmLatency, coldLatency;  ///< ok replies
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t completed = 0;
  std::uint64_t coldAccesses = 0;
  double daemonPeakRssMb = 0;
  bool daemonExitOk = false;
  Digest sequenceDigest = 0;
};

/// One round: set-up (fresh store warmed through a first daemon, then a
/// second daemon over that store) and the closed-loop load.  With `probe`,
/// pings and stats are taken before the daemon stops and the store is kept.
ServeRound runServeRound(const ServeConfig& cfg, std::uint64_t seed,
                         int round, const Referee& referee,
                         ServeProbe* probe = nullptr);

/// The timed run: rounds until `seconds` is spent (at least one).
RunResult runServe(const ServeConfig& cfg, std::uint64_t seed, double seconds,
                   const Referee& referee, double processStart);

}  // namespace gcrbench
