#include "serve.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "server/protocol.hpp"
#include "sweeps.hpp"

namespace gcrbench {

namespace gs = gcr::server;

// --- Daemon -----------------------------------------------------------------

std::unique_ptr<Daemon> Daemon::start(const std::string& serverBin,
                                      const std::string& socketPath,
                                      const std::string& storeDir,
                                      const std::string& logPath) {
  // Every daemon knob is explicit.  The environment holds only the engine
  // choice (the daemon has no flag for it), so no GCR_* variable of the
  // caller reaches the daemon.  Store fsync has no flag either: the daemon
  // always publishes with fsync on.
  //
  // --threads 1: the load's concurrency comes from the client connections,
  // each served on its own session thread.  With a shared pool of more than
  // one thread, concurrent sessions enter ThreadPool::parallelFor (inside
  // analyzeMulticore) at once; parallelFor keeps one batch state per pool,
  // so the batches mix and multicore replies come back wrong — the referee
  // rejects them.  One engine thread runs each per-core simulation inline.
  std::vector<std::string> args = {serverBin,
                                   "--socket", socketPath,
                                   "--cache-dir", storeDir,
                                   "--threads", "1",
                                   "--max-connections", "16",
                                   "--max-inflight", "32",
                                   "--max-per-tenant", "8",
                                   "--max-frame-bytes", "16777216"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::string engineVar = "GCR_ENGINE=plan";
  char* envp[] = {engineVar.data(), nullptr};

  const int log = ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_APPEND |
                                              O_CLOEXEC, 0644);
  if (log < 0) return nullptr;
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(log, STDOUT_FILENO);
    ::dup2(log, STDERR_FILENO);
    ::execve(serverBin.c_str(), argv.data(), envp);
    ::_exit(127);
  }
  ::close(log);
  if (pid < 0) return nullptr;

  std::unique_ptr<Daemon> d(new Daemon());
  d->pid_ = pid;
  d->socketPath_ = socketPath;
  const double deadline = now() + 10.0;
  while (now() < deadline) {
    const int fd = gs::connectAddress(d->address());
    if (fd >= 0) {
      ::close(fd);
      return d;
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      d->pid_ = -1;  // died during start-up
      return nullptr;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return nullptr;  // the destructor kills it
}

bool Daemon::stop(double* peakRssMb) {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  int status = 0;
  rusage ru{};
  const double deadline = now() + 30.0;
  pid_t got = 0;
  while ((got = ::wait4(pid_, &status, WNOHANG, &ru)) == 0 &&
         now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (got != pid_) return false;  // still running: the destructor kills it
  pid_ = -1;
  if (peakRssMb != nullptr)
    *peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

// --- requests ---------------------------------------------------------------

namespace {

gs::WorkSpec workSpec(const Key& k) {
  gs::WorkSpec s;
  s.app = k.app;
  s.strategy = k.strategy;
  return s;
}

template <typename T>
ServeOutcome outcome(gs::Result<T>&& r) {
  ServeOutcome o;
  o.ok = r.ok();
  if (o.ok)
    o.reply = std::move(*r.value);
  else
    o.error = std::string(gs::errorCodeName(r.error)) + ": " + r.message;
  return o;
}

}  // namespace

gs::MeasureRequest measureRequest(const Key& k) {
  gs::MeasureRequest req;
  req.spec = workSpec(k);
  req.n = k.n;
  req.timeSteps = k.timeSteps;
  req.machine = machine();
  return req;
}

gs::ProfileRequest profileRequest(const Key& k) {
  gs::ProfileRequest req;
  req.spec = workSpec(k);
  req.n = k.n;
  req.timeSteps = k.timeSteps;
  return req;
}

gs::OptimizeRequest optimizeRequest(const Key& k) {
  gs::OptimizeRequest req;
  req.spec = workSpec(k);
  return req;
}

gs::MulticoreRequest multicoreRequest(const Key& k) {
  gs::MulticoreRequest req;
  req.spec = workSpec(k);
  req.n = k.n;
  req.timeSteps = k.timeSteps;
  req.topology = topology();
  return req;
}

ServeOutcome issue(gs::Client& client, const Key& k) {
  switch (k.kind) {
    case Kind::Measure:
      return outcome(client.measure(measureRequest(k)));
    case Kind::Profile:
      return outcome(client.profile(profileRequest(k)));
    case Kind::Optimize:
      return outcome(client.optimize(optimizeRequest(k)));
    case Kind::Multicore:
      return outcome(client.multicore(multicoreRequest(k)));
    case Kind::Sampled:
    case Kind::Symbolic:
      break;
  }
  ServeOutcome o;
  o.error = "kind not served over the wire";
  return o;
}

Digest serveDigest(const ServeReply& r, std::uint64_t* accesses) {
  std::uint64_t acc = 0;
  Digest d = 0;
  if (const auto* m = std::get_if<gcr::Measurement>(&r)) {
    acc = m->counts.refs;
    d = digestOf(*m);
  } else if (const auto* p = std::get_if<gcr::ReuseProfile>(&r)) {
    acc = p->accesses;
    d = digestOf(*p);
  } else if (const auto* pr = std::get_if<gcr::PipelineResult>(&r)) {
    d = digestOf(*pr);
  } else if (const auto* mc = std::get_if<gcr::MulticoreProfile>(&r)) {
    acc = mc->totalRefs();
    d = digestOf(*mc);
  }
  if (accesses != nullptr) *accesses = acc;
  return d;
}

// --- rounds -----------------------------------------------------------------

namespace {

struct ClientLog {
  std::vector<double> latency;  ///< -1 for failed requests
  std::vector<ServeOutcome> outcomes;
};

/// Drive one client connection through `items`, closed loop.
ClientLog runClient(const std::string& address, const std::string& tenant,
                    const std::vector<ServeItem>& items) {
  ClientLog log;
  log.latency.assign(items.size(), -1.0);
  log.outcomes.resize(items.size());
  std::string error;
  const std::unique_ptr<gs::Client> client =
      gs::Client::connect(address, tenant, &error);
  if (client == nullptr) {
    for (ServeOutcome& o : log.outcomes) o.error = "transport: " + error;
    return log;
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    const double t0 = now();
    log.outcomes[i] = issue(*client, items[i].key);
    if (log.outcomes[i].ok) log.latency[i] = now() - t0;
  }
  return log;
}

std::vector<ClientLog> runClients(
    const std::string& address, const std::string& tenantPrefix,
    const std::vector<std::vector<ServeItem>>& perClient) {
  std::vector<ClientLog> logs(perClient.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < perClient.size(); ++c)
    threads.emplace_back([&, c] {
      logs[c] = runClient(address, tenantPrefix + std::to_string(c),
                          perClient[c]);
    });
  for (std::thread& t : threads) t.join();
  return logs;
}

/// Check every reply against the referee; returns the failure count.
std::uint64_t verify(const std::vector<std::vector<ServeItem>>& perClient,
                     const std::vector<ClientLog>& logs,
                     const Referee& referee, ServeRound* round) {
  std::uint64_t failed = 0;
  for (std::size_t c = 0; c < logs.size(); ++c)
    for (std::size_t i = 0; i < logs[c].outcomes.size(); ++i) {
      const ServeItem& item = perClient[c][i];
      const ServeOutcome& o = logs[c].outcomes[i];
      if (!o.ok) {
        std::fprintf(stderr, "gcrbench: %s failed: %s\n",
                     item.key.str().c_str(), o.error.c_str());
        ++failed;
        continue;
      }
      std::uint64_t acc = 0;
      const Digest d = serveDigest(o.reply, &acc);
      if (!referee.matches(item.key.str(), d)) {
        std::fprintf(stderr, "gcrbench: %s digest %s differs from referee\n",
                     item.key.str().c_str(), hex(d).c_str());
        ++failed;
      }
      if (round != nullptr) {
        round->sequenceDigest = combine(round->sequenceDigest, d);
        if (item.cold) round->coldAccesses += acc;
      }
    }
  return failed;
}

}  // namespace

ServeRound runServeRound(const ServeConfig& cfg, std::uint64_t seed,
                         int round, const Referee& referee,
                         ServeProbe* probe) {
  namespace fs = std::filesystem;
  ServeRound out;
  const int clients = workers();
  out.items = serveRound(seed, round, clients);

  const double setupStart = now();
  const std::string dir = cfg.workDir + "/round" + std::to_string(round);
  const std::string store = dir + "/store";
  const std::string socket = dir + "/sock";
  const std::string logPath = cfg.workDir + "/daemon.log";
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);

  // Warm the store through a first daemon, then restart over it: the first
  // touch of each catalog entry in the load is a disk-tier hit.
  {
    std::unique_ptr<Daemon> warmer =
        Daemon::start(cfg.serverBin, socket, store, logPath);
    if (warmer == nullptr) {
      std::fprintf(stderr, "gcrbench: cannot start %s\n",
                   cfg.serverBin.c_str());
      out.failed = out.attempted = 1;
      return out;
    }
    const std::vector<Key> catalog = serveCatalog();
    std::vector<std::vector<ServeItem>> shares(
        static_cast<std::size_t>(clients));
    for (std::size_t i = 0; i < catalog.size(); ++i)
      shares[i % shares.size()].push_back({catalog[i], false});
    const std::vector<ClientLog> logs =
        runClients(warmer->address(), "warmup-", shares);
    out.attempted += catalog.size();
    out.failed += verify(shares, logs, referee, nullptr);
    if (!warmer->stop()) ++out.failed;
  }
  std::unique_ptr<Daemon> daemon =
      Daemon::start(cfg.serverBin, socket, store, logPath);
  if (daemon == nullptr) {
    ++out.attempted;
    ++out.failed;
    return out;
  }
  out.setupSeconds = now() - setupStart;

  const double loadStart = now();
  const std::vector<ClientLog> logs =
      runClients(daemon->address(), "tenant-", out.items);
  out.wallSeconds = now() - loadStart;

  if (probe != nullptr) {
    std::string error;
    const std::unique_ptr<gs::Client> c =
        gs::Client::connect(daemon->address(), "probe", &error);
    std::optional<gs::StatsReply> last;
    for (int i = 0; c != nullptr && i < 200; ++i) {
      const double t0 = now();
      gs::Result<gs::StatsReply> r = c->stats();
      if (!r.ok()) break;
      probe->pingSeconds.push_back(now() - t0);
      last = std::move(*r.value);
    }
    if (last) {
      const gs::ServerCounters& sc = last->server;
      const double offered =
          static_cast<double>(sc.requestsAdmitted + sc.requestsBusyRejected);
      probe->busyRatio =
          offered > 0 ? static_cast<double>(sc.requestsBusyRejected) / offered
                      : 0.0;
      probe->cacheHitRatio = cacheHitRatio(last->engine);
      probe->inflightCoalesced = last->engine.inflightCoalesced;
    }
    probe->storeDir = store;
  }
  out.daemonExitOk = daemon->stop(&out.daemonPeakRssMb);

  for (std::size_t c = 0; c < logs.size(); ++c)
    for (std::size_t i = 0; i < logs[c].latency.size(); ++i) {
      ++out.attempted;
      const double lat = logs[c].latency[i];
      if (lat < 0) continue;
      ++out.completed;
      out.latency.push_back(lat);
      (out.items[c][i].cold ? out.coldLatency : out.warmLatency)
          .push_back(lat);
    }
  out.failed += verify(out.items, logs, referee, &out);
  if (probe == nullptr) fs::remove_all(dir, ec);
  return out;
}

RunResult runServe(const ServeConfig& cfg, std::uint64_t seed, double seconds,
                   const Referee& referee, double processStart) {
  std::vector<ServeRound> rounds;
  const double start = now();
  double lastRound = 0;
  do {
    const double t0 = now();
    rounds.push_back(
        runServeRound(cfg, seed, static_cast<int>(rounds.size()), referee));
    lastRound = now() - t0;
  } while (now() - start + lastRound <= seconds);

  RunResult res;
  std::vector<double> setups, walls, latency, warm, cold, rss;
  double setupSum = 0, wallSum = 0;
  std::uint64_t completed = 0, coldAccesses = 0;
  bool exitsOk = true;
  for (const ServeRound& r : rounds) {
    setups.push_back(r.setupSeconds);
    walls.push_back(r.wallSeconds);
    setupSum += r.setupSeconds;
    wallSum += r.wallSeconds;
    latency.insert(latency.end(), r.latency.begin(), r.latency.end());
    warm.insert(warm.end(), r.warmLatency.begin(), r.warmLatency.end());
    cold.insert(cold.end(), r.coldLatency.begin(), r.coldLatency.end());
    rss.push_back(r.daemonPeakRssMb);
    completed += r.completed;
    coldAccesses += r.coldAccesses;
    res.attempted += r.attempted;
    res.failed += r.failed;
    exitsOk = exitsOk && r.daemonExitOk;
  }
  const double setupS = median(setups);
  const double wallS = median(walls);
  res.add("setup_s", setupS, "s");
  res.add("wall_s", wallS, "s");
  res.add("throughput_rps", static_cast<double>(completed) / wallSum, "1/s");
  res.add("sim_maccess_per_s",
          static_cast<double>(coldAccesses) / wallSum / 1e6, "Macc/s");
  res.add("latency_p50_ms", percentile(latency, 50) * 1e3, "ms");
  res.add("latency_p99_ms", percentile(latency, 99) * 1e3, "ms");
  res.add("warm_latency_p50_ms", median(warm) * 1e3, "ms");
  res.add("cold_latency_p50_ms", median(cold) * 1e3, "ms");
  res.add("peak_rss_mb", median(rss), "MB");

  const double processWall = now() - processStart;
  const bool clocksOk =
      setupS > 0 && wallS > 0 && setupSum + wallSum <= processWall;
  res.selfChecksOk = clocksOk && exitsOk;

  std::printf("workload serve_mixed: %zu rounds x %d clients x %d requests, "
              "seed %llu\n",
              rounds.size(), workers(), kServeRequestsPerClient,
              static_cast<unsigned long long>(seed));
  std::printf("  round wall: %s\n", describeTiming(walls, 1, "s").c_str());
  std::printf("  set-up:     %s\n", describeTiming(setups, 1, "s").c_str());
  std::printf("  all:        %s\n", describeTiming(latency, 1e3, "ms").c_str());
  std::printf("  warm:       %s\n", describeTiming(warm, 1e3, "ms").c_str());
  std::printf("  cold:       %s\n", describeTiming(cold, 1e3, "ms").c_str());
  std::printf("  sequence digest of round 0: %s\n",
              hex(rounds.front().sequenceDigest).c_str());
  std::printf("  error_rate: %llu / %llu\n",
              static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.attempted));
  std::printf("  self-check clocks (setup %.4f + wall %.4f <= process %.4f): "
              "%s; daemons drained and exited 0: %s\n",
              setupSum, wallSum, processWall, clocksOk ? "ok" : "FAIL",
              exitsOk ? "ok" : "FAIL");
  return res;
}

}  // namespace gcrbench
