// Multi-tenant server load generator: spawn the gcr-server daemon, drive
// thousands of mixed cold/warm requests from N client threads (one tenant
// per thread), and report request latency percentiles, throughput, and the
// cross-tenant sharing counters.
//
// Four gates (all also recorded in BENCH_server.json for CI):
//   * cross-tenant sharing must actually happen: with every tenant asking
//     for the same catalog of work, the shared Engine's measurement-cache
//     hits + in-flight coalescing must be > 0 across >= 2 tenants;
//   * wire results must be byte-identical to a direct in-process Engine run
//     of the same work (the reply payload is the store codec);
//   * a warm duplicate request must be answered with the *verbatim* bytes
//     of the first reply (cache replays are bit-exact);
//   * SIGTERM while a request is in flight must drain cleanly: the client
//     still gets a well-formed reply (the result, or an explicit
//     ShuttingDown error), and the daemon exits 0.
//
// The daemon binary is located via $GCR_SERVER_BIN, then as
// <bindir>/../tools/gcr-server; if neither exists the server runs
// in-process (same Server class, drain exercised via drainAndStop()).
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.hpp"
#include "bench_util.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "store/codec.hpp"

namespace {

using namespace gcr;
using namespace gcr::server;

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string makeTempDir(const char* stem) {
  std::string tmpl =
      (std::filesystem::temp_directory_path() / stem).string() + ".XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) return {};
  return buf.data();
}

/// The work catalog every tenant draws from: 4 apps x 4 strategies, plus a
/// reuse profile per app.  Small enough that the cold pass is seconds, hot
/// enough that the simulated working sets exceed the simulated L2.
struct Spec {
  const char* app;
  Strategy strategy;
  std::int64_t n;
};

std::vector<Spec> makeCatalog() {
  const Strategy strategies[] = {Strategy::NoOpt, Strategy::SgiLike,
                                 Strategy::Fused, Strategy::FusedRegrouped};
  const std::pair<const char*, std::int64_t> apps[] = {
      {"ADI", 200}, {"Swim", 96}, {"Tomcatv", 96}, {"SP", 16}};
  std::vector<Spec> catalog;
  for (const auto& [app, n] : apps)
    for (Strategy s : strategies) catalog.push_back({app, s, n});
  return catalog;
}

MeasureRequest measureRequestFor(const Spec& s, const MachineConfig& machine) {
  MeasureRequest req;
  req.spec.app = s.app;
  req.spec.strategy = s.strategy;
  req.n = s.n;
  req.timeSteps = 1;
  req.machine = machine;
  return req;
}

struct ClientStats {
  std::vector<double> latencies;  ///< seconds per completed request
  std::uint64_t ok = 0;
  std::uint64_t busy = 0;
  std::uint64_t errored = 0;
};

/// One tenant's load loop: `requests` randomly ordered draws from the
/// catalog (deterministic per-thread LCG), 1-in-8 a reuse profile, the rest
/// measurements.  The first draw of each spec anywhere in the fleet is a
/// cold computation; every other draw must be served by the shared caches.
ClientStats runTenant(const std::string& address, int tenantIndex,
                      int requests, const std::vector<Spec>& catalog,
                      const MachineConfig& machine) {
  ClientStats stats;
  std::string error;
  const std::string tenant = "tenant-" + std::to_string(tenantIndex);
  const std::unique_ptr<Client> client =
      Client::connect(address, tenant, &error);
  if (client == nullptr) {
    std::fprintf(stderr, "FATAL: %s: %s\n", tenant.c_str(), error.c_str());
    stats.errored = static_cast<std::uint64_t>(requests);
    return stats;
  }

  std::uint64_t lcg = 0x9e3779b97f4a7c15ull * (tenantIndex + 1);
  stats.latencies.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const Spec& spec = catalog[(lcg >> 33) % catalog.size()];
    const double t0 = now();
    bool ok = false, busy = false;
    if (i % 8 == 7) {
      ProfileRequest req;
      req.spec.app = spec.app;
      req.spec.strategy = Strategy::NoOpt;
      req.n = spec.n;
      const Result<ReuseProfile> r = client->profile(req);
      ok = r.ok();
      busy = !ok && r.error == ErrorCode::Busy;
    } else {
      const Result<Measurement> r =
          client->measure(measureRequestFor(spec, machine));
      ok = r.ok();
      busy = !ok && r.error == ErrorCode::Busy;
    }
    if (ok) {
      stats.latencies.push_back(now() - t0);
      ++stats.ok;
    } else if (busy) {
      ++stats.busy;  // explicit backpressure: refused before any work
    } else {
      ++stats.errored;
    }
  }
  return stats;
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t i = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(i, sorted.size() - 1)];
}

/// Locate the daemon binary: $GCR_SERVER_BIN, then ../tools/gcr-server next
/// to this bench binary.  Empty when unavailable (in-process fallback).
std::string findDaemonBinary(const char* argv0) {
  if (const char* env = std::getenv("GCR_SERVER_BIN");
      env != nullptr && *env != '\0')
    return std::filesystem::exists(env) ? std::string(env) : std::string();
  std::error_code ec;
  const std::filesystem::path self =
      std::filesystem::canonical(argv0, ec);
  if (ec) return {};
  const std::filesystem::path candidate =
      self.parent_path().parent_path() / "tools" / "gcr-server";
  return std::filesystem::exists(candidate) ? candidate.string()
                                            : std::string();
}

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  bench::printHeader(
      "gcr-server load: N tenants, mixed cold/warm requests, one shared "
      "Engine",
      "cross-tenant cache sharing + wire/in-process byte identity + "
      "SIGTERM drain");

  const std::string cacheDir = makeTempDir("gcr-bench-server-store");
  const std::string sockDir = makeTempDir("gcr-bench-server-sock");
  if (cacheDir.empty() || sockDir.empty()) {
    std::fprintf(stderr, "FATAL: cannot create temp dirs\n");
    return 1;
  }
  const std::string socketPath = sockDir + "/gcr.sock";

  auto envInt = [](const char* name, int fallback) {
    const char* env = std::getenv(name);
    const int v = env != nullptr ? std::atoi(env) : 0;
    return v > 0 ? v : fallback;
  };
  const int threads = envInt("GCR_SERVER_CLIENTS", 8);
  const int perTenant =
      std::max(1, envInt("GCR_SERVER_REQUESTS", 2000) / threads);

  // --- start the daemon (spawned binary, or in-process fallback) -----------
  const std::string daemonBin = findDaemonBinary(argv[0]);
  pid_t daemonPid = -1;
  std::unique_ptr<Server> inProcess;
  if (!daemonBin.empty()) {
    daemonPid = ::fork();
    if (daemonPid == 0) {
      ::execl(daemonBin.c_str(), daemonBin.c_str(), "--socket",
              socketPath.c_str(), "--cache-dir", cacheDir.c_str(),
              static_cast<char*>(nullptr));
      std::perror("execl gcr-server");
      ::_exit(127);
    }
  } else {
    ServerOptions so;
    so.unixSocketPath = socketPath;
    so.engine.cacheDir = cacheDir;
    inProcess = Server::start(so);
    if (inProcess == nullptr) {
      std::fprintf(stderr, "FATAL: cannot start in-process server\n");
      return 1;
    }
  }
  std::printf("daemon: %s\n",
              daemonBin.empty() ? "(in-process Server)" : daemonBin.c_str());

  // Wait until the socket accepts connections.
  bool up = false;
  for (int i = 0; i < 200 && !up; ++i) {
    const int fd = connectAddress(socketPath);
    if (fd >= 0) {
      ::close(fd);
      up = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  if (!up) {
    std::fprintf(stderr, "FATAL: daemon did not come up on %s\n",
                 socketPath.c_str());
    return 1;
  }

  const std::vector<Spec> catalog = makeCatalog();
  const MachineConfig machine = MachineConfig::origin2000();

  // --- the load ------------------------------------------------------------
  const double loadStart = now();
  std::vector<ClientStats> perThread(static_cast<std::size_t>(threads));
  {
    std::vector<std::thread> fleet;
    for (int t = 0; t < threads; ++t)
      fleet.emplace_back([&, t] {
        perThread[static_cast<std::size_t>(t)] =
            runTenant(socketPath, t, perTenant, catalog, machine);
      });
    for (std::thread& th : fleet) th.join();
  }
  const double loadSeconds = now() - loadStart;

  std::vector<double> latencies;
  std::uint64_t okCount = 0, busyCount = 0, errorCount = 0;
  for (ClientStats& s : perThread) {
    latencies.insert(latencies.end(), s.latencies.begin(), s.latencies.end());
    okCount += s.ok;
    busyCount += s.busy;
    errorCount += s.errored;
  }
  std::sort(latencies.begin(), latencies.end());
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);
  const double throughput =
      loadSeconds > 0 ? static_cast<double>(okCount) / loadSeconds : 0.0;

  // --- verification client: stats, byte identity, warm duplicates ----------
  std::string error;
  const std::unique_ptr<Client> check =
      Client::connect(socketPath, "verifier", &error);
  if (check == nullptr) {
    std::fprintf(stderr, "FATAL: verifier cannot connect: %s\n",
                 error.c_str());
    return 1;
  }
  const Result<StatsReply> statsReply = check->stats();
  if (!statsReply.ok()) {
    std::fprintf(stderr, "FATAL: stats request failed: %s\n",
                 statsReply.message.c_str());
    return 1;
  }
  const Engine::Stats& es = statsReply->engine;
  const std::uint64_t shared = es.measurement.hits + es.profile.hits +
                               es.inflightCoalesced;
  const bool crossTenant = statsReply->tenants.size() >= 2;
  const bool dedupOk = shared > 0 && crossTenant;

  // Byte identity: every catalog entry through the wire vs a direct
  // in-process Engine (its own memory-only caches; nothing shared with the
  // daemon).  The wire replies are warm by now, replaying the daemon's
  // first computation of each spec.
  bool byteIdentical = true;
  {
    Engine direct;
    for (const Spec& s : catalog) {
      const Result<Measurement> wire =
          check->measure(measureRequestFor(s, machine));
      if (!wire.ok()) {
        byteIdentical = false;
        break;
      }
      const std::vector<std::uint8_t> first = check->lastPayload();
      WorkSpec spec;
      spec.app = s.app;
      spec.strategy = s.strategy;
      const Measurement local = direct.measure(
          direct.version(apps::buildApp(s.app), s.strategy,
                         spec.versionSpec()),
          s.n, machine, 1, {});
      if (first != store::encodeMeasurement(local)) {
        std::fprintf(stderr, "byte-identity FAILED: %s/%d\n", s.app,
                     static_cast<int>(s.strategy));
        byteIdentical = false;
        break;
      }
      // Warm duplicate: the repeat must replay the first reply verbatim.
      const Result<Measurement> dup =
          check->measure(measureRequestFor(s, machine));
      if (!dup.ok() || check->lastPayload() != first) {
        std::fprintf(stderr, "warm-duplicate replay FAILED: %s/%d\n", s.app,
                     static_cast<int>(s.strategy));
        byteIdentical = false;
        break;
      }
    }
  }

  // --- drain: SIGTERM with a request in flight ------------------------------
  bool drainReplyOk = false;
  std::thread drainClientThread([&] {
    std::string err;
    const std::unique_ptr<Client> c =
        Client::connect(socketPath, "drain-tenant", &err);
    if (c == nullptr) return;
    // A spec the fleet never computed: forced cold, so it is genuinely in
    // flight when the signal lands.
    Spec cold{"ADI", Strategy::FusedRegrouped, 208};
    const Result<Measurement> r = c->measure(measureRequestFor(cold, machine));
    // Admitted work must complete; work arriving after the drain begins is
    // refused with an explicit ShuttingDown.  Either way the reply is
    // well-formed — what must never happen is a lost reply or a reset.
    drainReplyOk = r.ok() || r.error == ErrorCode::ShuttingDown;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  bool daemonExitOk = false;
  if (daemonPid > 0) {
    ::kill(daemonPid, SIGTERM);
    int status = 0;
    daemonExitOk = ::waitpid(daemonPid, &status, 0) == daemonPid &&
                   WIFEXITED(status) && WEXITSTATUS(status) == 0;
  } else {
    inProcess->drainAndStop();
    daemonExitOk = true;
  }
  drainClientThread.join();
  const bool drainOk = drainReplyOk && daemonExitOk;

  // --- report --------------------------------------------------------------
  const std::uint64_t total = okCount + busyCount + errorCount;
  std::printf("load: %llu requests (%d tenants x %d), %.2f s wall\n",
              static_cast<unsigned long long>(total), threads, perTenant,
              loadSeconds);
  std::printf("latency: p50 %.3f ms, p99 %.3f ms; throughput %.0f req/s\n",
              p50 * 1e3, p99 * 1e3, throughput);
  std::printf("outcomes: %llu ok, %llu busy, %llu errored\n",
              static_cast<unsigned long long>(okCount),
              static_cast<unsigned long long>(busyCount),
              static_cast<unsigned long long>(errorCount));
  std::printf("cross-tenant sharing: %llu measurement hits, %llu profile "
              "hits, %llu coalesced, %zu tenants — %s\n",
              static_cast<unsigned long long>(es.measurement.hits),
              static_cast<unsigned long long>(es.profile.hits),
              static_cast<unsigned long long>(es.inflightCoalesced),
              statsReply->tenants.size(), dedupOk ? "ok" : "FAIL");
  std::printf("wire vs in-process byte identity: %s\n",
              byteIdentical ? "ok" : "FAIL");
  std::printf("SIGTERM drain (reply delivered, exit 0): %s\n",
              drainOk ? "ok" : "FAIL");

  {
    bench::ResultWriter out("server");
    JsonWriter& j = out.json();
    j.field("daemon", daemonBin.empty() ? "in-process" : "spawned");
    j.field("tenants", std::int64_t{threads});
    j.field("requests_per_tenant", std::int64_t{perTenant});
    j.field("requests_total", total);
    j.field("requests_ok", okCount);
    j.field("requests_busy", busyCount);
    j.field("requests_errored", errorCount);
    j.field("load_seconds", loadSeconds, 3);
    j.field("latency_p50_ms", p50 * 1e3, 3);
    j.field("latency_p99_ms", p99 * 1e3, 3);
    j.field("throughput_rps", throughput, 1);
    j.field("measurement_cache_hits", es.measurement.hits);
    j.field("profile_cache_hits", es.profile.hits);
    j.field("inflight_coalesced", es.inflightCoalesced);
    j.field("store_hits", es.store.hits);
    j.field("store_puts", es.store.puts);
    j.field("tenant_count", std::uint64_t{statsReply->tenants.size()});
    j.field("dedup_gate_ok", dedupOk);
    j.field("byte_identical", byteIdentical);
    j.field("drain_ok", drainOk);
    out.addEngineStats(es);
    out.finish();
  }

  std::error_code ec;
  std::filesystem::remove_all(cacheDir, ec);
  std::filesystem::remove_all(sockDir, ec);

  const bool ok = dedupOk && byteIdentical && drainOk && errorCount == 0;
  std::printf("server load verdict: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
