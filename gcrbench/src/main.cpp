// gcrbench — one command for gcr's end-to-end and per-layer benchmark.
//
//   gcrbench --workload <sim_sweep|profile_sweep|serve_mixed> --seed <n>
//            --seconds <s> --trace <0|1> --referee <referee.tsv>
//            --server <gcr-server binary> --work-dir <dir>
//   gcrbench --write-referee <referee.tsv>
//
// Normally launched through run.py, which builds it first.  Prints a report,
// then as its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"} — the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1.  See README.md for the workloads and every metric.
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "catalog.hpp"
#include "referee.hpp"
#include "serve.hpp"
#include "stats.hpp"
#include "sweeps.hpp"
#include "trace.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "gcrbench: %s\n"
               "usage: gcrbench --workload <sim_sweep|profile_sweep|"
               "serve_mixed> --seed <n> --seconds <s> --trace <0|1>\n"
               "                --referee <file> --server <gcr-server> "
               "--work-dir <dir>\n"
               "       gcrbench --write-referee <file>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gcrbench;
  // The benchmark's own clock starts before any set-up.
  const double processStart = now();
  // Pinned configuration: every knob is set explicitly below; clearing the
  // variables as well guarantees the caller's environment changes nothing.
  for (const char* var :
       {"GCR_THREADS", "GCR_ENGINE", "GCR_CACHE_DIR", "GCR_FULL_SIZE"})
    ::unsetenv(var);
  ::signal(SIGPIPE, SIG_IGN);

  std::string workload, refereePath, serverBin, workDir, writeReferee;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        seed = std::stoull(value);
        haveSeed = true;
      } else if (arg == "--seconds") {
        seconds = std::stod(value);
      } else if (arg == "--trace") {
        trace = std::stoi(value);
      } else if (arg == "--referee") {
        refereePath = value;
      } else if (arg == "--server") {
        serverBin = value;
      } else if (arg == "--work-dir") {
        workDir = value;
      } else if (arg == "--write-referee") {
        writeReferee = value;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }

  if (!writeReferee.empty()) {
    const Referee r = computeReferee(workers());
    if (!r.write(writeReferee)) {
      std::fprintf(stderr, "gcrbench: cannot write %s\n",
                   writeReferee.c_str());
      return 1;
    }
    std::printf("wrote %zu digests to %s\n", r.size(), writeReferee.c_str());
    return 0;
  }

  if (workload.empty() || !haveSeed || seconds <= 0 ||
      (trace != 0 && trace != 1) || refereePath.empty() || workDir.empty())
    return usage("missing or invalid arguments");
  std::string error;
  const std::optional<Referee> referee = Referee::load(refereePath, &error);
  if (!referee) return usage(error.c_str());

  const std::string runDir = workDir + "/" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(runDir, ec);
  std::filesystem::create_directories(runDir, ec);
  const std::string tracePath = workDir + "/traces/" + workload + "-seed" +
                                std::to_string(seed) + ".jsonl";

  RunResult res;
  if (workload == "sim_sweep" || workload == "profile_sweep") {
    const Sweep sweep =
        workload == "sim_sweep" ? Sweep::Sim : Sweep::Profile;
    res = trace ? runSweepTraced(sweep, seed, *referee, runDir, tracePath)
                : runSweep(sweep, seed, seconds, *referee, processStart);
  } else if (workload == "serve_mixed") {
    if (serverBin.empty() || ::access(serverBin.c_str(), X_OK) != 0)
      return usage("serve_mixed needs --server <gcr-server binary>");
    const ServeConfig cfg{serverBin, runDir};
    res = trace ? runServeTraced(cfg, seed, *referee, tracePath)
                : runServe(cfg, seed, seconds, *referee, processStart);
  } else {
    return usage(("unknown workload " + workload).c_str());
  }
  std::filesystem::remove_all(runDir, ec);
  if (res.attempted == 0) {
    std::fprintf(stderr, "gcrbench: no request was attempted\n");
    return 1;
  }
  res.print();
  return 0;
}
