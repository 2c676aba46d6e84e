// Self-tests of the benchmark itself: determinism of the generated inputs
// and of the outputs, and a referee that actually rejects wrong digests.
//
//   gcrbench_selftest --referee <referee.tsv> [--server <gcr-server>]
//                     [--work-dir <dir>]
//
// Run through `python3 gcrbench/run.py --selftest` or ctest in the build
// directory.  The sweep checks use the ADI and Tomcatv subset of each
// catalog so the whole suite stays within tens of seconds.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "catalog.hpp"
#include "referee.hpp"
#include "serve.hpp"
#include "sweeps.hpp"

namespace {

using namespace gcrbench;

int gFailures = 0;

void check(bool ok, const char* what) {
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++gFailures;
}

std::vector<std::string> flatten(
    const std::vector<std::vector<ServeItem>>& round) {
  std::vector<std::string> out;
  for (const auto& client : round)
    for (const ServeItem& item : client)
      out.push_back(item.key.str() + (item.cold ? " cold" : " warm"));
  return out;
}

const std::vector<std::string> kSubset = {"ADI", "Tomcatv"};

}  // namespace

int main(int argc, char** argv) {
  std::string refereePath, serverBin, workDir = ".bench_build/selftest";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--referee") refereePath = argv[i + 1];
    if (arg == "--server") serverBin = argv[i + 1];
    if (arg == "--work-dir") workDir = argv[i + 1];
  }
  std::string error;
  const std::optional<Referee> referee = Referee::load(refereePath, &error);
  if (!referee) {
    std::fprintf(stderr, "selftest: %s\n", error.c_str());
    return 2;
  }
  const int nproc = workers();

  // Same seed: identical request sequence and identical digests.
  check(flatten(serveRound(7, 0, nproc)) == flatten(serveRound(7, 0, nproc)),
        "same seed gives the same serve_mixed request sequence");
  const SweepBatch a = runSweepBatch(Sweep::Sim, 7, 0, nproc, *referee, kSubset);
  const SweepBatch b = runSweepBatch(Sweep::Sim, 7, 0, nproc, *referee, kSubset);
  check(sweepBatchKeys(Sweep::Sim, 7, 0) == sweepBatchKeys(Sweep::Sim, 7, 0),
        "same seed gives the same sweep submission order");
  check(a.sequenceDigest == b.sequenceDigest && a.setDigest == b.setDigest,
        "same seed gives identical sweep digests");
  check(a.failed == 0 && b.failed == 0 && a.attempted > 0,
        "sim_sweep subset matches the referee");

  // Different seed: the serve sequence moves, the sweep answers do not.
  check(flatten(serveRound(8, 0, nproc)) != flatten(serveRound(7, 0, nproc)),
        "a different seed changes the serve_mixed sequence");
  const SweepBatch c = runSweepBatch(Sweep::Sim, 8, 0, nproc, *referee, kSubset);
  check(c.setDigest == a.setDigest && c.failed == 0,
        "a different seed leaves the sim_sweep digests unchanged");
  const SweepBatch p7 =
      runSweepBatch(Sweep::Profile, 7, 0, nproc, *referee, kSubset);
  const SweepBatch p8 =
      runSweepBatch(Sweep::Profile, 8, 0, nproc, *referee, kSubset);
  check(p7.setDigest == p8.setDigest && p7.failed == 0 && p8.failed == 0,
        "a different seed leaves the profile_sweep digests unchanged");

  // 1 thread vs nproc threads.
  const SweepBatch s1 = runSweepBatch(Sweep::Sim, 7, 0, 1, *referee, kSubset);
  check(s1.setDigest == a.setDigest && s1.sequenceDigest == a.sequenceDigest,
        "sim_sweep digests are identical at 1 thread and nproc threads");
  const SweepBatch q1 =
      runSweepBatch(Sweep::Profile, 7, 0, 1, *referee, kSubset);
  check(q1.setDigest == p7.setDigest,
        "profile_sweep digests are identical at 1 thread and nproc threads");

  // The referee is not vacuous: one corrupted expected digest fails.
  Referee corrupted = *referee;
  const Key victim{Kind::Measure, "ADI", gcr::Strategy::NoOpt, 96, 8};
  corrupted.set(victim.str(), a.setDigest);  // any value but the right one
  const SweepBatch bad =
      runSweepBatch(Sweep::Sim, 7, 0, nproc, corrupted, kSubset);
  check(bad.failed > 0, "a corrupted expected digest is reported as a failure");

  if (!serverBin.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(workDir, ec);
    const ServeRound r =
        runServeRound({serverBin, workDir}, 7, 0, *referee, nullptr);
    check(r.failed == 0 && r.attempted > 0 && r.daemonExitOk,
          "one serve_mixed round against the daemon matches the referee");
    std::filesystem::remove_all(workDir, ec);
  }

  std::printf("%s: %d failure(s)\n", gFailures == 0 ? "ok" : "FAILED",
              gFailures);
  return gFailures == 0 ? 0 : 1;
}
