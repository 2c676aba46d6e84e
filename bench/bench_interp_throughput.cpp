// Interpreter throughput: tree-walking executor vs the compiled access-plan
// engine, with and without a trace sink attached, over the four evaluation
// apps (ADI, Swim, Tomcatv, NAS/SP).
//
// These are the engines behind every table in the suite, so the benchmark
// also runs a differential self-check (memory image, instruction count, and
// full instruction trace must be byte-identical across both engines) and
// refuses to report a speedup that changed the answers.  Results go to
// stdout and BENCH_interp.json (consumed by CI).
//
// What to expect (methodology and floor analysis in EXPERIMENTS.md): the
// plan engine executes within a few percent of the serial mix-chain/
// store-to-load dependence floor, ~3.5x geomean over the walker.
//
// Sizes: GCR_BENCH_N overrides the grid size for all apps; GCR_FULL_SIZE=1
// selects the large preset.  Wall-clock numbers vary run to run; the
// self-check verdict must not.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "bench_util.hpp"
#include "driver/pipeline.hpp"
#include "interp/interp.hpp"
#include "interp/plan.hpp"
#include "support/table.hpp"

namespace {

using namespace gcr;

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-reps wall time of `run` (one full execution per call).
template <typename Run>
double bestOf(int reps, Run&& run) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now();
    run();
    best = std::min(best, now() - t0);
  }
  return best;
}

std::uint64_t countAccesses(const Program& p, const DataLayout& layout,
                            const ExecOptions& opts) {
  CountingSink count;
  execute(p, layout, opts, &count);
  return count.refs();
}

bool tracesIdentical(const InstrTrace& a, const InstrTrace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.stmtId(i) != b.stmtId(i) || a.writeAddr(i) != b.writeAddr(i))
      return false;
    const auto ra = a.reads(i);
    const auto rb = b.reads(i);
    if (!std::equal(ra.begin(), ra.end(), rb.begin(), rb.end())) return false;
  }
  return true;
}

/// Both engines must produce byte-identical results on this program before
/// any throughput number for it is trusted.
bool selfCheck(const Program& p, const DataLayout& layout, ExecOptions opts) {
  if (!compilePlan(p, layout, opts).ok()) return false;
  opts.engine = ExecEngine::TreeWalk;
  InstrTrace walkTrace;
  const ExecResult walk = execute(p, layout, opts, &walkTrace);
  opts.engine = ExecEngine::Plan;
  InstrTrace planTrace;
  const ExecResult plan = execute(p, layout, opts, &planTrace);
  return walk.instrCount == plan.instrCount && walk.memory == plan.memory &&
         tracesIdentical(walkTrace, planTrace);
}

struct AppResult {
  std::string app;
  std::int64_t n = 0;
  std::uint64_t accesses = 0;
  double walkNoSink = 0, planNoSink = 0;  // seconds
  double walkSink = 0, planSink = 0;      // seconds
  bool checkOk = false;

  double speedupNoSink() const { return walkNoSink / planNoSink; }
  double speedupSink() const { return walkSink / planSink; }
};

double geomean(const std::vector<double>& xs) {
  double logSum = 0;
  for (double x : xs) logSum += std::log(x);
  return std::exp(logSum / static_cast<double>(xs.size()));
}

std::int64_t benchSize(const std::string& app) {
  if (const char* env = std::getenv("GCR_BENCH_N")) {
    const std::int64_t n = std::atoll(env);
    if (n >= 8) return n;
  }
  const bool full = gcr::bench::fullSize();
  if (app == "SP") return full ? 40 : 20;  // 3-D nest: n^3 instances
  return full ? 256 : 96;
}

// The fig10 sweeps run multiple time steps per simulation; timing several
// steps measures the steady-state engine rate rather than the (identical,
// one-time) memory-initialization cost.  GCR_BENCH_T overrides.
std::uint64_t benchSteps() {
  if (const char* env = std::getenv("GCR_BENCH_T")) {
    const std::uint64_t t = static_cast<std::uint64_t>(std::atoll(env));
    if (t >= 1) return t;
  }
  return 8;
}

AppResult runApp(const std::string& app, int reps) {
  AppResult r;
  r.app = app;
  r.n = benchSize(app);
  Program p = apps::buildApp(app);
  // Deliberately engine-less (uncached makeVersion): this bench times the
  // raw executors that the Engine's caches sit in front of.
  ProgramVersion v = makeVersion(p, Strategy::NoOpt);
  DataLayout layout = v.layoutAt(r.n);

  // Correctness gate at a size small enough to hold two full traces.
  const std::int64_t checkN = std::min<std::int64_t>(r.n, 24);
  r.checkOk =
      selfCheck(v.program, v.layoutAt(checkN), {.n = checkN, .timeSteps = 2});

  const ExecOptions benchOpts{.n = r.n, .timeSteps = benchSteps()};
  ExecOptions walkOpts = benchOpts;
  walkOpts.engine = ExecEngine::TreeWalk;
  ExecOptions planOpts = benchOpts;
  planOpts.engine = ExecEngine::Plan;

  r.accesses = countAccesses(v.program, layout, planOpts);
  r.walkNoSink = bestOf(
      reps, [&] { execute(v.program, layout, walkOpts, nullptr); });
  r.planNoSink = bestOf(
      reps, [&] { execute(v.program, layout, planOpts, nullptr); });
  r.walkSink = bestOf(reps, [&] {
    CountingSink sink;
    execute(v.program, layout, walkOpts, &sink);
  });
  r.planSink = bestOf(reps, [&] {
    CountingSink sink;
    execute(v.program, layout, planOpts, &sink);
  });
  return r;
}

void writeJson(const std::vector<AppResult>& rows, double geoNoSink,
               double geoSink, bool allOk) {
  bench::ResultWriter out("interp");
  JsonWriter& j = out.json();
  j.field("self_check_ok", allOk);
  j.field("geomean_speedup_no_sink", geoNoSink, 3);
  j.field("geomean_speedup_with_sink", geoSink, 3);
  j.key("apps");
  j.beginArray();
  for (const AppResult& r : rows) {
    j.beginObject();
    j.field("app", r.app);
    j.field("n", r.n);
    j.field("accesses", r.accesses);
    j.field("walk_no_sink_s", r.walkNoSink, 6);
    j.field("plan_no_sink_s", r.planNoSink, 6);
    j.field("walk_with_sink_s", r.walkSink, 6);
    j.field("plan_with_sink_s", r.planSink, 6);
    j.field("speedup_no_sink", r.speedupNoSink(), 3);
    j.field("speedup_with_sink", r.speedupSink(), 3);
    j.field("self_check_ok", r.checkOk);
    j.endObject();
  }
  j.endArray();
  out.finish();
}

}  // namespace

int main() {
  using namespace gcr;
  bench::printHeader("Interpreter throughput: tree walker vs compiled plan",
                     "engine microbenchmark (methodology in EXPERIMENTS.md)");

  const int reps = bench::fullSize() ? 3 : 5;
  const std::vector<std::string> appNames = {"ADI", "Swim", "Tomcatv", "SP"};
  std::vector<AppResult> rows;
  for (const std::string& app : appNames) rows.push_back(runApp(app, reps));

  TextTable t({"app", "n", "accesses", "walk Macc/s", "plan Macc/s",
               "plan/walk", "plan/walk+sink", "check"});
  std::vector<double> spNoSink, spSink;
  bool allOk = true;
  for (const AppResult& r : rows) {
    const double acc = static_cast<double>(r.accesses);
    t.addRow({r.app, std::to_string(r.n), std::to_string(r.accesses),
              TextTable::fmt(acc / r.walkNoSink / 1e6, 1),
              TextTable::fmt(acc / r.planNoSink / 1e6, 1),
              TextTable::fmt(r.speedupNoSink(), 2) + "x",
              TextTable::fmt(r.speedupSink(), 2) + "x",
              r.checkOk ? "ok" : "FAIL"});
    spNoSink.push_back(r.speedupNoSink());
    spSink.push_back(r.speedupSink());
    allOk = allOk && r.checkOk;
  }
  std::printf("%s", t.render().c_str());

  const double geoNoSink = geomean(spNoSink);
  const double geoSink = geomean(spSink);
  std::printf("geomean plan-over-walk speedup: %.2fx without sink, %.2fx "
              "with counting sink\n", geoNoSink, geoSink);
  std::printf("differential self-check: %s\n",
              allOk ? "ok (engines byte-identical)" : "FAILED");
  writeJson(rows, geoNoSink, geoSink, allOk);

  // Gate: answers must match across engines.
  return allOk ? 0 : 1;
}
