// Programs the plan compiler declines.  The compiled plan is the one engine
// that executes and traces (interp/interp.hpp), so a declined program has
// no fallback: every entry point — execute(), trace(), the free
// measure()/reuseProfileOf(), and the Engine's measurement, profile and
// multicore requests — throws gcr::Error carrying the compiler's reason,
// before any instance reaches a sink.  The tree-walking referee
// (tree_walker.hpp) throws on every one of these programs too, so no
// program that ran on the walker now fails: the walker checked each access
// as it ran and raised the same violation mid-run.
//
// The corpus covers every decline reason a structurally well-formed
// Program can reach: a subscript out of bounds (loop-carried and
// constant), an access outside the data segment (a layout smaller than the
// arrays at n), a guard beyond its nest (inside a loop and at the top
// level), a subscript on a loop variable beyond its nest, and elements
// that are not 8 bytes wide.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "driver/measure.hpp"
#include "engine/engine.hpp"
#include "interp/interp.hpp"
#include "interp/plan.hpp"
#include "interp/tree_walker.hpp"
#include "ir/builder.hpp"

namespace gcr {
namespace {

constexpr std::int64_t kN = 8;

struct DeclinedCase {
  std::string reason;  ///< compilePlan's reason, verbatim
  ProgramVersion version;
};

/// One statement A[sub] = A[0] in a loop over i in [lo, hi], where `sub`
/// is built from the loop variable.
Program oneLoop(const std::string& name, AffineN hi,
                const std::function<Subscript(IxVar)>& sub, int elemSize = 8) {
  ProgramBuilder b(name);
  const ArrayId a = b.array("A", {AffineN::N()}, elemSize);
  b.loop("i", 0, hi, [&](IxVar i) {
    b.assign(b.ref(a, {sub(i)}), {b.ref(a, {cst(AffineN(0))})});
  });
  return b.take();
}

ProgramVersion contiguous(Program p) {
  return {p.name, std::move(p), [](const Program& q, std::int64_t n) {
            return contiguousLayout(q, n);
          }};
}

std::vector<DeclinedCase> declinedCases() {
  std::vector<DeclinedCase> out;
  const AffineN last = AffineN::N() - AffineN(1);

  // i runs one past the end of A.
  out.push_back({"subscript out of bounds",
                 contiguous(oneLoop("oob", AffineN::N(),
                                    [](IxVar i) { return Subscript(i); }))});
  out.push_back({"constant subscript out of bounds",
                 contiguous(oneLoop("oob-const", last, [](IxVar) {
                   return cst(AffineN::N());
                 }))});

  // Every subscript is within A's extent at n, but the layout holds A at
  // n / 2 only.
  Program inBounds =
      oneLoop("short-layout", last, [](IxVar i) { return Subscript(i); });
  out.push_back({"access outside data segment",
                 {inBounds.name, std::move(inBounds),
                  [](const Program& q, std::int64_t n) {
                    return contiguousLayout(q, n / 2);
                  }}});

  Program innerGuard =
      oneLoop("inner-guard", last, [](IxVar i) { return Subscript(i); });
  innerGuard.top[0].node->loop().body[0].guards = {
      GuardSpec{1, AffineN(0), AffineN(3)}};
  out.push_back({"guard depth beyond nest", contiguous(std::move(innerGuard))});

  Program topGuard =
      oneLoop("top-guard", last, [](IxVar i) { return Subscript(i); });
  topGuard.top[0].guards = {GuardSpec{0, AffineN(0), AffineN(3)}};
  out.push_back({"guard depth beyond nest", contiguous(std::move(topGuard))});

  out.push_back({"subscript depth beyond nest",
                 contiguous(oneLoop("deep-sub", last, [](IxVar) {
                   return Subscript::var(1);
                 }))});

  out.push_back({"plan engine requires 8-byte elements",
                 contiguous(oneLoop("narrow", last,
                                    [](IxVar i) { return Subscript(i); },
                                    /*elemSize=*/4))});
  return out;
}

/// `fn` must throw gcr::Error whose message names `reason`.
void expectThrowsReason(const std::function<void()>& fn,
                        const std::string& reason, const std::string& what) {
  try {
    fn();
    ADD_FAILURE() << what << ": returned instead of throwing";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << what << ": " << e.what();
  }
}

TEST(DeclinedPlan, ExecuteAndTraceThrowTheCompilersReason) {
  for (const DeclinedCase& c : declinedCases()) {
    SCOPED_TRACE(c.version.name);
    const Program& p = c.version.program;
    const DataLayout layout = c.version.layoutAt(kN);
    for (const std::uint64_t t : {std::uint64_t{1}, std::uint64_t{3}}) {
      const ExecOptions opts{.n = kN, .timeSteps = t};
      const PlanCompileResult compiled = compilePlan(p, layout, opts);
      ASSERT_FALSE(compiled.ok());
      EXPECT_EQ(compiled.reason, c.reason);
      expectThrowsReason([&] { (void)compiled.planOrThrow(); }, c.reason,
                         "planOrThrow");
      expectThrowsReason([&] { (void)execute(p, layout, opts); }, c.reason,
                         "execute");
      CountingSink sink;
      expectThrowsReason([&] { trace(p, layout, opts, sink); }, c.reason,
                         "trace");
      EXPECT_EQ(sink.instrs(), 0u);
      EXPECT_EQ(sink.refs(), 0u);
    }
  }
}

TEST(DeclinedPlan, MeasurementsAndProfilesThrowTheCompilersReason) {
  const MachineConfig machine = MachineConfig::origin2000();
  const CacheTopology topology = CacheTopology::symmetric(2).scaledDown(64);
  Engine engine(EngineConfig{.threads = 2, .cacheDir = ""});
  for (const DeclinedCase& c : declinedCases()) {
    SCOPED_TRACE(c.version.name);
    const ProgramVersion& v = c.version;
    expectThrowsReason([&] { (void)measure(v, kN, machine, 3); }, c.reason,
                       "measure()");
    expectThrowsReason([&] { (void)reuseProfileOf(v, kN, 3); }, c.reason,
                       "reuseProfileOf()");
    expectThrowsReason([&] { (void)engine.measure(v, kN, machine, 3); },
                       c.reason, "Engine::measure");
    expectThrowsReason([&] { (void)engine.reuseProfile(v, kN, 3); }, c.reason,
                       "Engine::reuseProfile");
    expectThrowsReason(
        [&] { (void)engine.multicoreProfile(v, kN, topology, 3); }, c.reason,
        "Engine::multicoreProfile");
    // The same through the async entry point, on the pool.
    Future<Reply> f = engine.submit(MeasureTask{v.clone(), kN, machine, 3});
    expectThrowsReason([&] { (void)replyAs<Measurement>(f.get()); }, c.reason,
                       "Engine::submit(MeasureTask)");
  }
  // A failed request caches nothing.
  const Engine::Stats stats = engine.stats();
  EXPECT_EQ(stats.measurement.entries, 0u);
  EXPECT_EQ(stats.profile.entries, 0u);
  EXPECT_EQ(stats.multicore.entries, 0u);
}

TEST(DeclinedPlan, TheRefereeThrowsOnEveryDeclinedProgram) {
  for (const DeclinedCase& c : declinedCases()) {
    SCOPED_TRACE(c.version.name);
    const DataLayout layout = c.version.layoutAt(kN);
    EXPECT_THROW(testing::walkTree(c.version.program, layout, {.n = kN}),
                 Error);
  }
}

}  // namespace
}  // namespace gcr
