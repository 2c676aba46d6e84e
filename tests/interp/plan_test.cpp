// Differential tests: the compiled-plan engine must be indistinguishable
// from the tree-walking referee (tree_walker.hpp) — byte-identical memory
// images, instruction counts, and instruction traces, valued
// (executePlan) and address-only (trace()) — across every registry app,
// contiguous and regrouped layouts, reversed loops, guards and statement
// embedding, multiple time steps, and a fuzz sweep of random programs.
#include "interp/plan.hpp"

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "common/random_program.hpp"
#include "driver/pipeline.hpp"
#include "fusion/fusion.hpp"
#include "interp/interp.hpp"
#include "interp/tree_walker.hpp"
#include "ir/builder.hpp"

namespace gcr {
namespace {

// Returns the index of the first differing trace instance, or -1.
std::ptrdiff_t firstTraceMismatch(const InstrTrace& a, const InstrTrace& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.stmtId(i) != b.stmtId(i) || a.writeAddr(i) != b.writeAddr(i))
      return static_cast<std::ptrdiff_t>(i);
    const auto ra = a.reads(i);
    const auto rb = b.reads(i);
    if (!std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
      return static_cast<std::ptrdiff_t>(i);
  }
  return -1;
}

void expectEnginesIdentical(const Program& p, const DataLayout& layout,
                            const ExecOptions& opts) {
  const PlanCompileResult compiled = compilePlan(p, layout, opts);
  ASSERT_TRUE(compiled.ok())
      << "program must qualify for the plan engine: " << compiled.reason;
  InstrTrace walkTrace;
  const ExecResult walk = testing::walkTree(p, layout, opts, &walkTrace);
  InstrTrace planTrace;
  const ExecResult plan = executePlan(*compiled.plan, opts, &planTrace);
  InstrTrace addressTrace;
  trace(p, layout, opts, addressTrace);

  EXPECT_EQ(walk.instrCount, plan.instrCount);
  EXPECT_EQ(walk.memory, plan.memory);
  ASSERT_EQ(walkTrace.size(), planTrace.size());
  EXPECT_EQ(firstTraceMismatch(walkTrace, planTrace), -1);
  ASSERT_EQ(walkTrace.size(), addressTrace.size());
  EXPECT_EQ(firstTraceMismatch(walkTrace, addressTrace), -1);
}

void expectEnginesIdentical(const ProgramVersion& v, std::int64_t n,
                            std::uint64_t timeSteps = 1) {
  DataLayout layout = v.layoutAt(n);
  expectEnginesIdentical(v.program, layout,
                         {.n = n, .timeSteps = timeSteps});
}

TEST(PlanDifferential, RegistryAppsContiguous) {
  for (const auto& app : apps::evaluationApps()) {
    SCOPED_TRACE(app.name);
    expectEnginesIdentical(makeVersion(apps::buildApp(app.name), Strategy::NoOpt), 24);
  }
  expectEnginesIdentical(makeVersion(apps::buildApp("Sweep3D"), Strategy::NoOpt), 16);
}

TEST(PlanDifferential, RegistryAppsTransformedAndRegrouped) {
  // Fused programs exercise guards/alignment windows; regrouping exercises
  // non-contiguous (interleaved) layouts; SGI-like exercises padded layouts
  // plus local fusion.
  for (const auto& app : apps::evaluationApps()) {
    SCOPED_TRACE(app.name);
    Program p = apps::buildApp(app.name);
    expectEnginesIdentical(makeVersion(p, Strategy::Fused), 24);
    expectEnginesIdentical(makeVersion(p, Strategy::FusedRegrouped), 24);
    expectEnginesIdentical(makeVersion(p, Strategy::SgiLike), 24);
  }
}

TEST(PlanDifferential, TimeStepsRepeatIdentically) {
  for (const auto& app : apps::evaluationApps()) {
    SCOPED_TRACE(app.name);
    Program p = apps::buildApp(app.name);
    const std::int64_t n = app.name == "SP" ? 10 : 20;
    expectEnginesIdentical(makeVersion(p, Strategy::NoOpt), n, /*timeSteps=*/3);
    expectEnginesIdentical(makeVersion(p, Strategy::FusedRegrouped), n, /*timeSteps=*/3);
  }
}

TEST(PlanDifferential, ReversedLoops) {
  ProgramBuilder b("rev");
  ArrayId a = b.array("A", {AffineN::N() + 2});
  b.loopDown("i", 1, AffineN::N(),
             [&](IxVar i) { b.assign(b.ref(a, {i}), {b.ref(a, {i + 1})}); });
  b.loop("j", 1, AffineN::N(),
         [&](IxVar j) { b.assign(b.ref(a, {j}), {b.ref(a, {j - 1})}); });
  Program p = b.take();
  expectEnginesIdentical(p, contiguousLayout(p, 32), {.n = 32});
}

TEST(PlanDifferential, GuardsAndStatementEmbedding) {
  // Guarded members at the innermost depth (alignment windows + a width-one
  // embedding guard), on forward and reversed loops.
  for (bool reversed : {false, true}) {
    SCOPED_TRACE(reversed ? "reversed" : "forward");
    ProgramBuilder b("guards");
    ArrayId a = b.array("A", {AffineN::N() + 4});
    ArrayId c = b.array("B", {AffineN::N() + 4});
    auto body = [&](IxVar i) {
      b.assign(b.ref(a, {i}), {b.ref(c, {i})});
      b.assign(b.ref(c, {i + 1}), {b.ref(a, {i})});
      b.assign(b.ref(a, {i + 2}), {b.ref(c, {i})});
    };
    if (reversed)
      b.loopDown("i", 0, AffineN::N(), body);
    else
      b.loop("i", 0, AffineN::N(), body);
    Program p = b.take();
    Loop& l = p.top[0].node->loop();
    l.body[0].guards = {GuardSpec{0, AffineN(2), AffineN::N() - AffineN(1)}};
    l.body[1].guards = {GuardSpec{0, AffineN(5), AffineN(5)}};  // embedding
    // Third member unguarded: the active set changes across sub-ranges.
    expectEnginesIdentical(p, contiguousLayout(p, 24), {.n = 24});
  }
}

TEST(PlanDifferential, FusedBorderStatementsAndReversedPairs) {
  // Figure 4(a)-style fusion (guards plus embedded border statements) and a
  // backward recurrence pair, each before and after fuseProgram.
  ProgramBuilder b("fig4a");
  ArrayId a = b.array("A", {AffineN::N() + AffineN(1)});
  ArrayId c = b.array("B", {AffineN::N() + AffineN(1)});
  b.loop("i", 3, AffineN::N() - AffineN(2),
         [&](IxVar i) { b.assign(b.ref(a, {i}), {b.ref(a, {i - 1})}); });
  b.assign(b.ref(a, {cst(1)}), {b.ref(a, {cst(AffineN::N())})});
  b.assign(b.ref(a, {cst(2)}), {});
  b.loop("i", 3, AffineN::N(),
         [&](IxVar i) { b.assign(b.ref(c, {i}), {b.ref(a, {i - 2})}); });
  const Program fig4a = fuseProgram(b.take());
  expectEnginesIdentical(fig4a, contiguousLayout(fig4a, 33),
                         {.n = 33, .timeSteps = 3});

  ProgramBuilder r("reversed");
  ArrayId ra = r.array("A", {AffineN::N() + AffineN(2)});
  ArrayId rc = r.array("B", {AffineN::N() + AffineN(2)});
  r.loopDown("i", 1, AffineN::N(),
             [&](IxVar i) { r.assign(r.ref(ra, {i}), {r.ref(ra, {i + 1})}); });
  r.loopDown("i", 1, AffineN::N(),
             [&](IxVar i) { r.assign(r.ref(rc, {i}), {r.ref(ra, {i})}); });
  const Program reversed = r.take();
  const Program fused = fuseProgram(reversed);
  expectEnginesIdentical(reversed, contiguousLayout(reversed, 25),
                         {.n = 25, .timeSteps = 3});
  expectEnginesIdentical(fused, contiguousLayout(fused, 25),
                         {.n = 25, .timeSteps = 3});
}

TEST(PlanDifferential, OuterDepthGuardOnInnerStatement) {
  // A statement two levels deep, guarded on the *outer* loop variable — the
  // residual runtime-guard path (checked once per inner-loop entry).
  ProgramBuilder b("outer-guard");
  ArrayId a = b.array("T", {AffineN::N() + 2, AffineN::N() + 2});
  b.loop2("i", 0, AffineN::N(), "j", 0, AffineN::N(),
          [&](IxVar i, IxVar j) {
            b.assign(b.ref(a, {i, j}), {});
            b.assign(b.ref(a, {i + 1, j + 1}), {b.ref(a, {i, j})});
          });
  Program p = b.take();
  Loop& inner = p.top[0].node->loop().body[0].node->loop();
  inner.body[1].guards = {GuardSpec{0, AffineN(3), AffineN(7)},
                          GuardSpec{1, AffineN(2), AffineN::N() - AffineN(2)}};
  expectEnginesIdentical(p, contiguousLayout(p, 16), {.n = 16});
}

TEST(PlanDifferential, EmptyGuardRangeDropsChild) {
  Program p = [&] {
    ProgramBuilder b("empty-guard");
    ArrayId a = b.array("A", {AffineN::N()});
    b.loop("i", 0, AffineN::N() - AffineN(1), [&](IxVar i) {
      b.assign(b.ref(a, {i}), {});
      b.assign(b.ref(a, {i}), {b.ref(a, {i})});
    });
    return b.take();
  }();
  // Second member guarded to an empty range: never executes on either engine.
  p.top[0].node->loop().body[1].guards = {GuardSpec{0, AffineN(9), AffineN(3)}};
  expectEnginesIdentical(p, contiguousLayout(p, 16), {.n = 16});
}

TEST(PlanDifferential, CustomInitValue) {
  Program p = apps::buildApp("Swim");
  DataLayout layout = contiguousLayout(p, 20);
  ExecOptions opts{.n = 20};
  opts.initValue = [](ArrayId a, std::span<const std::int64_t> idx) {
    std::uint64_t v = static_cast<std::uint64_t>(a) * 1000003u;
    for (std::int64_t i : idx) v = v * 31 + static_cast<std::uint64_t>(i);
    return v;
  };
  expectEnginesIdentical(p, layout, opts);
}

TEST(PlanCompile, RegistryAppsQualify) {
  // The plan engine must be the default for every published measurement.
  for (const auto& app : apps::evaluationApps()) {
    Program p = apps::buildApp(app.name);
    for (const ProgramVersion& v :
         {makeVersion(p, Strategy::NoOpt), makeVersion(p, Strategy::Fused), makeVersion(p, Strategy::FusedRegrouped), makeVersion(p, Strategy::SgiLike)}) {
      SCOPED_TRACE(app.name + "/" + v.name);
      DataLayout layout = v.layoutAt(24);
      const PlanCompileResult r =
          compilePlan(v.program, layout, {.n = 24});
      EXPECT_TRUE(r.ok()) << r.reason;
    }
  }
}

TEST(PlanCompile, ExactDynamicCountsMatchExecution) {
  Program p = apps::buildApp("Tomcatv");
  DataLayout layout = contiguousLayout(p, 24);
  const PlanCompileResult r = compilePlan(p, layout, {.n = 24});
  ASSERT_TRUE(r.ok()) << r.reason;
  CountingSink sink;
  const ExecResult res = testing::walkTree(p, layout, {.n = 24}, &sink);
  EXPECT_EQ(r.plan->instrsPerStep, res.instrCount);
  EXPECT_EQ(r.plan->readsPerStep + r.plan->instrsPerStep, sink.refs());
}

class PlanFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlanFuzz, RandomProgramsIdentical) {
  testing::RandomProgramOptions opts;
  opts.allowTwoDim = true;
  opts.allowReversed = true;
  Program p = testing::randomProgram(GetParam(), opts);
  expectEnginesIdentical(p, contiguousLayout(p, 21), {.n = 21});
  expectEnginesIdentical(p, paddedLayout(p, 21, 96), {.n = 21});
  // Push each random program through the optimizer too: fused output is the
  // guard-heavy IR the plan engine must get right.
  expectEnginesIdentical(makeVersion(p, Strategy::FusedRegrouped), 21);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanFuzz,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace gcr
