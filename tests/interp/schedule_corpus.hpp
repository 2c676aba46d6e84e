// The program corpus of the schedule differential suites
// (schedule_test.cpp, schedule_referee_test.cpp): every evaluation app under
// five strategies, and random programs with 2-D nests and reversed loops,
// both as generated and after fusion + regrouping (the guard-heavy case).
// Every case is compiled at an odd n with two time steps unless it asks for
// more, small enough that 64 cores exceed every loop's trip count.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "apps/registry.hpp"
#include "common/random_program.hpp"
#include "driver/pipeline.hpp"
#include "interp/plan.hpp"
#include "interp/trace.hpp"

namespace gcr::testing {

inline constexpr Strategy kCorpusStrategies[] = {
    Strategy::NoOpt, Strategy::SgiLike, Strategy::Fused,
    Strategy::FusedRegrouped, Strategy::RegroupedOnly};
inline constexpr std::uint64_t kCorpusFuzzSeeds = 100;

/// One compiled corpus entry.  Built in place and never moved: the plan
/// borrows `version.program` and `layout`.
struct CorpusCase {
  std::string name;
  ProgramVersion version;
  DataLayout layout;
  ExecOptions opts;
  PlanCompileResult compiled;

  CorpusCase(std::string caseName, ProgramVersion v, std::int64_t n,
             std::uint64_t timeSteps = 2)
      : name(std::move(caseName)),
        version(std::move(v)),
        layout(version.layoutAt(n)),
        opts{.n = n, .timeSteps = timeSteps},
        compiled(compilePlan(version.program, layout, opts)) {}
  CorpusCase(const CorpusCase&) = delete;
  CorpusCase& operator=(const CorpusCase&) = delete;

  const AccessPlan& plan() const { return *compiled.plan; }
};

/// fn(const CorpusCase&) for every evaluation app x kCorpusStrategies.
template <class Fn>
void forEachRegistryCase(Fn&& fn) {
  for (const apps::AppInfo& app : apps::evaluationApps()) {
    const Program p = app.build();
    // SP's nests are 3-D: a smaller odd n keeps its streams the size of
    // the 2-D apps'.
    const std::int64_t n = app.name == "SP" ? 9 : 15;
    for (Strategy s : kCorpusStrategies) {
      const CorpusCase c(app.name + "/" + versionNameFor(s),
                         makeVersion(p, s), n);
      ASSERT_TRUE(c.compiled.ok()) << c.name << ": " << c.compiled.reason;
      fn(c);
    }
  }
}

/// fn(const CorpusCase&) for randomProgram seeds 1..kCorpusFuzzSeeds with
/// 2-D nests and reversed loops, as generated (NoOpt) or after
/// FusedRegrouped.
template <class Fn>
void forEachFuzzCase(Strategy s, Fn&& fn) {
  RandomProgramOptions opts;
  opts.allowTwoDim = true;
  opts.allowReversed = true;
  for (std::uint64_t seed = 1; seed <= kCorpusFuzzSeeds; ++seed) {
    const CorpusCase c("seed " + std::to_string(seed) + "/" + versionNameFor(s),
                       makeVersion(randomProgram(seed, opts), s), 13);
    ASSERT_TRUE(c.compiled.ok()) << c.name << ": " << c.compiled.reason;
    fn(c);
  }
}

/// Index of the first instance where the two streams differ in statement
/// id, reads (in order) or write; the shorter stream's size if one is a
/// prefix of the other; -1 when they are identical.
inline std::int64_t firstStreamMismatch(const InstrTrace& a,
                                        const InstrTrace& b) {
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    const auto ra = a.reads(i);
    const auto rb = b.reads(i);
    if (a.stmtId(i) != b.stmtId(i) || a.writeAddr(i) != b.writeAddr(i) ||
        !std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
      return static_cast<std::int64_t>(i);
  }
  return a.size() == b.size() ? -1 : static_cast<std::int64_t>(common);
}

}  // namespace gcr::testing
