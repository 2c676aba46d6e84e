// Fuzz contract: statically legal => the optimized program is byte-identical
// between the tree-walking referee (tests/interp/tree_walker.hpp) and
// execute()'s compiled plan, and semantically identical to the original.
// 20 random programs through the full pipeline with legality consultation
// on.
#include <gtest/gtest.h>

#include "analysis/legality.hpp"
#include "common/random_program.hpp"
#include "driver/pipeline.hpp"
#include "interp/interp.hpp"
#include "interp/layout.hpp"
#include "interp/tree_walker.hpp"

namespace gcr {
namespace {

std::vector<std::uint64_t> contents(const Program& p, std::int64_t n,
                                    const ExecResult& r) {
  const DataLayout l = contiguousLayout(p, n);
  std::vector<std::uint64_t> all;
  for (std::size_t a = 0; a < p.arrays.size(); ++a)
    for (std::uint64_t v :
         extractArray(r, l, p, static_cast<ArrayId>(a), n))
      all.push_back(v);
  return all;
}

/// The referee's final array contents of `p` at size n.
std::vector<std::uint64_t> walked(const Program& p, std::int64_t n) {
  return contents(p, n, testing::walkTree(p, contiguousLayout(p, n), {.n = n}));
}

/// execute()'s final array contents of `p` at size n.
std::vector<std::uint64_t> executed(const Program& p, std::int64_t n) {
  return contents(p, n, execute(p, contiguousLayout(p, n), {.n = n}));
}

class VerifyFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VerifyFuzz, LegalMeansEnginesAgreeAfterTransform) {
  testing::RandomProgramOptions rpo;
  rpo.allowTwoDim = true;
  rpo.allowReversed = true;
  const Program p = testing::randomProgram(GetParam(), rpo);

  // The generator emits only valid programs: verification must not error.
  const VerifyResult v = verifyProgram(p, p.name);
  EXPECT_FALSE(anyErrors(v.diags));

  PipelineResult r = runPipeline(p);
  EXPECT_FALSE(anyErrors(r.diagnostics));

  const std::int64_t n = 20;
  // The applied transforms preserve semantics...
  EXPECT_EQ(walked(p, n), walked(r.program, n));
  // ...and the plan agrees with the referee bit-for-bit on the result.
  EXPECT_EQ(walked(r.program, n), executed(r.program, n));
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifyFuzz,
                         ::testing::Range<std::uint64_t>(1000, 1020));

}  // namespace
}  // namespace gcr
