// Adversarial corpus pinning the bail-out taxonomy: every program here MUST
// bail with the named reason (never a silently wrong formula), evaluation
// must exclude and count the bailed mass, and the sites that keep their
// formulas must still match the numeric referee.
#include <gtest/gtest.h>

#include "analysis/symbolic_reuse.hpp"
#include "numeric_reuse_referee.hpp"

namespace gcr {
namespace {

Child childOf(Assign a) {
  Child c;
  c.node = makeNode(std::move(a));
  return c;
}

/// for i = 8, N-1:  A[i] = ...;  B[i] = A[i + (N-20)]
/// The dependence delta N-20 is negative at n=16 and positive at n=32: the
/// nearest source flips between problem sizes, so no single formula exists.
Program signIndeterminateProgram() {
  Program p;
  p.name = "adv-shift";
  p.arrays.push_back({"A", {AffineN::N() + AffineN::N()}});
  p.arrays.push_back({"B", {AffineN::N() + AffineN(4)}});
  Loop l{"i", AffineN(8), AffineN::N() - AffineN(1), false, {}};
  Assign s0;
  s0.lhs = {0, {Subscript::var(0)}};
  Assign s1;
  s1.lhs = {1, {Subscript::var(0)}};
  s1.rhs = {ArrayRef{0, {Subscript::var(0, AffineN::N() - AffineN(20))}}};
  l.body.push_back(childOf(std::move(s0)));
  l.body.push_back(childOf(std::move(s1)));
  Child top;
  top.node = makeNode(std::move(l));
  p.top.push_back(std::move(top));
  p.renumber();
  return p;
}

/// for i = 24, N+10: { [guard N <= i <= N+5] C[i] = C[i];  D[i] = D[i] }
/// The guard's lower bound N is incomparable with the loop bound 24 over
/// n >= 16, so the collector over-approximates the guarded site's range.
Program incomparableGuardProgram() {
  Program p;
  p.name = "adv-guard";
  p.arrays.push_back({"C", {AffineN::N() + AffineN(16)}});
  p.arrays.push_back({"D", {AffineN::N() + AffineN(16)}});
  Loop l{"i", AffineN(24), AffineN::N() + AffineN(10), false, {}};
  Assign s0;
  s0.lhs = {0, {Subscript::var(0)}};
  s0.rhs = {ArrayRef{0, {Subscript::var(0)}}};
  Child guarded = childOf(std::move(s0));
  guarded.guards.push_back({0, AffineN::N(), AffineN::N() + AffineN(5)});
  l.body.push_back(std::move(guarded));
  Assign s1;
  s1.lhs = {1, {Subscript::var(0)}};
  s1.rhs = {ArrayRef{1, {Subscript::var(0)}}};
  l.body.push_back(childOf(std::move(s1)));
  Child top;
  top.node = makeNode(std::move(l));
  p.top.push_back(std::move(top));
  p.renumber();
  return p;
}

TEST(SymbolicBailout, SignIndeterminateDeltaIsNamedAndFormulaFree) {
  const Program p = signIndeterminateProgram();
  const SymbolicReuseProfile sym = analyzeSymbolicReuse(p);
  EXPECT_FALSE(sym.fullySymbolic());
  const auto counts = sym.bailoutCounts();
  ASSERT_TRUE(counts.count("sign-indeterminate-delta"));
  EXPECT_GE(counts.at("sign-indeterminate-delta"), 2u);  // both endpoints
  for (std::size_t i = 0; i < sym.perSite.size(); ++i) {
    if (sym.perSite[i].bailout == SymbolicBailout::None) continue;
    EXPECT_EQ(sym.perSite[i].bailout,
              SymbolicBailout::SignIndeterminateDelta);
    EXPECT_FALSE(sym.perSite[i].distance.valid())
        << "bailed site " << sym.sites[i].text << " kept a formula";
    EXPECT_EQ(sym.sites[i].array, 0) << "only A's sites flip";
  }
}

TEST(SymbolicBailout, IncomparableGuardIsNamedAndScopedToGuardedSites) {
  const Program p = incomparableGuardProgram();
  const SymbolicReuseProfile sym = analyzeSymbolicReuse(p);
  EXPECT_FALSE(sym.fullySymbolic());
  const auto counts = sym.bailoutCounts();
  ASSERT_TRUE(counts.count("incomparable-guard"));
  EXPECT_GE(counts.at("incomparable-guard"), 2u);  // C[i] write and read
  for (std::size_t i = 0; i < sym.perSite.size(); ++i) {
    const bool bailed = sym.perSite[i].bailout != SymbolicBailout::None;
    // D's sites are unguarded and must stay symbolic.
    if (sym.sites[i].array == 1) {
      EXPECT_FALSE(bailed) << sym.sites[i].text;
    }
    if (bailed) {
      EXPECT_EQ(sym.perSite[i].bailout, SymbolicBailout::IncomparableGuard);
    }
  }
}

TEST(SymbolicBailout, PureEvaluationExcludesBailedMass) {
  const SymbolicReuseProfile sym =
      analyzeSymbolicReuse(signIndeterminateProgram());
  const SymbolicEvaluation ev = evaluateSymbolicProfile(sym, 64);
  EXPECT_GT(ev.bailedAccesses, 0u);
  // Accounting identity on the clean mass.
  EXPECT_EQ(ev.accesses, ev.cold + ev.totalReuses);
}

TEST(SymbolicBailout, CleanSitesMatchReferee) {
  // A bail-out withholds formulas from the named sites only: every other
  // site keeps the referee's count and distance, and the bailed sites' trip
  // counts land in bailedAccesses — including at sizes where the shift
  // N-20 is negative (16), zero (20) and positive.
  std::vector<Program> corpus;
  corpus.push_back(signIndeterminateProgram());
  corpus.push_back(incomparableGuardProgram());
  for (const Program& p : corpus) {
    const SymbolicReuseProfile sym = analyzeSymbolicReuse(p);
    ASSERT_FALSE(sym.fullySymbolic()) << p.name;
    ASSERT_LT(sym.bailedSites(), sym.perSite.size()) << p.name;
    for (const std::int64_t n : {16, 20, 32, 64})
      testing::expectMatchesReferee(p, sym, n);
  }
}

TEST(SymbolicBailout, ReasonNamesAreStable) {
  EXPECT_STREQ(symbolicBailoutName(SymbolicBailout::None), "none");
  EXPECT_STREQ(symbolicBailoutName(SymbolicBailout::SignIndeterminateDelta),
               "sign-indeterminate-delta");
  EXPECT_STREQ(symbolicBailoutName(SymbolicBailout::IncomparableGuard),
               "incomparable-guard");
}

}  // namespace
}  // namespace gcr
