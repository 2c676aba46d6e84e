// Symbolic reuse profiles: the static reuse estimator (Sections 2.1-2.2,
// predicted rather than measured), in closed form.
//
// The dynamic side of this repo measures reuse distances by running the
// program (locality/reuse_distance.hpp).  analyzeSymbolicReuse() predicts
// the same log2-binned histogram from loop bounds and subscripts alone, as
// formulas in the symbolic problem size N (and time-step count T):
//
//   1. every reference site contributes trip-count(site) dynamic accesses;
//   2. each site's *reuse source* — the access that most recently touched
//      the same element — is found by scanning the dependence (and input-
//      reuse) edges from the affine analyzer; the site's distance is the
//      Min over the candidates' formulas, so evaluating at a concrete N
//      selects the nearest source at that N;
//   3. the distance of a reuse class is a volume product:
//        same-iteration   ~ references executed between the two sites;
//        loop-carried(d)  ~ d x (distinct data touched per iteration of the
//                           carrying loop);
//        cross-unit       ~ footprints of the units executed in between;
//      sites with no source are cold (first touches);
//   4. a class is *evadable* (Section 2.2) when its distance grows with N —
//      decided from the formula's degree in N, or, when the degree is
//      indeterminate, by its growth from minN to 2*minN.
//
// One analysis answers a whole size sweep: evaluateSymbolicProfile() turns
// the formulas into the histogram at any n >= minN, and miss-rate curves
// miss(C, N) fall out of the reuse-distance CDF for any capacity C.  The
// result is a spiky histogram (each class lands on one bin) that tracks the
// measured one closely enough for the CDF gate of gcr-verify --symbolic
// (compareHistograms, support/histogram.hpp).  The tests hold the formulas
// bit-for-bit to a numeric scan evaluated at concrete sizes.
//
// Bail-outs.  Two (and only two) situations admit no single all-N formula:
//
//   sign-indeterminate-delta — a dependence delta changes sign (or crosses
//       zero) within the analysis domain n >= minN: the nearest-source
//       *selection* itself flips between problem sizes mid-level, which the
//       per-site Min cannot express.  Both endpoint sites bail.
//   incomparable-guard — a guard's bounds are incomparable with the
//       enclosing range, so the collector over-approximated the site's
//       active range (dependence.cpp) and every volume formula touching the
//       site inherits an error of unknown direction.
//
// A bailed site keeps NO distance formula (never a silently wrong one); its
// verdict carries the reason code, and evaluation excludes its mass and
// counts it in SymbolicEvaluation::bailedAccesses.  gcr-verify --symbolic
// and bench_symbolic_sweep fail on a program with bailed sites.
//
// Dependences the analyzer answers Unknown do NOT bail: the per-level deltaN
// constraints still bound them, and such sites are merely counted
// `imprecise` for reporting.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/symexpr.hpp"
#include "ir/ir.hpp"
#include "support/histogram.hpp"

namespace gcr {

enum class ReuseClass { Cold, SameIteration, LoopCarried, CrossUnit };

const char* reuseClassName(ReuseClass c);

enum class SymbolicBailout : std::uint8_t {
  None = 0,
  SignIndeterminateDelta = 1,
  IncomparableGuard = 2,
};

const char* symbolicBailoutName(SymbolicBailout b);

struct SymbolicReuseOptions {
  std::int64_t minN = 16;  ///< formulas are valid for every n >= minN
};

/// Self-contained site descriptor (no pointers into the analyzed Program, so
/// profiles survive the Engine cache and the persistent store).
struct SymbolicSiteInfo {
  int stmtId = -1;
  ArrayId array = -1;
  bool isWrite = false;
  /// Operand position within the statement: 0..R-1 for the reads in order,
  /// R for the write (the order InstrSink::onInstr reports them in).
  int operand = 0;
  std::string loc;   ///< loop path, e.g. "i/j"
  std::string text;  ///< printed reference, e.g. "A[i+1][j]"
};

struct SymbolicSiteProfile {
  ReuseClass cls = ReuseClass::Cold;
  int carryLevel = -1;
  SymbolicBailout bailout = SymbolicBailout::None;
  /// Reuse distance as min over candidate formulas; null when Cold or
  /// bailed.  Valid for every n >= minN.
  SymExpr distance;
  /// Dynamic accesses of the site per time step (trip-count product).  For
  /// a bailed site this is an accounting estimate only (its active range
  /// may be over-approximated).
  SymExpr count;
  /// Asymptotic degree of `distance` in N; nullopt when indeterminate or
  /// when there is no distance.
  std::optional<int> degree;
  /// Distance grows with N (Section 2.2): decided from `degree` when
  /// available, else by numeric growth between minN and 2*minN.
  bool evadable = false;
  /// Some candidate came from a dependence the analyzer answered Unknown.
  bool imprecise = false;
};

struct SymbolicReuseProfile {
  std::int64_t minN = 16;
  std::vector<SymbolicSiteInfo> sites;
  std::vector<SymbolicSiteProfile> perSite;  ///< parallel to `sites`
  /// Total distinct elements the program touches (sum of per-array max-
  /// merged footprints) — the cross-time-step reuse distance for T > 1.
  SymExpr footprint;

  std::uint64_t bailedSites() const;
  std::uint64_t impreciseSites() const;
  bool fullySymbolic() const { return bailedSites() == 0; }
  /// Named bail-out census, e.g. {"sign-indeterminate-delta": 2}.
  std::map<std::string, std::uint64_t> bailoutCounts() const;
};

/// Run the symbolic candidate scan.  Site order matches collectRefSites()
/// (textual, reads before the write), so index i corresponds to
/// collectRefSites(p, o.minN)[i].
SymbolicReuseProfile analyzeSymbolicReuse(const Program& p,
                                          const SymbolicReuseOptions& o = {});

/// A profile materialized at one concrete (n, timeSteps).
struct SymbolicEvaluation {
  Log2Histogram histogram;  ///< finite reuse distances, log2-binned
  std::uint64_t accesses = 0;
  std::uint64_t cold = 0;
  std::uint64_t totalReuses = 0;
  std::uint64_t evadableReuses = 0;
  /// Mass belonging to bailed sites, estimated from trip counts and
  /// excluded from the totals above.
  std::uint64_t bailedAccesses = 0;
};

/// Evaluate every clean site's formulas at (n, timeSteps).  At timeSteps ==
/// 1 each site's mass lands at its distance formula's value at n; for
/// timeSteps > 1 each per-step class repeats and a cold site's passes 2..T
/// re-touch their elements at ~footprint distance.
SymbolicEvaluation evaluateSymbolicProfile(const SymbolicReuseProfile& p,
                                           std::int64_t n,
                                           std::uint64_t timeSteps = 1);

/// Miss rate of a perfect cache of `capacity` elements at size n: the
/// fraction of (clean-site) reuses with distance >= capacity.  Exact on the
/// formulas — no histogram binning.
double symbolicMissRate(const SymbolicReuseProfile& p, std::uint64_t capacity,
                        std::int64_t n, std::uint64_t timeSteps = 1);

}  // namespace gcr
