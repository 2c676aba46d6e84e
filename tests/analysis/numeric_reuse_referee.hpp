// Numeric reuse scan: the referee for the symbolic reuse analysis.
//
// The same candidate scan as analyzeSymbolicReuse() — the same dependence
// analysis, the same trip-count volume model, the same min-over-candidates
// selection — with every quantity evaluated as an int64 at one concrete
// problem size n.  Evaluating a symbolic profile at n must reproduce this
// scan bit for bit: every histogram bin, the access/cold/reuse totals and
// every per-site distance (expectMatchesReferee).  It has no evadable
// classification; the symbolic pass decides that from formula degrees.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/symbolic_reuse.hpp"
#include "ir/ir.hpp"

namespace gcr::testing {

/// One reference site at n: its reuse class, the distance to its nearest
/// source (0 when cold) and its dynamic access count.
struct NumericSite {
  ReuseClass cls = ReuseClass::Cold;
  std::uint64_t distance = 0;
  std::uint64_t count = 0;
};

/// Scan `p` at problem size n, with dependences decided over n >= minN: one
/// entry per reference site, in collectRefSites() order.
std::vector<NumericSite> numericReuseScan(const Program& p, std::int64_t n,
                                          std::int64_t minN = 16);

/// Expect evaluateSymbolicProfile(sym, n) — `sym` being the analysis of `p`
/// — to reproduce the scan at n on every site that kept its formulas: each
/// site's count and distance (cold exactly where the scan finds no source),
/// and every histogram bin and the access/cold/reuse totals summed over
/// those sites.  The bailed sites' scan counts must add up to
/// bailedAccesses.  A fully symbolic profile is thus compared whole.
void expectMatchesReferee(const Program& p, const SymbolicReuseProfile& sym,
                          std::int64_t n);

}  // namespace gcr::testing
