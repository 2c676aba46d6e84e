#include "analysis/symbolic_reuse.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "analysis/dependence.hpp"
#include "support/assert.hpp"

namespace gcr {

namespace {

/// Growth factor between minN and 2*minN above which a distance of
/// indeterminate degree counts as evadable.
constexpr double kEvadableFallbackGrowth = 1.5;

/// The volume model: trip counts, per-iteration loop volumes and per-child
/// subtree footprints as SymExprs.  Per-array footprints merge by max
/// (references to one array overlap up to constant shifts, so max — not
/// sum — models the union).
struct SymVolumeModel {
  std::int64_t minN = 16;
  std::map<const Loop*, SymExpr> iterVol;
  std::map<const Child*, SymExpr> childVol;
  SymExpr totalFoot;                ///< sum of per-array max-merged footprints
  std::vector<SymExpr> siteIters;   ///< dynamic accesses per site (per step)

  SymExpr trip(const RefSite& s, std::size_t depth) const {
    return symMax(symConst(0),
                  symAffine(s.actHi[depth] - s.actLo[depth] + AffineN{1}),
                  minN);
  }

  SymExpr refVolume(const RefSite& s, int rootDepth) const {
    SymExpr vol = symConst(1);
    for (const Subscript& sub : s.ref->subs) {
      if (sub.isConstant() || sub.depth < rootDepth) continue;
      vol = symMul(vol, symMax(symConst(1),
                               trip(s, static_cast<std::size_t>(sub.depth)),
                               minN));
    }
    return vol;
  }

  static SymVolumeModel build(const std::vector<RefSite>& sites,
                              std::int64_t minN) {
    SymVolumeModel m;
    m.minN = minN;
    m.siteIters.reserve(sites.size());
    using Foot = std::map<ArrayId, SymExpr>;
    Foot arrayFoot;
    std::map<const Loop*, Foot> loopFoot;
    std::map<const Child*, Foot> childFoot;
    for (const RefSite& s : sites) {
      SymExpr iters = symConst(1);
      for (std::size_t d = 0; d < s.stack.size(); ++d)
        iters = symMul(iters, m.trip(s, d));
      m.siteIters.push_back(iters);

      auto bump = [&](Foot& f, const SymExpr& v) {
        auto [it, fresh] = f.emplace(s.array, v);
        if (!fresh) it->second = symMax(it->second, v, minN);
      };
      bump(arrayFoot, m.refVolume(s, 0));
      for (std::size_t k = 0; k < s.stack.size(); ++k)
        bump(loopFoot[s.stack[k]], m.refVolume(s, static_cast<int>(k) + 1));
      for (std::size_t k = 0; k < s.childPath.size(); ++k)
        bump(childFoot[s.childPath[k]], m.refVolume(s, static_cast<int>(k)));
    }
    auto totalOf = [](const Foot& f) {
      SymExpr sum = symConst(0);
      for (const auto& [a, v] : f) sum = symAdd(sum, v);
      return sum;
    };
    for (const auto& [l, f] : loopFoot) m.iterVol[l] = totalOf(f);
    for (const auto& [c, f] : childFoot) m.childVol[c] = totalOf(f);
    m.totalFoot = totalOf(arrayFoot);
    return m;
  }

  SymExpr volOfChild(const Child* c) const {
    const auto it = childVol.find(c);
    return it == childVol.end() ? symConst(0) : it->second;
  }
};

/// Replay the site collector's guard narrowing (dependence.cpp
/// SiteCollector::visitChild) and report whether any guard was incomparable
/// with the enclosing range — the case the collector silently
/// over-approximates, which a closed-form volume cannot absorb.
bool hasIncomparableGuard(const RefSite& s, std::int64_t minN) {
  std::vector<AffineN> lo, hi;
  for (std::size_t k = 0; k < s.childPath.size(); ++k) {
    for (const GuardSpec& g : s.childPath[k]->guards) {
      const auto d = static_cast<std::size_t>(g.depth);
      if (d >= lo.size()) continue;
      const bool loComparable = definitelyLessEq(lo[d], g.lo, minN) ||
                                definitelyLessEq(g.lo, lo[d], minN);
      const bool hiComparable = definitelyLessEq(g.hi, hi[d], minN) ||
                                definitelyLessEq(hi[d], g.hi, minN);
      if (!loComparable || !hiComparable) return true;
      if (definitelyLessEq(lo[d], g.lo, minN)) lo[d] = g.lo;
      if (definitelyLessEq(g.hi, hi[d], minN)) hi[d] = g.hi;
    }
    if (k < s.stack.size()) {
      lo.push_back(s.stack[k]->lo);
      hi.push_back(s.stack[k]->hi);
    }
  }
  return false;
}

/// Per-site candidate accumulator: the final distance is min over all
/// offered formulas; the class label is the candidate minimizing the value
/// at minN (first offer wins ties).
struct SiteCandidates {
  std::vector<SymExpr> distances;
  std::int64_t bestAtMinN = std::numeric_limits<std::int64_t>::max();
  ReuseClass cls = ReuseClass::Cold;
  int carryLevel = -1;

  void offer(ReuseClass c, int level, SymExpr dist, std::int64_t minN) {
    const std::int64_t v = dist.eval(minN);
    if (v < bestAtMinN) {
      bestAtMinN = v;
      cls = c;
      carryLevel = level;
    }
    distances.push_back(std::move(dist));
  }
};

/// One site's mass at a concrete (n, t): the shared materialization behind
/// evaluate/missRate.
struct MassEntry {
  std::uint64_t dist = 0;
  std::uint64_t count = 0;
  bool evadable = false;
};

struct Materialized {
  std::vector<MassEntry> mass;
  std::uint64_t accesses = 0;
  std::uint64_t cold = 0;
  std::uint64_t bailedAccesses = 0;
};

std::uint64_t clampCount(std::int64_t v) {
  return v < 0 ? 0 : static_cast<std::uint64_t>(v);
}

Materialized materialize(const SymbolicReuseProfile& p, std::int64_t n,
                         std::uint64_t timeSteps) {
  GCR_CHECK(n >= p.minN, "evaluating a symbolic profile below its minN");
  GCR_CHECK(timeSteps >= 1, "timeSteps must be at least 1");
  Materialized out;
  const std::uint64_t t = timeSteps;
  const std::uint64_t footDist =
      p.footprint.valid() ? clampCount(p.footprint.eval(n)) : 0;
  const bool footEvadable =
      p.footprint.valid() &&
      p.footprint.degreeInN().value_or(1) > 0;  // footprints grow with N
  for (std::size_t i = 0; i < p.perSite.size(); ++i) {
    const SymbolicSiteProfile& e = p.perSite[i];
    const std::uint64_t c = clampCount(e.count.valid() ? e.count.eval(n) : 0);
    if (e.bailout != SymbolicBailout::None) {
      out.bailedAccesses += c * t;
      continue;
    }
    out.accesses += c * t;
    if (!e.distance.valid()) {  // cold: first pass first-touches; passes
                                // 2..T re-touch at ~whole-program footprint
      out.cold += c;
      if (t > 1 && c > 0)
        out.mass.push_back({footDist, c * (t - 1), footEvadable});
      continue;
    }
    const std::uint64_t d = clampCount(e.distance.eval(n));
    if (c > 0) out.mass.push_back({d, c * t, e.evadable});
  }
  return out;
}

}  // namespace

const char* reuseClassName(ReuseClass c) {
  switch (c) {
    case ReuseClass::Cold: return "cold";
    case ReuseClass::SameIteration: return "same-iteration";
    case ReuseClass::LoopCarried: return "loop-carried";
    case ReuseClass::CrossUnit: return "cross-unit";
  }
  return "?";
}

const char* symbolicBailoutName(SymbolicBailout b) {
  switch (b) {
    case SymbolicBailout::None: return "none";
    case SymbolicBailout::SignIndeterminateDelta:
      return "sign-indeterminate-delta";
    case SymbolicBailout::IncomparableGuard: return "incomparable-guard";
  }
  return "?";
}

std::uint64_t SymbolicReuseProfile::bailedSites() const {
  std::uint64_t n = 0;
  for (const SymbolicSiteProfile& e : perSite)
    if (e.bailout != SymbolicBailout::None) ++n;
  return n;
}

std::uint64_t SymbolicReuseProfile::impreciseSites() const {
  std::uint64_t n = 0;
  for (const SymbolicSiteProfile& e : perSite)
    if (e.imprecise) ++n;
  return n;
}

std::map<std::string, std::uint64_t> SymbolicReuseProfile::bailoutCounts()
    const {
  std::map<std::string, std::uint64_t> out;
  for (const SymbolicSiteProfile& e : perSite)
    if (e.bailout != SymbolicBailout::None)
      ++out[symbolicBailoutName(e.bailout)];
  return out;
}

SymbolicReuseProfile analyzeSymbolicReuse(const Program& p,
                                          const SymbolicReuseOptions& o) {
  const std::int64_t minN = o.minN;
  SymbolicReuseProfile out;
  out.minN = minN;

  const std::vector<RefSite> sites = collectRefSites(p, minN);
  const std::size_t S = sites.size();
  const SymVolumeModel m = SymVolumeModel::build(sites, minN);
  out.footprint = m.totalFoot;

  // Per-statement operand positions (reads in order, then the write).
  std::unordered_map<int, int> nextOperand;
  out.sites.reserve(S);
  for (const RefSite& s : sites) {
    SymbolicSiteInfo info;
    info.stmtId = s.stmtId;
    info.array = s.array;
    info.isWrite = s.isWrite;
    info.operand = nextOperand[s.stmtId]++;
    info.loc = s.loc;
    info.text = s.text;
    out.sites.push_back(std::move(info));
  }

  out.perSite.assign(S, {});
  std::vector<SiteCandidates> cands(S);

  // Guard replay: a site whose active range was over-approximated has no
  // trustworthy closed-form volume anywhere it appears.
  for (std::size_t i = 0; i < S; ++i)
    if (hasIncomparableGuard(sites[i], minN))
      out.perSite[i].bailout = SymbolicBailout::IncomparableGuard;

  auto bail = [&](std::size_t i) {
    if (out.perSite[i].bailout == SymbolicBailout::None)
      out.perSite[i].bailout = SymbolicBailout::SignIndeterminateDelta;
  };

  auto carryCandidate = [&](std::size_t sink, const RefSite& s, int level,
                            SymExpr delta) {
    const Loop* l = s.stack[static_cast<std::size_t>(level)];
    const auto it = m.iterVol.find(l);
    const SymExpr vol = it == m.iterVol.end() ? symConst(1) : it->second;
    cands[sink].offer(
        ReuseClass::LoopCarried, level,
        symMax(symConst(1), symMul(std::move(delta), vol), minN), minN);
  };

  // Scan all same-array pairs (input reuse included; i == j covers a site
  // reusing itself across iterations of an enclosing loop that none of its
  // subscripts mention).  Delta signs are decided over all n >= minN.
  for (std::size_t i = 0; i < S; ++i) {
    for (std::size_t j = i; j < S; ++j) {
      const RefSite& a = sites[i];
      const RefSite& b = sites[j];
      if (a.array != b.array) continue;
      const Dependence dep = analyzeDependence(a, b, minN);
      if (dep.answer == DepAnswer::Independent) continue;
      const bool unknown = dep.answer == DepAnswer::Unknown;

      bool decided = false;
      bool bailed = false;
      for (int level = 0; level < dep.commonLevels && !decided; ++level) {
        const auto& d = dep.deltaN[static_cast<std::size_t>(level)];
        if (!d.has_value()) {
          // Unconstrained enclosing loop: the previous iteration re-touches
          // the element — both sites can treat it as their source.
          carryCandidate(j, b, level, symConst(1));
          out.perSite[j].imprecise |= unknown;
          if (i != j) {
            carryCandidate(i, a, level, symConst(1));
            out.perSite[i].imprecise |= unknown;
          }
          continue;  // same-iteration continuation explored below
        }
        if (*d == AffineN{0}) continue;
        if (definitelyLess(AffineN{0}, *d, minN)) {
          carryCandidate(j, b, level, symAffine(*d));
          out.perSite[j].imprecise |= unknown;
          decided = true;
        } else if (definitelyLess(*d, AffineN{0}, minN)) {
          carryCandidate(i, a, level, symAffine(-*d));
          out.perSite[i].imprecise |= unknown;
          decided = true;
        } else {
          // The delta changes sign (or crosses zero) within n >= minN: the
          // nearest-source selection flips between sizes mid-level, which
          // no single per-site formula expresses.  Both endpoints bail.
          bail(i);
          bail(j);
          bailed = true;
          break;
        }
      }
      if (decided || bailed || i == j) continue;

      // All common levels admit the same iteration: the reuse happens within
      // one pass over the common nest.
      if (a.stack == b.stack) {
        // Proxy for "distinct data touched between the two references in one
        // body iteration": the statements in between, ~2 references each.
        cands[j].offer(ReuseClass::SameIteration, -1,
                       symConst(2 * (b.order - a.order)), minN);
        out.perSite[j].imprecise |= unknown;
        continue;
      }
      // Cross-unit: sites diverge below the common nest.
      const int cl = dep.commonLevels;
      const std::vector<Child>& context =
          cl == 0 ? p.top : a.stack[static_cast<std::size_t>(cl - 1)]->body;
      const Child* ca = a.childPath[static_cast<std::size_t>(cl)];
      const Child* cb = b.childPath[static_cast<std::size_t>(cl)];
      std::size_t ia = context.size(), ib = context.size();
      for (std::size_t k = 0; k < context.size(); ++k) {
        if (&context[k] == ca) ia = k;
        if (&context[k] == cb) ib = k;
      }
      if (ia >= context.size() || ib >= context.size() || ia == ib) continue;
      const std::size_t lo = std::min(ia, ib), hi = std::max(ia, ib);
      const std::size_t sink = ia < ib ? j : i;
      SymExpr vol = symConst(0);
      for (std::size_t k = lo + 1; k < hi; ++k)
        vol = symAdd(vol, m.volOfChild(&context[k]));
      vol = symAdd(vol, symFloorDiv(symAdd(m.volOfChild(ca),
                                           m.volOfChild(cb)),
                                    2));
      cands[sink].offer(ReuseClass::CrossUnit, -1,
                        symMax(symConst(1), vol, minN), minN);
      out.perSite[sink].imprecise |= unknown;
    }
  }

  // Fold candidates into per-site formulas.
  for (std::size_t i = 0; i < S; ++i) {
    SymbolicSiteProfile& e = out.perSite[i];
    e.count = m.siteIters[i];
    if (e.bailout != SymbolicBailout::None) {
      e.cls = cands[i].cls;  // informational; no formula is published
      e.carryLevel = cands[i].carryLevel;
      continue;
    }
    if (cands[i].distances.empty()) {
      e.cls = ReuseClass::Cold;
      continue;
    }
    e.cls = cands[i].cls;
    e.carryLevel = cands[i].carryLevel;
    SymExpr dist = cands[i].distances[0];
    for (std::size_t k = 1; k < cands[i].distances.size(); ++k)
      dist = symMin(std::move(dist), cands[i].distances[k], minN);
    e.degree = dist.degreeInN();
    if (e.degree.has_value()) {
      e.evadable = *e.degree > 0;
    } else {
      // Indeterminate growth class: fall back to a numeric growth test at
      // the domain edge.
      const std::int64_t d1 = dist.eval(minN);
      const std::int64_t d2 = dist.eval(2 * minN);
      e.evadable = d1 > 0 && static_cast<double>(d2) >
                                 kEvadableFallbackGrowth *
                                     static_cast<double>(d1);
    }
    e.distance = std::move(dist);
  }
  return out;
}

SymbolicEvaluation evaluateSymbolicProfile(const SymbolicReuseProfile& p,
                                           std::int64_t n,
                                           std::uint64_t timeSteps) {
  const Materialized m = materialize(p, n, timeSteps);
  SymbolicEvaluation ev;
  ev.accesses = m.accesses;
  ev.cold = m.cold;
  ev.bailedAccesses = m.bailedAccesses;
  for (const MassEntry& e : m.mass) {
    ev.histogram.add(e.dist, e.count);
    ev.totalReuses += e.count;
    if (e.evadable) ev.evadableReuses += e.count;
  }
  return ev;
}

double symbolicMissRate(const SymbolicReuseProfile& p, std::uint64_t capacity,
                        std::int64_t n, std::uint64_t timeSteps) {
  const Materialized m = materialize(p, n, timeSteps);
  std::uint64_t total = 0, missed = 0;
  for (const MassEntry& e : m.mass) {
    total += e.count;
    if (e.dist >= capacity) missed += e.count;
  }
  return total ? static_cast<double>(missed) / static_cast<double>(total)
               : 0.0;
}

}  // namespace gcr
