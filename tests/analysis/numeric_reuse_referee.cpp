#include "numeric_reuse_referee.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>

#include "analysis/dependence.hpp"
#include "support/histogram.hpp"

namespace gcr::testing {

namespace {

/// Per-array distinct-element footprints, merged by max (references to one
/// array overlap up to constant shifts, so max — not sum — models the union).
using Foot = std::map<ArrayId, std::int64_t>;

std::int64_t totalOf(const Foot& f) {
  std::int64_t sum = 0;
  for (const auto& [a, v] : f) sum += v;
  return sum;
}

/// The volume model at one problem size: trip counts, per-iteration loop
/// volumes, per-child subtree footprints.
struct VolumeModel {
  std::map<const Loop*, std::int64_t> iterVol;
  std::map<const Child*, std::int64_t> childVol;
  std::vector<std::uint64_t> siteIters;  ///< dynamic accesses per site

  static std::int64_t trip(const RefSite& s, std::size_t depth,
                           std::int64_t n) {
    const std::int64_t lo = s.actLo[depth].eval(n);
    const std::int64_t hi = s.actHi[depth].eval(n);
    return std::max<std::int64_t>(0, hi - lo + 1);
  }

  /// Distinct elements the site's reference touches while loops at depth >=
  /// rootDepth vary (shallower loops pinned to one iteration).
  static std::int64_t refVolume(const RefSite& s, int rootDepth,
                                std::int64_t n) {
    std::int64_t vol = 1;
    for (const Subscript& sub : s.ref->subs) {
      if (sub.isConstant() || sub.depth < rootDepth) continue;
      vol *= std::max<std::int64_t>(
          1, trip(s, static_cast<std::size_t>(sub.depth), n));
    }
    return vol;
  }

  static VolumeModel build(const std::vector<RefSite>& sites,
                           std::int64_t n) {
    VolumeModel m;
    m.siteIters.reserve(sites.size());
    std::map<const Loop*, Foot> loopFoot;
    std::map<const Child*, Foot> childFoot;
    for (const RefSite& s : sites) {
      std::uint64_t iters = 1;
      for (std::size_t d = 0; d < s.stack.size(); ++d)
        iters *= static_cast<std::uint64_t>(trip(s, d, n));
      m.siteIters.push_back(iters);

      auto bump = [&](Foot& f, std::int64_t v) {
        auto& slot = f[s.array];
        slot = std::max(slot, v);
      };
      for (std::size_t k = 0; k < s.stack.size(); ++k)
        bump(loopFoot[s.stack[k]], refVolume(s, static_cast<int>(k) + 1, n));
      for (std::size_t k = 0; k < s.childPath.size(); ++k)
        bump(childFoot[s.childPath[k]], refVolume(s, static_cast<int>(k), n));
    }
    for (const auto& [l, f] : loopFoot) m.iterVol[l] = totalOf(f);
    for (const auto& [c, f] : childFoot) m.childVol[c] = totalOf(f);
    return m;
  }

  std::int64_t volOfChild(const Child* c) const {
    const auto it = childVol.find(c);
    return it == childVol.end() ? 0 : it->second;
  }
};

constexpr std::uint64_t kNoSource = std::numeric_limits<std::uint64_t>::max();

}  // namespace

std::vector<NumericSite> numericReuseScan(const Program& p, std::int64_t n,
                                          std::int64_t minN) {
  const std::vector<RefSite> sites = collectRefSites(p, minN);
  const std::size_t S = sites.size();
  std::vector<NumericSite> out(S);
  for (NumericSite& e : out) e.distance = kNoSource;

  const VolumeModel m = VolumeModel::build(sites, n);

  // Keep the nearest candidate; the first offer wins ties.
  auto offer = [&](std::size_t sink, ReuseClass cls, std::int64_t distance) {
    NumericSite& e = out[sink];
    const auto d = static_cast<std::uint64_t>(distance);
    if (d >= e.distance) return;
    e.cls = cls;
    e.distance = d;
  };

  auto carryCandidate = [&](std::size_t sink, const RefSite& s, int level,
                            std::int64_t delta) {
    const auto it = m.iterVol.find(s.stack[static_cast<std::size_t>(level)]);
    const std::int64_t vol = it == m.iterVol.end() ? 1 : it->second;
    offer(sink, ReuseClass::LoopCarried,
          std::max<std::int64_t>(1, delta * vol));
  };

  // Scan all same-array pairs (input reuse included; i == j covers a site
  // reusing itself across iterations of an enclosing loop that none of its
  // subscripts mention).
  for (std::size_t i = 0; i < S; ++i) {
    for (std::size_t j = i; j < S; ++j) {
      const RefSite& a = sites[i];
      const RefSite& b = sites[j];
      if (a.array != b.array) continue;
      const Dependence dep = analyzeDependence(a, b, minN);
      if (dep.answer == DepAnswer::Independent) continue;

      bool decided = false;
      for (int level = 0; level < dep.commonLevels && !decided; ++level) {
        const auto& d = dep.deltaN[static_cast<std::size_t>(level)];
        if (!d.has_value()) {
          // Unconstrained enclosing loop: the previous iteration re-touches
          // the element — both sites can treat it as their source.
          carryCandidate(j, b, level, 1);
          if (i != j) carryCandidate(i, a, level, 1);
          continue;  // and the same-iteration continuation is explored below
        }
        const std::int64_t dn = d->eval(n);
        if (dn == 0) continue;
        if (dn > 0)
          carryCandidate(j, b, level, dn);
        else
          carryCandidate(i, a, level, -dn);
        decided = true;
      }
      if (decided || i == j) continue;

      // All common levels admit the same iteration: the reuse happens within
      // one pass over the common nest.
      if (a.stack == b.stack) {
        offer(j, ReuseClass::SameIteration, 2 * (b.order - a.order));
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
      std::int64_t vol = 0;
      for (std::size_t k = lo + 1; k < hi; ++k)
        vol += m.volOfChild(&context[k]);
      vol += (m.volOfChild(ca) + m.volOfChild(cb)) / 2;
      offer(ia < ib ? j : i, ReuseClass::CrossUnit,
            std::max<std::int64_t>(1, vol));
    }
  }

  for (std::size_t i = 0; i < S; ++i) {
    NumericSite& e = out[i];
    e.count = m.siteIters[i];
    if (e.distance == kNoSource) {
      e.cls = ReuseClass::Cold;
      e.distance = 0;
    }
  }
  return out;
}

void expectMatchesReferee(const Program& p, const SymbolicReuseProfile& sym,
                          std::int64_t n) {
  const std::vector<NumericSite> ref = numericReuseScan(p, n, sym.minN);
  ASSERT_EQ(sym.perSite.size(), ref.size()) << p.name;
  auto clamped = [n](const SymExpr& e) {
    return static_cast<std::uint64_t>(std::max<std::int64_t>(0, e.eval(n)));
  };
  Log2Histogram histogram;
  std::uint64_t accesses = 0, cold = 0, reuses = 0, bailed = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const NumericSite& r = ref[i];
    const SymbolicSiteProfile& s = sym.perSite[i];
    if (s.bailout != SymbolicBailout::None) {
      bailed += r.count;
      continue;
    }
    const std::string where = p.name + " n=" + std::to_string(n) + " site " +
                              std::to_string(i) + " (" + sym.sites[i].text +
                              ")";
    ASSERT_TRUE(s.count.valid()) << where;
    EXPECT_EQ(clamped(s.count), r.count) << where;
    accesses += r.count;
    const bool isCold = r.cls == ReuseClass::Cold;
    EXPECT_EQ(s.distance.valid(), !isCold) << where;
    if (isCold) {
      cold += r.count;
      continue;
    }
    if (s.distance.valid()) {
      EXPECT_EQ(clamped(s.distance), r.distance) << where;
    }
    reuses += r.count;
    histogram.add(r.distance, r.count);
  }

  const SymbolicEvaluation ev = evaluateSymbolicProfile(sym, n);
  EXPECT_EQ(ev.accesses, accesses) << p.name << " n=" << n;
  EXPECT_EQ(ev.cold, cold) << p.name << " n=" << n;
  EXPECT_EQ(ev.totalReuses, reuses) << p.name << " n=" << n;
  EXPECT_EQ(ev.bailedAccesses, bailed) << p.name << " n=" << n;
  const int hi = std::max(ev.histogram.highestNonEmptyBin(),
                          histogram.highestNonEmptyBin());
  for (int b = 0; b <= hi; ++b)
    EXPECT_EQ(ev.histogram.binCount(b), histogram.binCount(b))
        << p.name << " n=" << n << " bin=" << b;
}

}  // namespace gcr::testing
