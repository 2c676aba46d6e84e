#include "regroup/regroup.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace gcr {

namespace {

/// Compatibility key: rank, element size and per-dimension extent slopes.
/// Arrays are compatible when their sizes differ by at most an additive
/// constant per dimension and they can be iterated in the same order.
std::string compatKey(const ArrayDecl& d) {
  std::ostringstream os;
  os << d.rank() << ":" << d.elemSize;
  for (const AffineN& e : d.extents) os << ":" << e.s;
  return os.str();
}

/// Partition refinement: split every part by membership in `s`.
void refineBy(std::vector<std::vector<ArrayId>>& parts,
              const std::set<ArrayId>& s) {
  std::vector<std::vector<ArrayId>> out;
  out.reserve(parts.size());
  for (auto& part : parts) {
    std::vector<ArrayId> in, notIn;
    for (ArrayId a : part) (s.count(a) ? in : notIn).push_back(a);
    if (!in.empty()) out.push_back(std::move(in));
    if (!notIn.empty()) out.push_back(std::move(notIn));
  }
  parts = std::move(out);
}

/// Pull `a` out of its part into a singleton.
void isolate(std::vector<std::vector<ArrayId>>& parts, ArrayId a) {
  for (auto& part : parts) {
    auto it = std::find(part.begin(), part.end(), a);
    if (it == part.end()) continue;
    if (part.size() == 1) return;  // already singleton
    part.erase(it);
    parts.push_back({a});
    return;
  }
}

/// Arrays accessed in a subtree.
void accessedIn(const Node& n, std::set<ArrayId>& out) {
  if (n.isAssign()) {
    out.insert(n.assign().lhs.array);
    for (const ArrayRef& r : n.assign().rhs) out.insert(r.array);
    return;
  }
  for (const Child& c : n.loop().body) accessedIn(*c.node, out);
}

/// One computation phase = one loop.  For every data dimension the loop's
/// variable subscripts, it records each array's *offset signature* — the
/// sorted set of offsets the loop uses at that dimension.  Two arrays may
/// share a cache block at dimension d only when every phase accesses them
/// with the same signature there; otherwise a block holding both would
/// carry bytes one of them does not use at some offset (e.g. a stencil that
/// reads rows i and i-1 of A but only row i of B), defeating the guaranteed
/// profitability of regrouping.
struct LoopPhase {
  std::set<ArrayId> accessed;
  /// dim -> (array -> signature).  Arrays accessed by the phase without a
  /// loop-variant subscript at that dim get the marker signature "@none".
  std::map<int, std::map<ArrayId, std::string>> signatures;
};

void collectOffsetSets(
    const Node& n, int depth,
    std::map<int, std::map<ArrayId, std::set<std::string>>>& sets) {
  if (n.isAssign()) {
    auto scan = [&](const ArrayRef& r) {
      for (std::size_t d = 0; d < r.subs.size(); ++d) {
        if (r.subs[d].isConstant() || r.subs[d].depth != depth) continue;
        sets[static_cast<int>(d)][r.array].insert(r.subs[d].offset.str());
      }
    };
    scan(n.assign().lhs);
    for (const ArrayRef& r : n.assign().rhs) scan(r);
    return;
  }
  for (const Child& c : n.loop().body) collectOffsetSets(*c.node, depth, sets);
}

void collectPhases(const Node& n, int depth, std::vector<LoopPhase>& out) {
  if (!n.isLoop()) return;
  LoopPhase phase;
  accessedIn(n, phase.accessed);
  std::map<int, std::map<ArrayId, std::set<std::string>>> sets;
  collectOffsetSets(n, depth, sets);
  for (auto& [dim, perArray] : sets) {
    auto& sigs = phase.signatures[dim];
    for (auto& [array, offsets] : perArray) {
      std::string sig;
      for (const std::string& o : offsets) sig += o + "|";
      sigs[array] = sig;
    }
    // Arrays the phase touches without iterating this dim: marker class.
    for (ArrayId a : phase.accessed)
      if (!sigs.count(a)) sigs[a] = "@none";
  }
  out.push_back(std::move(phase));
  for (const Child& c : n.loop().body) collectPhases(*c.node, depth + 1, out);
}

/// Partition refinement by signature equivalence: arrays in one part stay
/// together iff the phase gives them identical signatures (absent arrays
/// form their own class).
void refineBySignature(std::vector<std::vector<ArrayId>>& parts,
                       const std::map<ArrayId, std::string>& sigs) {
  std::vector<std::vector<ArrayId>> out;
  for (auto& part : parts) {
    std::map<std::string, std::vector<ArrayId>> classes;
    for (ArrayId a : part) {
      auto it = sigs.find(a);
      classes[it == sigs.end() ? "@absent" : it->second].push_back(a);
    }
    for (auto& [sig, members] : classes) out.push_back(std::move(members));
  }
  parts = std::move(out);
}

/// Figure 8 step 1: for every access, if a storage-outer dimension is
/// iterated by a loop *inner* to the one iterating a storage-inner
/// dimension, the array cannot be grouped at the storage-outer dimension.
void markUngroupable(const Program& p,
                     std::vector<std::set<int>>& ungroupable) {
  forEachAssign(p, [&](const Assign& s, const std::vector<const Loop*>&) {
    auto scan = [&](const ArrayRef& r) {
      for (std::size_t a = 0; a < r.subs.size(); ++a) {
        if (r.subs[a].isConstant()) continue;
        for (std::size_t b = a + 1; b < r.subs.size(); ++b) {
          if (r.subs[b].isConstant()) continue;
          // dim a is storage-outer (row-major).  If dim b's loop encloses
          // dim a's loop, grouping at dim a would break contiguity.
          if (r.subs[b].depth < r.subs[a].depth)
            ungroupable[static_cast<std::size_t>(r.array)].insert(
                static_cast<int>(a));
        }
      }
    };
    scan(s.lhs);
    for (const ArrayRef& r : s.rhs) scan(r);
  });
}

}  // namespace

Regrouping Regrouping::analyze(const Program& p, const RegroupOptions& opts,
                               RegroupReport* report) {
  const int numArrays = static_cast<int>(p.arrays.size());
  int maxRank = 1;
  for (const ArrayDecl& d : p.arrays) maxRank = std::max(maxRank, d.rank());

  // Compatible classes.
  std::map<std::string, std::vector<ArrayId>> classes;
  for (ArrayId a = 0; a < numArrays; ++a)
    classes[compatKey(p.arrays[static_cast<std::size_t>(a)])].push_back(a);
  if (report) report->compatibleGroups = static_cast<int>(classes.size());

  std::vector<std::set<int>> ungroupable(
      static_cast<std::size_t>(numArrays));
  markUngroupable(p, ungroupable);

  std::vector<LoopPhase> phases;
  for (const Child& c : p.top) collectPhases(*c.node, 0, phases);

  Regrouping result;
  result.partitions_.resize(static_cast<std::size_t>(maxRank));

  // Dimension 0 starts from the compatible classes; each further dimension
  // starts from the previous dimension's partition (hierarchy invariant).
  std::vector<std::vector<ArrayId>> current;
  for (auto& [key, members] : classes) current.push_back(members);

  if (opts.innermostOnly) {
    // Single-level (element) regrouping, the authors' earlier scheme: fully
    // interleave arrays that are accessed together in *every* phase.  Full
    // interleaving multiplies all strides uniformly, which in the hierarchy
    // model is grouping at every dimension at once.
    for (const LoopPhase& phase : phases) {
      refineBy(current, phase.accessed);
      for (const auto& [dim, sigs] : phase.signatures)
        refineBySignature(current, sigs);
    }
    for (auto& part : current) std::sort(part.begin(), part.end());
    std::sort(current.begin(), current.end());
    for (int d = 0; d < maxRank; ++d)
      result.partitions_[static_cast<std::size_t>(d)] = current;
    if (report) {
      for (const auto& part : current)
        if (part.size() > 1) ++report->partitionsFormed;
    }
    return result;
  }

  for (int d = 0; d < maxRank; ++d) {
    // Isolate arrays that cannot participate at this dimension.
    for (ArrayId a = 0; a < numArrays; ++a) {
      const ArrayDecl& decl = p.arrays[static_cast<std::size_t>(a)];
      const bool tooShallow = decl.rank() <= d;
      const bool marked =
          ungroupable[static_cast<std::size_t>(a)].count(d) > 0;
      const bool innermost = d == decl.rank() - 1;
      const bool excluded =
          tooShallow || marked || (opts.skipInnermostDim && innermost) ||
          (opts.innermostOnly && !innermost);
      if (excluded) isolate(current, a);
    }
    // Refine by every loop phase that iterates this data dimension: arrays
    // stay grouped only when the phase accesses them with identical offset
    // signatures (guaranteed profitability at cache-block granularity).
    for (const LoopPhase& phase : phases) {
      auto it = phase.signatures.find(d);
      if (it != phase.signatures.end()) refineBySignature(current, it->second);
    }

    // Deterministic order.
    for (auto& part : current) std::sort(part.begin(), part.end());
    std::sort(current.begin(), current.end());
    result.partitions_[static_cast<std::size_t>(d)] = current;
  }

  if (report) {
    for (int d = 0; d < maxRank; ++d) {
      for (const auto& part : result.partitions_[static_cast<std::size_t>(d)]) {
        if (part.size() < 2) continue;
        ++report->partitionsFormed;
        std::ostringstream os;
        os << "dim " << d << ": {";
        for (std::size_t k = 0; k < part.size(); ++k)
          os << (k ? " " : "")
             << p.arrays[static_cast<std::size_t>(part[k])].name;
        os << "}";
        report->log.push_back(os.str());
      }
    }
  }
  return result;
}

std::vector<ArrayId> Regrouping::groupedWith(ArrayId a, int dim) const {
  for (const auto& part : partitions_[static_cast<std::size_t>(dim)]) {
    if (std::find(part.begin(), part.end(), a) != part.end()) {
      if (part.size() < 2) return {};
      std::vector<ArrayId> others;
      for (ArrayId x : part)
        if (x != a) others.push_back(x);
      return others;
    }
  }
  return {};
}

namespace {

/// Recursive layout builder; see the chunk derivation in the header.
/// Returns the byte size of the block covering dims [d, rank) for one fixed
/// index tuple of the outer dims.
std::int64_t layoutDims(
    const std::vector<ArrayId>& part, int d, int rank,
    const std::vector<std::vector<std::int64_t>>& extents,
    const std::vector<std::vector<std::vector<ArrayId>>>& partitions,
    std::vector<ArrayLayout>& maps) {
  if (d == rank) {
    // Element level: members interleave one element each.
    std::int64_t off = 0;
    for (ArrayId x : part) {
      maps[static_cast<std::size_t>(x)].base += off;
      off += 8;
    }
    return off;
  }
  std::int64_t extent = 0;
  for (ArrayId x : part)
    extent = std::max(extent,
                      extents[static_cast<std::size_t>(x)]
                             [static_cast<std::size_t>(d)]);

  // Sub-partitions at the next dimension (the whole part when we are at the
  // last dimension — its members interleave at element granularity).
  std::vector<std::vector<ArrayId>> subs;
  if (d + 1 == rank) {
    subs.push_back(part);
  } else {
    for (const auto& q : partitions[static_cast<std::size_t>(d + 1)]) {
      if (std::find(part.begin(), part.end(), q.front()) != part.end())
        subs.push_back(q);
    }
  }

  std::int64_t rowUnit = 0;
  for (const auto& q : subs) {
    for (ArrayId x : q) {
      std::int64_t& base = maps[static_cast<std::size_t>(x)].base;
      base = checkedAdd(base, rowUnit, "layout size");
    }
    rowUnit = checkedAdd(
        rowUnit, layoutDims(q, d + 1, rank, extents, partitions, maps),
        "regrouped row size");
  }
  for (ArrayId x : part)
    maps[static_cast<std::size_t>(x)].strides[static_cast<std::size_t>(d)] =
        rowUnit;
  return checkedMul(extent, rowUnit, "regrouped block size");
}

}  // namespace

DataLayout Regrouping::layout(const Program& p, std::int64_t n) const {
  const std::size_t numArrays = p.arrays.size();
  std::vector<std::vector<std::int64_t>> extents;
  extents.reserve(numArrays);
  for (const ArrayDecl& d : p.arrays) extents.push_back(concreteExtents(d, n));

  std::vector<ArrayLayout> maps(numArrays);
  for (std::size_t a = 0; a < numArrays; ++a) {
    maps[a].base = 0;
    maps[a].strides.assign(p.arrays[a].extents.size(), 0);
  }

  std::int64_t cursor = 0;
  GCR_CHECK(!partitions_.empty(), "layout() before analyze()");
  for (const auto& part : partitions_[0]) {
    const int rank = p.arrays[static_cast<std::size_t>(part.front())].rank();
    for (ArrayId x : part) {
      std::int64_t& base = maps[static_cast<std::size_t>(x)].base;
      base = checkedAdd(base, cursor, "layout size");
    }
    cursor = checkedAdd(
        cursor, layoutDims(part, 0, rank, extents, partitions_, maps),
        "layout size");
  }
  return DataLayout(std::move(maps), cursor);
}

std::vector<Diagnostic> checkRegroupLegal(const Program& p,
                                          const Regrouping& rg,
                                          std::int64_t minN,
                                          const std::string& programName) {
  std::vector<Diagnostic> out;
  auto err = [&](const std::string& rule, const std::string& ref,
                 std::vector<std::int64_t> witness, const std::string& msg) {
    Diagnostic d;
    d.severity = Severity::Error;
    d.pass = "regroup";
    d.rule = rule;
    d.program = programName;
    d.ref = ref;
    d.witness = std::move(witness);
    d.message = msg;
    out.push_back(std::move(d));
  };

  // Compatibility inside every multi-member partition.
  for (int dim = 0; dim < rg.maxRank(); ++dim) {
    for (const auto& part : rg.partitionAt(dim)) {
      if (part.size() < 2) continue;
      const ArrayDecl& lead = p.arrayDecl(part.front());
      for (std::size_t k = 1; k < part.size(); ++k) {
        const ArrayDecl& d = p.arrayDecl(part[k]);
        if (d.rank() != lead.rank()) {
          err("incompatible-group", lead.name + " vs " + d.name, {dim},
              "grouped arrays differ in rank");
          continue;
        }
        for (int e = 0; e < d.rank(); ++e) {
          const AffineN diff = d.extents[static_cast<std::size_t>(e)] -
                               lead.extents[static_cast<std::size_t>(e)];
          if (!diff.isConstant())
            err("incompatible-group", lead.name + " vs " + d.name, {dim},
                "grouped arrays' extents differ non-constantly at dimension " +
                    std::to_string(e));
        }
      }
    }
  }

  // partitionAt(d) must refine partitionAt(d-1): the interleaving nests.
  for (int dim = 1; dim < rg.maxRank(); ++dim) {
    std::vector<int> groupOf(p.arrays.size(), -1);
    const auto& coarse = rg.partitionAt(dim - 1);
    for (std::size_t g = 0; g < coarse.size(); ++g)
      for (ArrayId a : coarse[g])
        groupOf[static_cast<std::size_t>(a)] = static_cast<int>(g);
    for (const auto& part : rg.partitionAt(dim)) {
      for (std::size_t k = 1; k < part.size(); ++k) {
        if (groupOf[static_cast<std::size_t>(part[k])] !=
            groupOf[static_cast<std::size_t>(part.front())])
          err("refinement",
              p.arrayDecl(part.front()).name + " vs " +
                  p.arrayDecl(part[k]).name,
              {dim},
              "partition at dimension " + std::to_string(dim) +
                  " does not refine dimension " + std::to_string(dim - 1));
      }
    }
  }
  if (!out.empty()) return out;  // layout() may assert on broken partitions

  // Bijectivity of the materialized layout at the smallest supported size:
  // every element maps into [0, totalBytes) and no two elements collide.
  const DataLayout layout = rg.layout(p, minN);
  std::vector<std::int64_t> addrs;
  for (std::size_t a = 0; a < p.arrays.size(); ++a) {
    const ArrayDecl& d = p.arrays[a];
    const auto ext = concreteExtents(d, minN);
    std::vector<std::int64_t> idx(ext.size(), 0);
    for (;;) {
      const std::int64_t addr =
          layout.addressOf(static_cast<ArrayId>(a), idx);
      if (addr < 0 || addr + d.elemSize > layout.totalBytes()) {
        err("layout-overlap", d.name, {addr},
            "element maps outside the allocation");
        return out;
      }
      addrs.push_back(addr);
      // Odometer step over the index space.
      std::size_t e = ext.size();
      while (e > 0 && ++idx[e - 1] >= ext[e - 1]) {
        idx[e - 1] = 0;
        --e;
      }
      if (e == 0) break;  // wrapped around: index space exhausted
    }
  }
  std::sort(addrs.begin(), addrs.end());
  for (std::size_t k = 1; k < addrs.size(); ++k) {
    if (addrs[k] == addrs[k - 1]) {
      err("layout-overlap", "", {addrs[k]},
          "two elements map to one address — the layout is not a bijection");
      return out;
    }
  }
  return out;
}

}  // namespace gcr
