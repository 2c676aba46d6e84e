#include "ir/stats.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace gcr {

ProgramStats computeStats(const Program& p) {
  ProgramStats st;
  st.numArrays = static_cast<int>(p.arrays.size());
  st.numStatements = p.numStatements();

  std::set<ArrayId> used;
  forEachAssign(p, [&](const Assign& a, const std::vector<const Loop*>&) {
    used.insert(a.lhs.array);
    for (const ArrayRef& r : a.rhs) used.insert(r.array);
  });
  st.numArraysUsed = static_cast<int>(used.size());

  for (const Child& c : p.top)
    if (c.node->isLoop()) ++st.numLoopNests;

  forEachLoop(p, [&](const Loop&, int level) {
    ++st.numLoops;
    st.maxLevel = std::max(st.maxLevel, level + 1);
    if (static_cast<std::size_t>(level) >= st.loopsPerLevel.size())
      st.loopsPerLevel.resize(static_cast<std::size_t>(level) + 1, 0);
    ++st.loopsPerLevel[static_cast<std::size_t>(level)];
  });
  return st;
}

std::uint64_t estimateDynamicRefs(const Program& p, std::int64_t n,
                                  std::uint64_t timeSteps) {
  constexpr const char* kWhat = "dynamic reference count";
  std::uint64_t total = 0;
  forEachAssign(p, [&](const Assign& a,
                       const std::vector<const Loop*>& stack) {
    std::uint64_t iters = 1;
    for (const Loop* l : stack) {
      const std::int64_t lo = l->lo.eval(n);
      const std::int64_t hi = l->hi.eval(n);
      if (hi < lo) return;  // the statement never runs
      const std::uint64_t span =
          static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
      iters = checkedMul(iters, checkedAdd<std::uint64_t>(span, 1, kWhat),
                         kWhat);
    }
    total = checkedAdd(
        total, checkedMul<std::uint64_t>(iters, a.rhs.size() + 1, kWhat),
        kWhat);
  });
  return checkedMul(total, timeSteps, kWhat);
}

std::string ProgramStats::summary() const {
  std::ostringstream os;
  os << numLoops << " loops in " << numLoopNests << " nests (max depth "
     << maxLevel << "), " << numStatements << " statements, " << numArraysUsed
     << "/" << numArrays << " arrays used; per level:";
  for (std::size_t l = 0; l < loopsPerLevel.size(); ++l)
    os << " L" << l << "=" << loopsPerLevel[l];
  return os.str();
}

}  // namespace gcr
