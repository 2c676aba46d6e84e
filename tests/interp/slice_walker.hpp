// Test-only referee for the schedule replays: an address-only slice walker
// that walks the compiled plan's segments in execution order, decides outer
// guards once per loop entry, evaluates every address from scratch, and
// tests ownership of each depth-0 iteration one position at a time — none
// of the plan walker's strength reduction or per-segment arithmetic
// progressions.  It is the walker replaySlice() shipped with before the
// plan walker served both; replaySlice must emit the same stream instance
// for instance (tests/interp/schedule_referee_test.cpp).  The class body is
// the shipped code unchanged; only its namespace moved.
#pragma once

#include <algorithm>
#include <vector>

#include "interp/schedule.hpp"

namespace gcr::testing {

/// Address-only walk of a plan restricted to one core's slice: the
/// executor's traversal (segments in execution order, outer guards decided
/// per loop entry) minus value semantics, with a per-iteration ownership
/// test on depth-0 loops.  Emission mirrors executePlan's SoA chunking.
class SliceWalker {
 public:
  static constexpr std::size_t kBlockCapacity = 4096;

  SliceWalker(const AccessPlan& plan, const ScheduleSlice& slice,
              InstrSink* sink)
      : plan_(plan), slice_(slice), sink_(sink) {
    ivs_.assign(static_cast<std::size_t>(plan_.maxDepth), 0);
    keep_.resize(plan_.loops.size());
    for (std::size_t i = 0; i < plan_.loops.size(); ++i)
      keep_[i].assign(plan_.loops[i].children.size(), 1);
    bOff_.push_back(0);
  }

  void runAll() {
    for (std::uint64_t t = 0; t < plan_.timeSteps; ++t)
      for (const PlanChild& c : plan_.top) runTopChild(c);
    flush();
  }

  /// One parallel region (a single top-level child, one time step).
  void runRegion(const PlanChild& c) {
    runTopChild(c);
    flush();
  }

 private:
  void runTopChild(const PlanChild& c) {
    if (c.isLoop) {
      execLoop(c.index);
    } else if (slice_.core == 0) {
      // A bare top-level statement is sequential work: core 0 runs it while
      // the other cores idle at the region barrier.
      emitStmt(plan_.stmts[static_cast<std::size_t>(c.index)]);
    }
  }

  void execChild(const PlanChild& c) {
    if (c.isLoop)
      execLoop(c.index);
    else
      emitStmt(plan_.stmts[static_cast<std::size_t>(c.index)]);
  }

  void execLoop(int loopIdx) {
    const PlanLoop& L = plan_.loops[static_cast<std::size_t>(loopIdx)];
    std::vector<std::uint8_t>& keepRow =
        keep_[static_cast<std::size_t>(loopIdx)];
    if (L.hasOuterGuards) {
      for (std::size_t ci = 0; ci < L.children.size(); ++ci) {
        std::uint8_t ok = 1;
        for (const PlanGuard& g : L.children[ci].outerGuards) {
          const std::int64_t v = ivs_[static_cast<std::size_t>(g.depth)];
          if (v < g.lo || v > g.hi) {
            ok = 0;
            break;
          }
        }
        keepRow[ci] = ok;
      }
    }
    // Only depth-0 (top-level, i.e. parallel) loops are distributed; inner
    // loops run whole on the owning core.  Schedule positions count over the
    // loop's full [lo, hi] range in execution order, independent of segment
    // structure, so dropped segments still consume their positions — the
    // distribution depends only on the loop bounds, as schedule(static)'s
    // does on the iteration count.
    const bool sliced = L.depth == 0 && slice_.cores > 1;
    std::int64_t posBegin = 0;
    std::int64_t posEnd = 0;  // block slice: positions [posBegin, posEnd)
    if (sliced && slice_.schedule == ParallelSchedule::Block) {
      const std::int64_t trips = L.hi - L.lo + 1;
      const std::int64_t cores = slice_.cores;
      const std::int64_t base = trips / cores;
      const std::int64_t rem = trips % cores;
      posBegin = slice_.core * base + std::min<std::int64_t>(slice_.core, rem);
      posEnd = posBegin + base + (slice_.core < rem ? 1 : 0);
    }
    const int nseg = static_cast<int>(L.segments.size());
    for (int s = L.reversed ? nseg - 1 : 0; L.reversed ? s >= 0 : s < nseg;
         L.reversed ? --s : ++s) {
      const PlanSegment& seg = L.segments[static_cast<std::size_t>(s)];
      const std::int64_t first = L.reversed ? seg.hi : seg.lo;
      const std::int64_t last = L.reversed ? seg.lo : seg.hi;
      const std::int64_t dir = L.reversed ? -1 : 1;
      for (std::int64_t v = first;; v += dir) {
        if (sliced) {
          const std::int64_t pos = L.reversed ? L.hi - v : v - L.lo;
          const bool mine =
              slice_.schedule == ParallelSchedule::Block
                  ? pos >= posBegin && pos < posEnd
                  : pos % slice_.cores == slice_.core;
          if (!mine) {
            if (v == last) break;
            continue;
          }
        }
        ivs_[static_cast<std::size_t>(L.depth)] = v;
        for (int m : seg.members)
          if (!L.hasOuterGuards || keepRow[static_cast<std::size_t>(m)])
            execChild(L.children[static_cast<std::size_t>(m)]);
        if (v == last) break;
      }
    }
  }

  std::int64_t evalAddr(const PlanRef& r, int depth) const {
    std::int64_t addr = r.constTerm;
    for (int d = 0; d < depth; ++d)
      addr += r.coeffs[static_cast<std::size_t>(d)] *
              ivs_[static_cast<std::size_t>(d)];
    return addr;
  }

  void emitStmt(const PlanStmt& st) {
    for (const PlanRef& r : st.reads)
      bPool_.push_back(evalAddr(r, st.depth));
    bStmt_.push_back(st.stmtId);
    bOff_.push_back(bPool_.size());
    bWrites_.push_back(evalAddr(st.write, st.depth));
    if (bStmt_.size() >= kBlockCapacity) flush();
  }

  void flush() {
    if (bStmt_.empty()) return;
    sink_->onBlock(InstrBlock{bStmt_, bOff_, bPool_, bWrites_});
    bStmt_.clear();
    bOff_.clear();
    bOff_.push_back(0);
    bPool_.clear();
    bWrites_.clear();
  }

  const AccessPlan& plan_;
  const ScheduleSlice slice_;
  InstrSink* sink_;
  std::vector<std::int64_t> ivs_;
  std::vector<std::vector<std::uint8_t>> keep_;  ///< per loop, per child
  std::vector<int> bStmt_;
  std::vector<std::uint64_t> bOff_;
  std::vector<std::int64_t> bPool_;
  std::vector<std::int64_t> bWrites_;
};

}  // namespace gcr::testing
