#include "interp/plan.hpp"

#include <algorithm>
#include <functional>
#include <optional>

#include "interp/schedule.hpp"
#include "support/assert.hpp"
#include "support/prng.hpp"

namespace gcr {

namespace {

struct Range {
  std::int64_t lo = 0, hi = -1;

  bool empty() const { return lo > hi; }
  std::uint64_t trips() const {
    return static_cast<std::uint64_t>(hi - lo + 1);
  }
};

Range intersect(Range a, Range b) {
  return {std::max(a.lo, b.lo), std::min(a.hi, b.hi)};
}

/// min(a * b, cap), without forming a product past the cap.
std::uint64_t cappedProduct(std::uint64_t a, std::uint64_t b,
                            std::uint64_t cap) {
  return b != 0 && a > cap / b ? cap : std::min(a * b, cap);
}

// ---------------------------------------------------------------------------
// Compilation: one pass over the tree, evaluating every AffineN at the
// concrete problem size, resolving guards into per-statement iteration boxes,
// and folding each reference's layout map into (constTerm, coeff per depth).
// The executed iteration space of a statement is exactly the product of the
// per-depth effective ranges (loop range ∩ all guards on the path), so
// bounds and data-segment checks are decided here, not per instance.
// ---------------------------------------------------------------------------

class PlanCompiler {
 public:
  PlanCompiler(const Program& p, const DataLayout& layout,
               const ExecOptions& opts)
      : p_(p), layout_(layout), n_(opts.n) {
    plan_ = std::make_unique<AccessPlan>();
    plan_->program = &p;
    plan_->layout = &layout;
    plan_->n = opts.n;
    plan_->timeSteps = opts.timeSteps;
  }

  PlanCompileResult compile() {
    if (layout_.numArrays() != p_.arrays.size())
      return decline("layout does not match program arrays");
    if (layout_.totalBytes() % 8 != 0)
      return decline("layout not 8-byte aligned");
    for (const ArrayDecl& d : p_.arrays) {
      if (d.elemSize != 8) return decline("plan engine requires 8-byte elements");
      extents_.push_back(concreteExtents(d, n_));
    }
    for (const Child& c : p_.top) {
      std::optional<Compiled> cc = compileChild(c, {});
      if (!fail_.empty()) return decline(fail_);
      if (cc) plan_->top.push_back(std::move(cc->child));
    }
    return {std::move(plan_), ""};
  }

 private:
  struct Compiled {
    PlanChild child;
    Range membership;  ///< executed sub-range of the parent loop variable
  };

  PlanCompileResult decline(std::string reason) {
    return {nullptr, std::move(reason)};
  }

  // Returns nullopt either because the child can never execute (dropped —
  // fail_ stays empty) or because compilation failed (fail_ set).
  std::optional<Compiled> compileChild(const Child& c, std::vector<Range> eff) {
    const int depth = static_cast<int>(eff.size());
    Compiled out;
    for (const GuardSpec& g : c.guards) {
      if (g.depth < 0 || g.depth >= depth) {
        fail_ = "guard depth beyond nest";
        return std::nullopt;
      }
      const Range guard{g.lo.eval(n_), g.hi.eval(n_)};
      const Range cur = eff[static_cast<std::size_t>(g.depth)];
      const Range narrowed = intersect(cur, guard);
      if (narrowed.empty()) return std::nullopt;  // never executes
      // Guards on the immediately enclosing loop variable are resolved into
      // iteration segments by the parent; guards on outer variables that
      // still bind anything become a once-per-loop-entry runtime test.
      if (g.depth < depth - 1 &&
          (narrowed.lo != cur.lo || narrowed.hi != cur.hi))
        out.child.outerGuards.push_back({g.depth, guard.lo, guard.hi});
      eff[static_cast<std::size_t>(g.depth)] = narrowed;
    }
    out.membership = depth > 0 ? eff[static_cast<std::size_t>(depth - 1)]
                               : Range{0, 0};
    if (c.node->isAssign()) {
      if (!compileStmt(c.node->assign(), eff, out.child)) return std::nullopt;
    } else {
      if (!compileLoop(c.node->loop(), std::move(eff), out.child))
        return std::nullopt;
    }
    return out;
  }

  bool compileLoop(const Loop& l, std::vector<Range> eff, PlanChild& pc) {
    PlanLoop loop;
    loop.lo = l.lo.eval(n_);
    loop.hi = l.hi.eval(n_);
    loop.reversed = l.reversed;
    loop.depth = static_cast<int>(eff.size());
    if (loop.lo > loop.hi) return false;  // zero-trip: never executes
    eff.push_back({loop.lo, loop.hi});

    std::vector<Range> memberships;
    for (const Child& ch : l.body) {
      std::optional<Compiled> cc = compileChild(ch, eff);
      if (!fail_.empty()) return false;
      if (!cc) continue;  // dropped child
      loop.hasOuterGuards |= !cc->child.outerGuards.empty();
      loop.children.push_back(std::move(cc->child));
      memberships.push_back(cc->membership);
    }
    if (loop.children.empty()) return false;  // body never executes anything

    loop.innermostAssignsOnly =
        std::all_of(loop.children.begin(), loop.children.end(),
                    [](const PlanChild& ch) { return !ch.isLoop; });
    buildSegments(loop, memberships);

    plan_->loops.push_back(std::move(loop));
    pc.index = static_cast<int>(plan_->loops.size()) - 1;
    pc.isLoop = true;
    return true;
  }

  // Split [lo, hi] at every membership boundary; each resulting segment has a
  // constant set of active children (in program order).  Segments with no
  // active children are discarded — no iteration of them ever runs a guard.
  static void buildSegments(PlanLoop& loop,
                            const std::vector<Range>& memberships) {
    std::vector<std::int64_t> cuts{loop.lo, loop.hi + 1};
    for (const Range& m : memberships) {
      if (m.lo > loop.lo) cuts.push_back(m.lo);
      if (m.hi < loop.hi) cuts.push_back(m.hi + 1);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      PlanSegment seg;
      seg.lo = cuts[i];
      seg.hi = cuts[i + 1] - 1;
      for (std::size_t m = 0; m < memberships.size(); ++m)
        if (memberships[m].lo <= seg.lo && seg.hi <= memberships[m].hi)
          seg.members.push_back(static_cast<int>(m));
      if (!seg.members.empty()) loop.segments.push_back(std::move(seg));
    }
  }

  bool compileStmt(const Assign& a, const std::vector<Range>& eff,
                   PlanChild& pc) {
    PlanStmt stmt;
    stmt.stmtId = a.id;
    stmt.seed = a.seed;
    stmt.depth = static_cast<int>(eff.size());
    for (const ArrayRef& r : a.rhs) {
      std::optional<PlanRef> ref = compileRef(r, eff);
      if (!ref) return false;
      stmt.reads.push_back(std::move(*ref));
    }
    std::optional<PlanRef> w = compileRef(a.lhs, eff);
    if (!w) return false;
    stmt.write = std::move(*w);

    std::uint64_t instances = 1;
    for (const Range& r : eff) instances *= r.trips();
    plan_->instrsPerStep += instances;
    plan_->readsPerStep += instances * a.rhs.size();
    plan_->maxReadsPerStmt = std::max(plan_->maxReadsPerStmt, a.rhs.size());
    plan_->maxDepth = std::max(plan_->maxDepth, stmt.depth);

    plan_->stmts.push_back(std::move(stmt));
    pc.index = static_cast<int>(plan_->stmts.size()) - 1;
    pc.isLoop = false;
    return true;
  }

  std::optional<PlanRef> compileRef(const ArrayRef& r,
                                    const std::vector<Range>& eff) {
    if (r.array < 0 || r.array >= static_cast<int>(p_.arrays.size())) {
      fail_ = "array id out of range";
      return std::nullopt;
    }
    const ArrayLayout& al = layout_.layoutOf(r.array);
    const auto& ext = extents_[static_cast<std::size_t>(r.array)];
    const int depth = static_cast<int>(eff.size());
    PlanRef ref;
    ref.coeffs.assign(static_cast<std::size_t>(depth), 0);
    ref.constTerm = al.base;
    for (std::size_t pos = 0; pos < r.subs.size(); ++pos) {
      if (pos >= al.strides.size() || pos >= ext.size()) {
        fail_ = "subscript rank exceeds array rank";
        return std::nullopt;
      }
      const std::int64_t stride = al.strides[pos];
      const Subscript& s = r.subs[pos];
      const std::int64_t off = s.offset.eval(n_);
      if (s.isConstant()) {
        if (!(off >= 0 && off < ext[pos])) {
          fail_ = "constant subscript out of bounds";
          return std::nullopt;
        }
        ref.constTerm += stride * off;
        continue;
      }
      if (s.depth < 0 || s.depth >= depth) {
        fail_ = "subscript depth beyond nest";
        return std::nullopt;
      }
      const Range rg = eff[static_cast<std::size_t>(s.depth)];
      if (!(rg.lo + off >= 0 && rg.hi + off < ext[pos])) {
        fail_ = "subscript out of bounds";
        return std::nullopt;
      }
      ref.constTerm += stride * off;
      ref.coeffs[static_cast<std::size_t>(s.depth)] += stride;
    }
    // Data-segment check over the statement's whole iteration box, in place
    // of a per-access load/store check.  Address is affine, so extrema sit
    // at box corners.
    std::int64_t minAddr = ref.constTerm;
    std::int64_t maxAddr = ref.constTerm;
    for (int d = 0; d < depth; ++d) {
      const std::int64_t c = ref.coeffs[static_cast<std::size_t>(d)];
      const Range rg = eff[static_cast<std::size_t>(d)];
      minAddr += c * (c >= 0 ? rg.lo : rg.hi);
      maxAddr += c * (c >= 0 ? rg.hi : rg.lo);
    }
    if (!(minAddr >= 0 && maxAddr + 8 <= layout_.totalBytes())) {
      fail_ = "access outside data segment";
      return std::nullopt;
    }
    return ref;
  }

  const Program& p_;
  const DataLayout& layout_;
  const std::int64_t n_;
  std::vector<std::vector<std::int64_t>> extents_;
  std::unique_ptr<AccessPlan> plan_;
  std::string fail_;
};

// ---------------------------------------------------------------------------
// Execution.  One walker serves executePlan (Values: the memory image and
// the mix chain) and the schedule replays (addresses only).  The steady-state
// inner loop is pure pointer arithmetic: per read, one "addr += step" (and
// one mix when valued); per instance, one mix64 store when valued.  All
// guard and bounds logic ran at compile time; sink delivery is batched into
// structure-of-arrays chunks of kBlockCapacity instances.
//
// The slice restricts every depth-0 loop to one core's iterations.  Within a
// segment those are an arithmetic progression of schedule positions, so the
// generic loop and the strength-reduced innermost path walk a sliced loop
// exactly as they walk a whole one, with a longer step.
// ---------------------------------------------------------------------------

template <bool Values>
class PlanWalker {
 public:
  static constexpr std::size_t kBlockCapacity = 4096;

  /// `memory` is the initialized image when Values, else null.
  PlanWalker(const AccessPlan& plan, const ScheduleSlice& slice,
             InstrSink* sink, std::uint64_t* memory = nullptr)
      : plan_(plan), slice_(slice), sink_(sink), mem_(memory) {
    ivs_.assign(static_cast<std::size_t>(plan_.maxDepth), 0);
    keep_.resize(plan_.loops.size());
    for (std::size_t i = 0; i < plan_.loops.size(); ++i)
      keep_[i].assign(plan_.loops[i].children.size(), 1);
    if (sink_ != nullptr) {
      // Chunk buffers sized from the plan's exact dynamic counts over the
      // steps it runs, capped at one block plus the worst-case overshoot of
      // a whole iteration.
      const std::uint64_t instrCap =
          cappedProduct(plan_.instrsPerStep, plan_.timeSteps,
                        kBlockCapacity + plan_.stmts.size());
      bStmt_.reserve(static_cast<std::size_t>(instrCap));
      bOff_.reserve(static_cast<std::size_t>(instrCap + 1));
      bWrites_.reserve(static_cast<std::size_t>(instrCap));
      bPool_.reserve(static_cast<std::size_t>(cappedProduct(
          plan_.readsPerStep, plan_.timeSteps,
          instrCap * std::max<std::size_t>(plan_.maxReadsPerStmt, 1))));
    }
    bOff_.push_back(0);
  }

  /// The time steps of the whole program, each delivered to the sink in
  /// full before `repeats` (when given) is asked whether to stop there; it
  /// is not asked after the last step.  Returns the steps run.
  std::uint64_t run(const std::function<bool()>& repeats = nullptr) {
    std::uint64_t steps = 0;
    while (steps < plan_.timeSteps) {
      for (const PlanChild& c : plan_.top) runTop(c);
      ++steps;
      if (repeats && steps < plan_.timeSteps) {
        flush();
        if (repeats()) break;
      }
    }
    flush();
    return steps;
  }

  std::uint64_t instrs() const { return instrs_; }

  /// One parallel region (a single top-level child, one time step).
  void runRegion(const PlanChild& c) {
    runTop(c);
    flush();
  }

 private:
  struct HotRef {
    std::int64_t addr = 0;
    std::int64_t step = 0;
  };
  struct HotStmt {
    int stmtId = -1;
    std::uint64_t seed = 1;
    std::uint32_t rBegin = 0;  ///< read slots [rBegin, rEnd) per iteration
    std::uint32_t rEnd = 0;
  };
  /// The iterations of one segment this walker runs, in execution order.
  struct Progression {
    std::int64_t first = 0;  ///< induction value of the first iteration
    std::int64_t step = 1;   ///< induction step between iterations
    std::int64_t trips = 0;
  };

  void runTop(const PlanChild& c) {
    if (c.isLoop) {
      execLoop(c.index);
    } else if (slice_.core == 0) {
      // A bare top-level statement is sequential work: core 0 runs it while
      // the other cores idle at the region barrier.
      execStmt(plan_.stmts[static_cast<std::size_t>(c.index)]);
    }
  }

  void execChild(const PlanChild& c) {
    if (c.isLoop)
      execLoop(c.index);
    else
      execStmt(plan_.stmts[static_cast<std::size_t>(c.index)]);
  }

  static const PlanSegment& segmentInOrder(const PlanLoop& L, std::size_t k) {
    return L.segments[L.reversed ? L.segments.size() - 1 - k : k];
  }

  // Only depth-0 (top-level, i.e. parallel) loops are distributed; inner
  // loops run whole on the owning core.  Schedule positions count over the
  // loop's full [lo, hi] range in execution order, independent of segment
  // structure, so dropped segments still consume their positions — the
  // distribution depends only on the loop bounds, as schedule(static)'s
  // does on the iteration count.  Block keeps the core's contiguous chunk
  // of the segment's positions; Cyclic starts at the segment's first
  // position congruent to the core and steps by the core count.
  Progression iterations(const PlanLoop& L, const PlanSegment& seg) const {
    // The segment covers positions [p, last].
    std::int64_t p = L.reversed ? L.hi - seg.hi : seg.lo - L.lo;
    std::int64_t last = p + (seg.hi - seg.lo);
    std::int64_t step = 1;
    if (L.depth == 0 && slice_.cores > 1) {
      const std::int64_t cores = slice_.cores;
      const std::int64_t core = slice_.core;
      if (slice_.schedule == ParallelSchedule::Block) {
        // The first (trips mod cores) chunks take the extra iteration.
        const std::int64_t trips = L.hi - L.lo + 1;
        const std::int64_t base = trips / cores;
        const std::int64_t rem = trips % cores;
        const std::int64_t begin = core * base + std::min(core, rem);
        p = std::max(p, begin);
        last = std::min(last, begin + base + (core < rem ? 1 : 0) - 1);
      } else {
        p += (core - p % cores + cores) % cores;
        step = cores;
      }
    }
    const std::int64_t dir = L.reversed ? -1 : 1;
    return {L.reversed ? L.hi - p : L.lo + p, dir * step,
            p > last ? 0 : (last - p) / step + 1};
  }

  void execLoop(int loopIdx) {
    const PlanLoop& L = plan_.loops[static_cast<std::size_t>(loopIdx)];
    std::vector<std::uint8_t>& keepRow =
        keep_[static_cast<std::size_t>(loopIdx)];
    if (L.hasOuterGuards) {
      // Outer-variable guards are loop-invariant here: decide each child
      // once per loop entry instead of once per iteration.
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
    if (L.innermostAssignsOnly) {
      execInnermost(L, keepRow);
      return;
    }
    for (std::size_t k = 0; k < L.segments.size(); ++k) {
      const PlanSegment& seg = segmentInOrder(L, k);
      const Progression it = iterations(L, seg);
      std::int64_t v = it.first;
      for (std::int64_t t = 0; t < it.trips; ++t, v += it.step) {
        ivs_[static_cast<std::size_t>(L.depth)] = v;
        for (int m : seg.members)
          if (!L.hasOuterGuards || keepRow[static_cast<std::size_t>(m)])
            execChild(L.children[static_cast<std::size_t>(m)]);
      }
    }
  }

  HotRef rebase(const PlanRef& r, int ivIdx, const Progression& it) const {
    std::int64_t addr = r.constTerm;
    for (int d = 0; d < ivIdx; ++d)
      addr += r.coeffs[static_cast<std::size_t>(d)] *
              ivs_[static_cast<std::size_t>(d)];
    const std::int64_t innerCoeff = r.coeffs[static_cast<std::size_t>(ivIdx)];
    return {addr + innerCoeff * it.first, it.step * innerCoeff};
  }

  void execInnermost(const PlanLoop& L,
                     const std::vector<std::uint8_t>& keepRow) {
    for (std::size_t k = 0; k < L.segments.size(); ++k) {
      const PlanSegment& seg = segmentInOrder(L, k);
      const Progression it = iterations(L, seg);
      if (it.trips == 0) continue;
      hotStmts_.clear();
      hotReads_.clear();
      hotWrites_.clear();
      for (int m : seg.members) {
        if (L.hasOuterGuards && !keepRow[static_cast<std::size_t>(m)])
          continue;
        const PlanStmt& st =
            plan_.stmts[static_cast<std::size_t>(
                L.children[static_cast<std::size_t>(m)].index)];
        HotStmt hs;
        hs.stmtId = st.stmtId;
        hs.seed = st.seed;
        hs.rBegin = static_cast<std::uint32_t>(hotReads_.size());
        for (const PlanRef& r : st.reads)
          hotReads_.push_back(rebase(r, L.depth, it));
        hs.rEnd = static_cast<std::uint32_t>(hotReads_.size());
        hotWrites_.push_back(rebase(st.write, L.depth, it));
        hotStmts_.push_back(hs);
      }
      if (hotStmts_.empty()) continue;
      if (sink_ != nullptr)
        runSegment<true>(it.trips);
      else
        runSegment<false>(it.trips);
    }
  }

  // Valued, per access the steady state is one load, one mix, and one
  // in-place "addr += step"; per instance one mix64 store.  Measured against
  // hand-written kernels of the same value semantics, this loop is within
  // ~5% of the mix-chain floor — variants that recompute addresses as
  // base + t*step or pre-expand address strips both measured slower here.
  template <bool Emit>
  void runSegment(std::int64_t trips) {
    [[maybe_unused]] std::uint64_t* mem = mem_;
    const HotStmt* stmts = hotStmts_.data();
    HotRef* reads = hotReads_.data();
    HotRef* writes = hotWrites_.data();
    const std::size_t numStmts = hotStmts_.size();
    for (std::int64_t t = 0; t < trips; ++t) {
      for (std::size_t si = 0; si < numStmts; ++si) {
        const HotStmt hs = stmts[si];
        [[maybe_unused]] std::uint64_t acc = hs.seed;
        for (std::uint32_t ri = hs.rBegin; ri < hs.rEnd; ++ri) {
          HotRef& hr = reads[ri];
          if constexpr (Values)
            acc = mixCombine(acc,
                             mem[static_cast<std::uint64_t>(hr.addr) >> 3]);
          if constexpr (Emit) bPool_.push_back(hr.addr);
          hr.addr += hr.step;
        }
        HotRef& wr = writes[si];
        if constexpr (Values)
          mem[static_cast<std::uint64_t>(wr.addr) >> 3] = mix64(acc);
        if constexpr (Emit) {
          bStmt_.push_back(hs.stmtId);
          bOff_.push_back(bPool_.size());
          bWrites_.push_back(wr.addr);
        }
        wr.addr += wr.step;
      }
      if constexpr (Emit)
        if (bStmt_.size() >= kBlockCapacity) flush();
    }
    instrs_ += static_cast<std::uint64_t>(trips) * numStmts;
  }

  void execStmt(const PlanStmt& st) {
    [[maybe_unused]] std::uint64_t acc = st.seed;
    for (const PlanRef& r : st.reads) {
      const std::int64_t a = evalAddr(r, st.depth);
      if constexpr (Values)
        acc = mixCombine(acc, mem_[static_cast<std::uint64_t>(a) >> 3]);
      if (sink_ != nullptr) bPool_.push_back(a);
    }
    const std::int64_t w = evalAddr(st.write, st.depth);
    if constexpr (Values) mem_[static_cast<std::uint64_t>(w) >> 3] = mix64(acc);
    ++instrs_;
    if (sink_ != nullptr) {
      bStmt_.push_back(st.stmtId);
      bOff_.push_back(bPool_.size());
      bWrites_.push_back(w);
      if (bStmt_.size() >= kBlockCapacity) flush();
    }
  }

  std::int64_t evalAddr(const PlanRef& r, int depth) const {
    std::int64_t addr = r.constTerm;
    for (int d = 0; d < depth; ++d)
      addr += r.coeffs[static_cast<std::size_t>(d)] *
              ivs_[static_cast<std::size_t>(d)];
    return addr;
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
  std::uint64_t* mem_;  ///< null unless Values
  std::uint64_t instrs_ = 0;
  std::vector<std::int64_t> ivs_;
  std::vector<std::vector<std::uint8_t>> keep_;  ///< per loop, per child
  std::vector<HotRef> hotReads_;
  std::vector<HotRef> hotWrites_;
  std::vector<HotStmt> hotStmts_;
  // Structure-of-arrays chunk buffer; bOff_ carries the size()+1 fencepost.
  std::vector<int> bStmt_;
  std::vector<std::uint64_t> bOff_;
  std::vector<std::int64_t> bPool_;
  std::vector<std::int64_t> bWrites_;
};

}  // namespace

PlanCompileResult compilePlan(const Program& p, const DataLayout& layout,
                              const ExecOptions& opts) {
  PlanCompiler compiler(p, layout, opts);
  return compiler.compile();
}

const AccessPlan& PlanCompileResult::planOrThrow() const {
  GCR_CHECK(ok(), "plan compiler declined the program: " + reason);
  return *plan;
}

ExecResult executePlan(const AccessPlan& plan, const ExecOptions& opts,
                       InstrSink* sink) {
  ExecResult result;
  result.memory.assign(static_cast<std::size_t>(plan.layout->totalBytes() / 8),
                       0);
  initializeMemory(*plan.program, *plan.layout, opts, result.memory);
  PlanWalker<true> walker(plan, ScheduleSlice{}, sink, result.memory.data());
  walker.run();
  result.instrCount = walker.instrs();
  return result;
}

const char* parallelScheduleName(ParallelSchedule s) {
  return s == ParallelSchedule::Block ? "block" : "cyclic";
}

void replaySlice(const AccessPlan& plan, const ScheduleSlice& slice,
                 InstrSink* sink) {
  replayUntilRepeat(plan, slice, sink, nullptr);
}

std::uint64_t replayUntilRepeat(const AccessPlan& plan,
                                const ScheduleSlice& slice, InstrSink* sink,
                                const std::function<bool()>& repeats) {
  GCR_CHECK(slice.cores >= 1, "schedule needs at least one core");
  GCR_CHECK(slice.core >= 0 && slice.core < slice.cores,
            "core index outside [0, cores)");
  GCR_CHECK(sink != nullptr, "a slice replay needs a sink");
  PlanWalker<false> walker(plan, slice, sink);
  // Repeats are compared from step 2 on, so below three steps none can be
  // skipped: run them all without asking.
  if (plan.timeSteps <= 2) {
    walker.run();
    return 0;
  }
  return plan.timeSteps - walker.run(repeats);
}

void replayInterleaved(const AccessPlan& plan, int cores,
                       ParallelSchedule schedule, InstrSink* sink) {
  GCR_CHECK(cores >= 1, "schedule needs at least one core");
  GCR_CHECK(sink != nullptr, "replayInterleaved needs a sink");
  if (cores == 1) {
    replaySlice(plan, {1, 0, schedule}, sink);
    return;
  }
  // Region streams carry no time-step dependence (addresses are affine in
  // the iteration variables only), so materialize each top-level child's
  // per-core sub-streams once and re-emit them every time step.  A bare
  // statement child is core 0's one-instance stream.
  std::vector<std::vector<InstrTrace>> regions;
  regions.reserve(plan.top.size());
  for (const PlanChild& c : plan.top) {
    std::vector<InstrTrace> streams(
        c.isLoop ? static_cast<std::size_t>(cores) : 1);
    for (std::size_t core = 0; core < streams.size(); ++core)
      PlanWalker<false>(plan, {cores, static_cast<int>(core), schedule},
                        &streams[core])
          .runRegion(c);
    regions.push_back(std::move(streams));
  }
  for (std::uint64_t t = 0; t < plan.timeSteps; ++t) {
    for (const std::vector<InstrTrace>& streams : regions) {
      // Lockstep round-robin: one statement instance per core per round,
      // core order fixed; a core that exhausts its stream drops out while
      // the rest continue.  Implicit barrier = finishing the region.
      std::vector<std::size_t> pos(streams.size(), 0);
      bool any = true;
      while (any) {
        any = false;
        for (std::size_t core = 0; core < streams.size(); ++core) {
          const InstrTrace& s = streams[core];
          if (pos[core] >= s.size()) continue;
          const std::size_t i = pos[core]++;
          sink->onInstr(s.stmtId(i), s.reads(i), s.writeAddr(i));
          any = true;
        }
      }
    }
  }
}

}  // namespace gcr
