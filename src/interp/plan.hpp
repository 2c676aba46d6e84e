// Compiled access-plan execution engine: the one engine that executes and
// traces IR programs (interp/interp.hpp's execute() and trace() run it).
//
// In the paper's setting all subscripts are affine in the loop variables
// (§2.1) and all layouts are affine maps (§4, Fig. 7), so every address
// stream is exactly computable by induction-variable recurrences.
// compilePlan() exploits that: it lowers a (Program, DataLayout, n,
// timeSteps) quadruple ONCE into a flat op structure —
//
//   * loop ops with pre-evaluated [lo, hi] bounds and constant direction;
//   * guards resolved at compile time: guards on the immediately enclosing
//     loop variable become concrete iteration sub-ranges (segments), so no
//     guard is ever evaluated inside an innermost loop; guards on outer
//     variables are reduced to a single range test per loop entry;
//   * per-reference address recurrences  addr = const + Σ_d coeff_d · iv_d,
//     strength-reduced in the innermost loop to "addr += delta per step" with
//     a per-level re-base at each segment entry;
//   * all bounds checks hoisted to compile time: the executed iteration space
//     is a product of concrete intervals per statement, so subscript and
//     data-segment violations are decided exactly before execution starts.
//
// When any of this fails to hold (a guard beyond its nest, a provable
// subscript or data-segment violation, non-8-byte elements), compilePlan()
// declines with a reason, and every caller that needs the plan turns that
// into gcr::Error through PlanCompileResult::planOrThrow() before any
// instance runs.  The tree-walking interpreter is the test referee
// (tests/interp/tree_walker.hpp): the plan must reproduce its memory
// images, instruction counts and traces byte for byte, and decline every
// program on which it throws.
//
// One walker traverses a plan, in two instantiations: executePlan() runs it
// with values (the memory image and the mix chain), and the schedule
// replays of interp/schedule.hpp run it address-only over one core's slice
// of every top-level loop.  Traces, measurements and reuse profiles read
// addresses only, so they run a plan as the one-core replay (trace(),
// driver/measure.cpp) and build no memory image; values remain for
// execute(), gcrc and every semantic-equivalence check.  Segment order,
// reversed loops, outer guards, address recurrences and sink delivery are
// the same code in both.  The walker emits instances into a
// structure-of-arrays chunk buffer and delivers them to the sink via
// InstrSink::onBlock (one virtual call per ~4K instances) instead of once
// per instance.  It can stop at a time-step boundary: every step emits the
// same stream, so a simulator whose state repeats from one step to the next
// needs no more of them, and replayUntilRepeat (interp/schedule.hpp) ends
// the replay there.
#pragma once

#include <memory>
#include <string>

#include "interp/interp.hpp"

namespace gcr {

/// One compiled array reference: byte address = constTerm + Σ coeffs[d]·iv_d.
struct PlanRef {
  std::int64_t constTerm = 0;
  std::vector<std::int64_t> coeffs;  ///< one per enclosing loop depth
};

/// One compiled statement.
struct PlanStmt {
  int stmtId = -1;
  std::uint64_t seed = 1;
  int depth = 0;  ///< number of enclosing loops
  std::vector<PlanRef> reads;
  PlanRef write;
};

/// Residual runtime guard on an *outer* loop variable (depth < parent loop):
/// checked once per entry of the guarded child's parent loop.
struct PlanGuard {
  int depth = 0;
  std::int64_t lo = 0, hi = -1;
};

/// A member of a compiled loop body (or of the top level).
struct PlanChild {
  int index = -1;  ///< into AccessPlan::loops or AccessPlan::stmts
  bool isLoop = false;
  std::vector<PlanGuard> outerGuards;
};

/// A maximal iteration sub-range of a loop over which the set of active
/// children is constant; guards at the loop's own depth are fully resolved
/// into these at compile time.
struct PlanSegment {
  std::int64_t lo = 0, hi = -1;  ///< inclusive
  std::vector<int> members;      ///< child indices, in program order
};

struct PlanLoop {
  std::int64_t lo = 0, hi = -1;  ///< concrete, inclusive; lo <= hi
  bool reversed = false;
  int depth = 0;  ///< this loop's induction-variable index
  bool innermostAssignsOnly = false;  ///< fast path: body is pure statements
  bool hasOuterGuards = false;
  std::vector<PlanChild> children;
  std::vector<PlanSegment> segments;  ///< ascending, disjoint, non-empty
};

struct AccessPlan {
  const Program* program = nullptr;
  const DataLayout* layout = nullptr;
  std::int64_t n = 0;
  std::uint64_t timeSteps = 1;
  std::vector<PlanLoop> loops;
  std::vector<PlanStmt> stmts;
  std::vector<PlanChild> top;
  int maxDepth = 0;
  /// Exact dynamic counts per time step (guards included) — used to pre-size
  /// the executor's chunk buffers and available to callers for reserve().
  std::uint64_t instrsPerStep = 0;
  std::uint64_t readsPerStep = 0;
  std::size_t maxReadsPerStmt = 0;
};

struct PlanCompileResult {
  std::unique_ptr<AccessPlan> plan;  ///< null when compilation declined
  std::string reason;                ///< why, when declined
  bool ok() const { return plan != nullptr; }
  /// The plan, or gcr::Error with the compiler's reason when it declined:
  /// the one place a declined program becomes an error.
  const AccessPlan& planOrThrow() const;
};

/// Lower (p, layout, opts.n, opts.timeSteps) into an access plan, or decline
/// with a reason.  The returned plan borrows `p` and `layout`; they must
/// outlive it.
PlanCompileResult compilePlan(const Program& p, const DataLayout& layout,
                              const ExecOptions& opts);

/// Execute a compiled plan with values: the memory image and instruction
/// count, and the instruction stream when `sink` is given (it sees it
/// through onBlock in chunks).
ExecResult executePlan(const AccessPlan& plan, const ExecOptions& opts,
                       InstrSink* sink = nullptr);

}  // namespace gcr
