// Execution-driven interpreter for IR programs.
//
// Two jobs, one engine — the compiled access plan (interp/plan.hpp):
//   1. exact value semantics — every statement instance computes
//      `lhs = mix(seed, rhs values...)` over uint64, so two programs are
//      semantically equal iff their final per-array contents are identical.
//      This is the correctness oracle for every transformation pass:
//      execute().
//   2. trace generation — each executed instance is reported to an InstrSink
//      with its read/write byte addresses under a chosen DataLayout.  The
//      addresses never depend on memory contents, so trace() runs the plan
//      address-only and builds no memory image.
//
// Both compile the plan first, and a program the plan compiler declines (a
// subscript out of bounds, an access outside the data segment, a guard
// beyond its nest) throws gcr::Error with the compiler's reason before any
// instance runs.  The tree walker the plan replaced is the test referee
// (tests/interp/tree_walker.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "interp/layout.hpp"
#include "interp/trace.hpp"
#include "ir/ir.hpp"

namespace gcr {

struct ExecOptions {
  std::int64_t n = 16;           ///< problem size (value of the parameter N)
  std::uint64_t timeSteps = 1;   ///< repeat the whole program body this many
                                 ///< times (the paper counts only loops inside
                                 ///< the time-step loop)
  /// Initial contents as a function of (array, logical index).  Defaults to
  /// a hash of (array id, linear index).  Override when comparing programs
  /// whose array sets differ (e.g. after array splitting), so corresponding
  /// elements start equal.
  std::function<std::uint64_t(ArrayId, std::span<const std::int64_t>)>
      initValue;
};

struct ExecResult {
  std::vector<std::uint64_t> memory;  ///< one word per 8-byte element slot
  std::uint64_t instrCount = 0;
};

/// Execute `p` at problem size `opts.n` under `layout`: the memory image
/// and the instruction count.  All arrays must have elemSize 8.
ExecResult execute(const Program& p, const DataLayout& layout,
                   const ExecOptions& opts);

/// Report every instance of `p` at problem size `opts.n` under `layout` to
/// `sink`, addresses only: the stream execute() runs, without its values.
void trace(const Program& p, const DataLayout& layout, const ExecOptions& opts,
           InstrSink& sink);

/// Fill a zeroed memory image with the deterministic initial contents — a
/// function of (array, logical index), never of the address, so executions
/// under different layouts start from the same logical state.
void initializeMemory(const Program& p, const DataLayout& layout,
                      const ExecOptions& opts,
                      std::vector<std::uint64_t>& memory);

/// Extract one array's logical contents (row-major index order) from a
/// memory image, independent of layout — used to compare program versions
/// that use different data layouts.
std::vector<std::uint64_t> extractArray(const ExecResult& r,
                                        const DataLayout& layout,
                                        const Program& p, ArrayId a,
                                        std::int64_t n);

/// True iff both results hold identical logical contents for every array of
/// `p` (the two executions may use different layouts).
bool sameArrayContents(const Program& p, const ExecResult& a,
                       const DataLayout& layoutA, const ExecResult& b,
                       const DataLayout& layoutB, std::int64_t n);

}  // namespace gcr
