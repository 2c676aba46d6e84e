// Execution-driven interpreter for IR programs.
//
// Two jobs:
//   1. exact value semantics — every statement instance computes
//      `lhs = mix(seed, rhs values...)` over uint64, so two programs are
//      semantically equal iff their final per-array contents are identical.
//      This is the correctness oracle for every transformation pass.
//   2. trace generation — each executed instance is reported to an InstrSink
//      with its read/write byte addresses under a chosen DataLayout.
//
// Two engines share these semantics: the tree-walking interpreter (this
// file's Executor — the oracle) and the compiled access-plan engine
// (interp/plan.hpp), which strength-reduces address streams and batches sink
// delivery.  execute() dispatches to the plan engine whenever the program
// qualifies (all shipped IR does) and falls back to the walker otherwise.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "interp/layout.hpp"
#include "interp/trace.hpp"
#include "ir/ir.hpp"

namespace gcr {

/// Which execution engine execute() uses.  Auto prefers the compiled plan
/// and falls back to the tree walker when the program does not qualify; the
/// GCR_ENGINE environment variable ("plan", "walk") overrides Auto.
enum class ExecEngine { Auto, TreeWalk, Plan };

/// Map a GCR_ENGINE token to an engine: "walk"/"tree" force the oracle,
/// "plan" requires the plan engine.  Anything else (including "") is Auto.
/// The single place
/// the token syntax is defined; callers obtain the raw token from
/// gcr::env::engineToken() (support/env.hpp).
ExecEngine execEngineFromToken(const std::string& token);

struct ExecOptions {
  std::int64_t n = 16;           ///< problem size (value of the parameter N)
  bool boundsCheck = true;       ///< verify subscripts against extents
  std::uint64_t timeSteps = 1;   ///< repeat the whole program body this many
                                 ///< times (the paper counts only loops inside
                                 ///< the time-step loop)
  /// Initial contents as a function of (array, logical index).  Defaults to
  /// a hash of (array id, linear index).  Override when comparing programs
  /// whose array sets differ (e.g. after array splitting), so corresponding
  /// elements start equal.
  std::function<std::uint64_t(ArrayId, std::span<const std::int64_t>)>
      initValue;
  /// Engine selection; see ExecEngine.  TreeWalk forces the oracle; Plan
  /// fails loudly when the program does not qualify (differential tests).
  ExecEngine engine = ExecEngine::Auto;
};

struct ExecResult {
  std::vector<std::uint64_t> memory;  ///< one word per 8-byte element slot
  std::uint64_t instrCount = 0;
};

/// Execute `p` at problem size `opts.n` under `layout`, reporting each
/// instance to `sink` (may be null).  All arrays must have elemSize 8.
ExecResult execute(const Program& p, const DataLayout& layout,
                   const ExecOptions& opts, InstrSink* sink = nullptr);

/// Fill a zeroed memory image with the deterministic initial contents — a
/// function of (array, logical index), never of the address.  Shared by both
/// engines so their starting states are bit-identical.
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
