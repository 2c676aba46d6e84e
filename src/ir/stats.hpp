// Structural statistics over programs — the numbers reported in the paper's
// Figure 9 ("loop nests (levels)", "No. arrays") and Section 4.4 (loop counts
// per level before/after transformation).
#pragma once

#include <string>
#include <vector>

#include "ir/ir.hpp"

namespace gcr {

struct ProgramStats {
  int numArrays = 0;        ///< declared arrays
  int numArraysUsed = 0;    ///< arrays referenced by at least one statement
  int numStatements = 0;    ///< non-loop statements
  int numLoops = 0;         ///< all loops at all levels
  int numLoopNests = 0;     ///< top-level loops
  int maxLevel = 0;         ///< deepest nesting (1 = single loop)
  std::vector<int> loopsPerLevel;  ///< loops at each nesting level (0-based)

  std::string summary() const;
};

ProgramStats computeStats(const Program& p);

/// Upper bound on the dynamic memory references (reads + writes) executed at
/// problem size `n`: guard ranges are ignored, so every statement is charged
/// the full trip count of its enclosing loops.  Used to pre-size trace
/// buffers.  Throws gcr::Error when the count overflows 64 bits.
std::uint64_t estimateDynamicRefs(const Program& p, std::int64_t n,
                                  std::uint64_t timeSteps = 1);

}  // namespace gcr
