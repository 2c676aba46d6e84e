#include "interp/interp.hpp"

#include "interp/schedule.hpp"
#include "support/prng.hpp"

namespace gcr {

// Initial contents are a function of (array, logical index) — never of the
// address — so executions under different layouts start from the same
// logical state and stay comparable.
void initializeMemory(const Program& p, const DataLayout& layout,
                      const ExecOptions& opts,
                      std::vector<std::uint64_t>& memory) {
  std::vector<std::int64_t> idx;
  for (std::size_t a = 0; a < p.arrays.size(); ++a) {
    const auto ext = concreteExtents(p.arrays[a], opts.n);
    const ArrayLayout& al = layout.layoutOf(static_cast<ArrayId>(a));
    idx.assign(ext.size(), 0);
    // The address map is affine, so the odometer walk below maintains the
    // address incrementally: +stride on a dimension step, -(ext-1)*stride
    // when a dimension wraps.  One addressOf per array, not per element.
    std::int64_t addr = layout.addressOf(static_cast<ArrayId>(a), idx);
    std::int64_t linear = 0;
    for (;;) {
      GCR_CHECK(addr >= 0 && addr + 8 <= layout.totalBytes(),
                "store outside data segment");
      const std::uint64_t value =
          opts.initValue
              ? opts.initValue(static_cast<ArrayId>(a), idx)
              : mix64(mixCombine(0xabcd1234u + a,
                                 static_cast<std::uint64_t>(linear)));
      memory[static_cast<std::size_t>(addr / 8)] = value;
      ++linear;
      int d = static_cast<int>(ext.size()) - 1;
      while (d >= 0 && ++idx[static_cast<std::size_t>(d)] ==
                           ext[static_cast<std::size_t>(d)]) {
        idx[static_cast<std::size_t>(d)] = 0;
        addr -= al.strides[static_cast<std::size_t>(d)] *
                (ext[static_cast<std::size_t>(d)] - 1);
        --d;
      }
      if (d < 0) break;
      addr += al.strides[static_cast<std::size_t>(d)];
    }
  }
}

ExecResult execute(const Program& p, const DataLayout& layout,
                   const ExecOptions& opts) {
  const PlanCompileResult compiled = compilePlan(p, layout, opts);
  return executePlan(compiled.planOrThrow(), opts);
}

void trace(const Program& p, const DataLayout& layout, const ExecOptions& opts,
           InstrSink& sink) {
  const PlanCompileResult compiled = compilePlan(p, layout, opts);
  replaySlice(compiled.planOrThrow(), ScheduleSlice{}, &sink);
}

std::vector<std::uint64_t> extractArray(const ExecResult& r,
                                        const DataLayout& layout,
                                        const Program& p, ArrayId a,
                                        std::int64_t n) {
  const ArrayDecl& d = p.arrayDecl(a);
  const auto ext = concreteExtents(d, n);
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(elementCount(d, n)));
  std::vector<std::int64_t> idx(ext.size(), 0);
  for (;;) {
    const std::int64_t addr = layout.addressOf(a, idx);
    GCR_CHECK(addr >= 0 && addr + 8 <= layout.totalBytes(),
              "extract outside data segment");
    out.push_back(r.memory[static_cast<std::size_t>(addr / 8)]);
    int dim = static_cast<int>(ext.size()) - 1;
    while (dim >= 0 && ++idx[static_cast<std::size_t>(dim)] ==
                           ext[static_cast<std::size_t>(dim)]) {
      idx[static_cast<std::size_t>(dim)] = 0;
      --dim;
    }
    if (dim < 0) break;
  }
  return out;
}

bool sameArrayContents(const Program& p, const ExecResult& a,
                       const DataLayout& layoutA, const ExecResult& b,
                       const DataLayout& layoutB, std::int64_t n) {
  for (std::size_t ar = 0; ar < p.arrays.size(); ++ar) {
    const ArrayId id = static_cast<ArrayId>(ar);
    if (extractArray(a, layoutA, p, id, n) !=
        extractArray(b, layoutB, p, id, n))
      return false;
  }
  return true;
}

}  // namespace gcr
