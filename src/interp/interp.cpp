#include "interp/interp.hpp"

#include <cstdlib>

#include "interp/plan.hpp"
#include "support/env.hpp"
#include "support/prng.hpp"

namespace gcr {

namespace {

class Executor {
 public:
  Executor(const Program& p, const DataLayout& layout, const ExecOptions& opts,
           InstrSink* sink)
      : p_(p), layout_(layout), opts_(opts), sink_(sink) {
    GCR_CHECK(layout_.numArrays() == p_.arrays.size(),
              "layout does not match program arrays");
    GCR_CHECK(layout_.totalBytes() % 8 == 0, "layout not 8-byte aligned");
    for (const ArrayDecl& d : p_.arrays) {
      GCR_CHECK(d.elemSize == 8, "interpreter requires 8-byte elements");
      extents_.push_back(concreteExtents(d, opts_.n));
    }
    result_.memory.assign(
        static_cast<std::size_t>(layout_.totalBytes() / 8), 0);
    initMemory();
  }

  ExecResult run() {
    for (std::uint64_t t = 0; t < opts_.timeSteps; ++t)
      for (const Child& c : p_.top) execChild(c);
    return std::move(result_);
  }

 private:
  void initMemory() { initializeMemory(p_, layout_, opts_, result_.memory); }

  void store(std::int64_t addr, std::uint64_t value) {
    GCR_CHECK(addr >= 0 && addr + 8 <= layout_.totalBytes(),
              "store outside data segment");
    result_.memory[static_cast<std::size_t>(addr / 8)] = value;
  }

  std::uint64_t load(std::int64_t addr) const {
    GCR_CHECK(addr >= 0 && addr + 8 <= layout_.totalBytes(),
              "load outside data segment");
    return result_.memory[static_cast<std::size_t>(addr / 8)];
  }

  std::int64_t subscriptValue(const Subscript& s) const {
    if (s.isConstant()) return s.offset.eval(opts_.n);
    GCR_CHECK(s.depth < static_cast<int>(loopVals_.size()),
              "subscript depth beyond current nest");
    return loopVals_[static_cast<std::size_t>(s.depth)] +
           s.offset.eval(opts_.n);
  }

  std::int64_t addressOf(const ArrayRef& r) {
    idxScratch_.clear();
    const auto& ext = extents_[static_cast<std::size_t>(r.array)];
    for (std::size_t d = 0; d < r.subs.size(); ++d) {
      const std::int64_t v = subscriptValue(r.subs[d]);
      if (opts_.boundsCheck)
        GCR_CHECK(v >= 0 && v < ext[d],
                  "subscript " + std::to_string(v) + " out of bounds for " +
                      p_.arrayDecl(r.array).name + " dim " + std::to_string(d));
      idxScratch_.push_back(v);
    }
    return layout_.addressOf(r.array, idxScratch_);
  }

  void execAssign(const Assign& a) {
    readScratch_.clear();
    std::uint64_t acc = a.seed;
    for (const ArrayRef& r : a.rhs) {
      const std::int64_t addr = addressOf(r);
      readScratch_.push_back(addr);
      acc = mixCombine(acc, load(addr));
    }
    const std::int64_t waddr = addressOf(a.lhs);
    store(waddr, mix64(acc));
    ++result_.instrCount;
    if (sink_) sink_->onInstr(a.id, readScratch_, waddr);
  }

  void execChild(const Child& c) {
    for (const GuardSpec& g : c.guards) {
      GCR_CHECK(g.depth < static_cast<int>(loopVals_.size()),
                "guard depth beyond current nest");
      const std::int64_t v = loopVals_[static_cast<std::size_t>(g.depth)];
      if (v < g.lo.eval(opts_.n) || v > g.hi.eval(opts_.n)) return;
    }
    const Node& n = *c.node;
    if (n.isAssign()) {
      execAssign(n.assign());
      return;
    }
    const Loop& l = n.loop();
    const std::int64_t lo = l.lo.eval(opts_.n);
    const std::int64_t hi = l.hi.eval(opts_.n);
    loopVals_.push_back(0);
    if (l.reversed) {
      for (std::int64_t v = hi; v >= lo; --v) {
        loopVals_.back() = v;
        for (const Child& ch : l.body) execChild(ch);
      }
    } else {
      for (std::int64_t v = lo; v <= hi; ++v) {
        loopVals_.back() = v;
        for (const Child& ch : l.body) execChild(ch);
      }
    }
    loopVals_.pop_back();
  }

  const Program& p_;
  const DataLayout& layout_;
  const ExecOptions& opts_;
  InstrSink* sink_;
  std::vector<std::vector<std::int64_t>> extents_;
  std::vector<std::int64_t> loopVals_;
  std::vector<std::int64_t> idxScratch_;
  std::vector<std::int64_t> readScratch_;
  ExecResult result_;
};

// GCR_ENGINE environment override, consulted only when opts.engine is Auto:
// "walk"/"tree" forces the tree walker, "plan" requires the plan engine.
// Cached once per process: execute() is on the hot measurement path and the
// answer must not change mid-run.
ExecEngine envEngine() {
  static const ExecEngine cached = execEngineFromToken(env::engineToken());
  return cached;
}

}  // namespace

ExecEngine execEngineFromToken(const std::string& token) {
  if (token == "walk" || token == "tree") return ExecEngine::TreeWalk;
  if (token == "plan") return ExecEngine::Plan;
  return ExecEngine::Auto;
}

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
                   const ExecOptions& opts, InstrSink* sink) {
  ExecEngine engine = opts.engine;
  if (engine == ExecEngine::Auto) engine = envEngine();
  if (engine != ExecEngine::TreeWalk) {
    PlanCompileResult compiled = compilePlan(p, layout, opts);
    if (compiled.ok()) return executePlan(*compiled.plan, opts, sink);
    GCR_CHECK(engine != ExecEngine::Plan,
              "plan engine required but program does not qualify: " +
                  compiled.reason);
  }
  Executor exec(p, layout, opts, sink);
  return exec.run();
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
