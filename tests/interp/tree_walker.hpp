// Test-only referee for the compiled plan: the tree-walking interpreter.
// It re-walks the Child/Node tree for every statement instance, evaluates
// loop bounds and guards at run time, derives every address from the
// subscripts and the layout, checks every subscript and every load and
// store as it goes, and reports each instance to the sink through one
// onInstr call.  None of the plan's compile-time guard resolution,
// strength reduction or batched delivery.  It is the engine execute()
// shipped with before the compiled plan served every execution; the plan
// must reproduce its memory image, instruction count and trace exactly
// (tests/interp/plan_test.cpp), and an error it raises mid-run is one the
// plan compiler declines before running (declined_plan_test.cpp).  The
// class body is the shipped code unchanged, apart from its namespace and
// the bounds check, which is always on.
#pragma once

#include <string>
#include <vector>

#include "interp/interp.hpp"
#include "support/assert.hpp"
#include "support/prng.hpp"

namespace gcr::testing {

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

/// The referee's run of `p`: its memory image and instruction count, and
/// every instance reported to `sink` (may be null) as it executes.
inline ExecResult walkTree(const Program& p, const DataLayout& layout,
                           const ExecOptions& opts,
                           InstrSink* sink = nullptr) {
  return Executor(p, layout, opts, sink).run();
}

}  // namespace gcr::testing
