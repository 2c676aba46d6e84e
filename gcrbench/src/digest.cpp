#include "digest.hpp"

#include <bit>
#include <cstdio>

#include "ir/print.hpp"
#include "support/prng.hpp"

namespace gcrbench {

namespace {

/// FNV-1a 64 over a canonical little-endian field encoding.
class Hasher {
 public:
  Hasher& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }
  Hasher& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  Hasher& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
  Hasher& str(const std::string& s) {
    u64(s.size());
    for (char c : s) byte(static_cast<std::uint8_t>(c));
    return *this;
  }
  Hasher& histogram(const gcr::Log2Histogram& h) {
    const int top = h.highestNonEmptyBin();
    i64(top);
    for (int b = 0; b <= top; ++b) u64(h.binCount(b));
    return u64(h.coldCount());
  }
  Digest value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  Digest h_ = 0xcbf29ce484222325ull;
};

}  // namespace

Digest digestOf(const gcr::Measurement& m) {
  Hasher h;
  h.u64(m.counts.refs)
      .u64(m.counts.l1Misses)
      .u64(m.counts.l2Misses)
      .u64(m.counts.tlbMisses)
      .u64(m.counts.l2Writebacks)
      .u64(m.counts.l2Prefetches)
      .u64(m.counts.l2PrefetchHits)
      .f64(m.cycles)
      .u64(m.memoryTrafficBytes)
      .f64(m.effectiveBandwidth);
  return h.value();
}

Digest digestOf(const gcr::ReuseProfile& p) {
  Hasher h;
  h.histogram(p.histogram).u64(p.accesses).u64(p.distinctData);
  return h.value();
}

Digest digestOf(const gcr::MulticoreProfile& p) {
  Hasher h;
  h.i64(p.cores)
      .i64(static_cast<std::int64_t>(p.schedule))
      .u64(p.llcCapacityLines);
  for (const gcr::CoreCacheStats& c : p.perCore)
    h.u64(c.refs)
        .u64(c.l1Misses)
        .u64(c.l2Misses)
        .u64(c.l2Writebacks)
        .u64(c.lineAccesses)
        .u64(c.coldLines);
  h.histogram(p.shared)
      .u64(p.sharedAccesses)
      .u64(p.sharedColdLines)
      .f64(p.llcMissFraction)
      .f64(p.cycles);
  return h.value();
}

Digest digestOf(const gcr::PipelineResult& r) {
  Hasher h;
  h.str(gcr::toString(r.program))
      .u64(r.regrouped ? 1 : 0)
      .i64(r.unrolledLoops)
      .i64(r.arraysAfterSplit)
      .i64(r.distributedLoops)
      .u64(r.diagnostics.size());
  for (const gcr::Diagnostic& d : r.diagnostics) h.str(d.format());
  return h.value();
}

Digest digestOf(const gcr::SymbolicReuseProfile& p,
                const gcr::SymbolicEvaluation& e) {
  Hasher h;
  h.u64(p.sites.size())
      .histogram(e.histogram)
      .u64(e.accesses)
      .u64(e.cold)
      .u64(e.totalReuses)
      .u64(e.evadableReuses)
      .u64(e.bailedAccesses);
  return h.value();
}

std::string hex(Digest d) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(d));
  return buf;
}

Digest combine(Digest acc, Digest d) { return gcr::mixCombine(acc, d); }

}  // namespace gcrbench
