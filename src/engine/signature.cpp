#include "engine/signature.hpp"

#include <bit>
#include <cstdio>

namespace gcr {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Small type tags keeping adjacent fields from aliasing each other.
enum Tag : std::uint64_t {
  kTagArray = 0xA1,
  kTagLoop = 0xA2,
  kTagAssign = 0xA3,
  kTagGuard = 0xA4,
  kTagRef = 0xA5,
  kTagEnd = 0xA6,
};

void hashAffine(SigHasher& h, const AffineN& a) { h.i64(a.c).i64(a.s); }

void hashRef(SigHasher& h, const ArrayRef& r) {
  h.u64(kTagRef).i64(r.array).u64(r.subs.size());
  for (const Subscript& s : r.subs) {
    h.i64(s.depth);
    hashAffine(h, s.offset);
  }
}

void hashChildren(SigHasher& h, const std::vector<Child>& children);

void hashNode(SigHasher& h, const Node& n) {
  if (n.isLoop()) {
    const Loop& l = n.loop();
    h.u64(kTagLoop);
    hashAffine(h, l.lo);
    hashAffine(h, l.hi);
    h.b(l.reversed);
    hashChildren(h, l.body);
  } else {
    const Assign& a = n.assign();
    h.u64(kTagAssign).i64(a.id).u64(a.seed);
    hashRef(h, a.lhs);
    h.u64(a.rhs.size());
    for (const ArrayRef& r : a.rhs) hashRef(h, r);
  }
}

void hashChildren(SigHasher& h, const std::vector<Child>& children) {
  h.u64(children.size());
  for (const Child& c : children) {
    h.u64(c.guards.size());
    for (const GuardSpec& g : c.guards) {
      h.u64(kTagGuard).i64(g.depth);
      hashAffine(h, g.lo);
      hashAffine(h, g.hi);
    }
    hashNode(h, *c.node);
  }
  h.u64(kTagEnd);
}

void hashFusionOptions(SigHasher& h, const FusionOptions& f) {
  h.i64(static_cast<int>(f.strategy))
      .i64(f.minN)
      .i64(f.minLevel)
      .i64(f.maxLevels)
      .b(f.enableEmbedding)
      .b(f.enableSplitting)
      .i64(f.maxPeel);
}

void hashRegroupOptions(SigHasher& h, const RegroupOptions& r) {
  h.i64(r.minN).b(r.skipInnermostDim).b(r.innermostOnly);
}

void hashCacheConfig(SigHasher& h, const CacheConfig& c) {
  h.i64(c.sizeBytes).i64(c.lineSize).i64(c.ways);
}

}  // namespace

std::string Signature::str() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

SigHasher& SigHasher::u64(std::uint64_t v) {
  a_ = (a_ ^ v) * kFnvPrime;
  b_ = (b_ ^ std::rotl(v, 31)) * kFnvPrime + 0x2545f4914f6cdd1dull;
  return *this;
}

SigHasher& SigHasher::f64(double v) {
  return u64(std::bit_cast<std::uint64_t>(v));
}

SigHasher& SigHasher::str(std::string_view s) {
  u64(s.size());
  std::uint64_t word = 0;
  int used = 0;
  for (char ch : s) {
    word = (word << 8) | static_cast<unsigned char>(ch);
    if (++used == 8) {
      u64(word);
      word = 0;
      used = 0;
    }
  }
  if (used > 0) u64(word | (static_cast<std::uint64_t>(used) << 56));
  return *this;
}

Signature SigHasher::take() const {
  // Finalize each lane and cross-mix so order-sensitive low-entropy streams
  // still diffuse into both words.
  const std::uint64_t fa = splitmix(a_);
  const std::uint64_t fb = splitmix(b_);
  return {fa ^ splitmix(fb + 0x632be59bd9b4e019ull), fb ^ splitmix(fa)};
}

Signature programSignature(const Program& p) {
  SigHasher h;
  h.u64(p.arrays.size());
  for (const ArrayDecl& d : p.arrays) {
    h.u64(kTagArray).i64(d.elemSize).u64(d.extents.size());
    for (const AffineN& e : d.extents) hashAffine(h, e);
  }
  hashChildren(h, p.top);
  return h.take();
}

Signature pipelineOptionsSignature(const PipelineOptions& opts) {
  SigHasher h;
  h.b(opts.unrollSplit)
      .b(opts.orderLevels)
      .b(opts.distribute)
      .b(opts.fuse)
      .i64(opts.fusionLevels);
  hashFusionOptions(h, opts.fusionOptions);
  h.b(opts.regroup);
  hashRegroupOptions(h, opts.regroupOptions);
  h.b(opts.checkLegality);
  return h.take();
}

Signature layoutSignature(const DataLayout& layout) {
  SigHasher h;
  h.i64(layout.totalBytes()).u64(layout.numArrays());
  for (std::size_t a = 0; a < layout.numArrays(); ++a) {
    const ArrayLayout& l = layout.layoutOf(static_cast<ArrayId>(a));
    h.i64(l.base).u64(l.strides.size());
    for (std::int64_t s : l.strides) h.i64(s);
  }
  return h.take();
}

Signature machineSignature(const MachineConfig& machine) {
  SigHasher h;
  hashCacheConfig(h, machine.l1);
  hashCacheConfig(h, machine.l2);
  h.i64(machine.tlbEntries)
      .i64(machine.pageSize)
      .b(machine.l2NextLinePrefetch);
  return h.take();
}

Signature costSignature(const CostModel& cost) {
  SigHasher h;
  h.f64(cost.refCost).f64(cost.l1MissCost).f64(cost.l2MissCost).f64(
      cost.tlbMissCost);
  return h.take();
}

Signature topologySignature(const CacheTopology& topo) {
  SigHasher h;
  h.i64(topo.cores);
  hashCacheConfig(h, topo.l1);
  hashCacheConfig(h, topo.l2);
  hashCacheConfig(h, topo.llc);
  h.u64(static_cast<std::uint64_t>(topo.schedule));
  return h.take();
}

Signature multicoreCostSignature(const MulticoreCostModel& cost) {
  SigHasher h;
  h.f64(cost.refCost).f64(cost.l2HitCost).f64(cost.llcHitCost).f64(
      cost.memoryCost);
  return h.take();
}

}  // namespace gcr
