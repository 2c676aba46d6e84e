#include "store/codec.hpp"

#include <utility>

#include "support/serialize.hpp"

namespace gcr::store {

namespace {

// Per-codec payload versions, bumped independently of the file format when
// an artifact's encoding changes; a mismatch rejects (recompute), never
// mis-parses.
constexpr std::uint32_t kMeasurementCodec = 2;
constexpr std::uint32_t kProfileCodec = 1;
constexpr std::uint32_t kPipelineCodec = 1;
constexpr std::uint32_t kSymbolicProfileCodec = 1;
constexpr std::uint32_t kMulticoreProfileCodec = 2;

// Nesting bound for the recursive Program decoder.  Real pipelines produce
// single-digit depths; the cap only guards the stack against a
// checksum-colliding adversarial payload.
constexpr int kMaxNodeDepth = 256;

// --- shared pieces ---------------------------------------------------------

void putAffine(ByteWriter& w, const AffineN& a) { w.i64(a.c).i64(a.s); }

AffineN getAffine(ByteReader& r) {
  AffineN a;
  a.c = r.i64();
  a.s = r.i64();
  return a;
}

void putStrings(ByteWriter& w, const std::vector<std::string>& v) {
  w.u64(v.size());
  for (const std::string& s : v) w.str(s);
}

std::vector<std::string> getStrings(ByteReader& r) {
  const std::size_t n = r.seqLen(8);
  std::vector<std::string> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(r.str());
  return v;
}

void putInts(ByteWriter& w, const std::vector<int>& v) {
  w.u64(v.size());
  for (int x : v) w.i64(x);
}

std::vector<int> getInts(ByteReader& r) {
  const std::size_t n = r.seqLen(8);
  std::vector<int> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<int>(r.i64()));
  return v;
}

void putHistogram(ByteWriter& w, const Log2Histogram& h) {
  w.u64(h.coldCount());
  const int top = h.highestNonEmptyBin();
  w.u64(static_cast<std::uint64_t>(top + 1));
  for (int bin = 0; bin <= top; ++bin) w.u64(h.binCount(bin));
}

Log2Histogram getHistogram(ByteReader& r) {
  Log2Histogram h;
  const std::uint64_t cold = r.u64();
  if (cold > 0) h.add(Log2Histogram::kCold, cold);
  const std::size_t bins = r.seqLen(8);
  GCR_CHECK(bins <= static_cast<std::size_t>(Log2Histogram::kMaxBin) + 1,
            "histogram bin count out of range");
  for (std::size_t bin = 0; bin < bins; ++bin) {
    const std::uint64_t count = r.u64();
    if (count > 0) h.add(Log2Histogram::binLow(static_cast<int>(bin)), count);
  }
  return h;
}

// --- Program ---------------------------------------------------------------

void putRef(ByteWriter& w, const ArrayRef& ref) {
  w.i64(ref.array);
  w.u64(ref.subs.size());
  for (const Subscript& s : ref.subs) {
    w.i64(s.depth);
    putAffine(w, s.offset);
  }
}

ArrayRef getRef(ByteReader& r) {
  ArrayRef ref;
  ref.array = static_cast<ArrayId>(r.i64());
  const std::size_t n = r.seqLen(24);
  ref.subs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Subscript s;
    s.depth = static_cast<int>(r.i64());
    s.offset = getAffine(r);
    ref.subs.push_back(s);
  }
  return ref;
}

void putChild(ByteWriter& w, const Child& c);

void putNode(ByteWriter& w, const Node& n) {
  if (n.isLoop()) {
    const Loop& l = n.loop();
    w.u8(0);
    w.str(l.var);
    putAffine(w, l.lo);
    putAffine(w, l.hi);
    w.b(l.reversed);
    w.u64(l.body.size());
    for (const Child& c : l.body) putChild(w, c);
  } else {
    const Assign& a = n.assign();
    w.u8(1);
    w.i64(a.id);
    putRef(w, a.lhs);
    w.u64(a.rhs.size());
    for (const ArrayRef& ref : a.rhs) putRef(w, ref);
    w.u64(a.seed);
    w.str(a.label);
  }
}

void putChild(ByteWriter& w, const Child& c) {
  w.u64(c.guards.size());
  for (const GuardSpec& g : c.guards) {
    w.i64(g.depth);
    putAffine(w, g.lo);
    putAffine(w, g.hi);
  }
  putNode(w, *c.node);
}

Child getChild(ByteReader& r, int depth);

NodePtr getNode(ByteReader& r, int depth) {
  GCR_CHECK(depth < kMaxNodeDepth, "serialized program nests too deeply");
  const std::uint8_t tag = r.u8();
  if (tag == 0) {
    Loop l;
    l.var = r.str();
    l.lo = getAffine(r);
    l.hi = getAffine(r);
    l.reversed = r.b();
    const std::size_t n = r.seqLen(9);
    l.body.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      l.body.push_back(getChild(r, depth + 1));
    return makeNode(std::move(l));
  }
  GCR_CHECK(tag == 1, "unknown node tag");
  Assign a;
  a.id = static_cast<int>(r.i64());
  a.lhs = getRef(r);
  const std::size_t n = r.seqLen(16);
  a.rhs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) a.rhs.push_back(getRef(r));
  a.seed = r.u64();
  a.label = r.str();
  return makeNode(std::move(a));
}

Child getChild(ByteReader& r, int depth) {
  Child c;
  const std::size_t guards = r.seqLen(40);
  c.guards.reserve(guards);
  for (std::size_t i = 0; i < guards; ++i) {
    GuardSpec g;
    g.depth = static_cast<int>(r.i64());
    g.lo = getAffine(r);
    g.hi = getAffine(r);
    c.guards.push_back(g);
  }
  c.node = getNode(r, depth);
  return c;
}

void putProgram(ByteWriter& w, const Program& p) {
  w.str(p.name);
  w.u64(p.arrays.size());
  for (const ArrayDecl& a : p.arrays) {
    w.str(a.name);
    w.i64(a.elemSize);
    w.u64(a.extents.size());
    for (const AffineN& e : a.extents) putAffine(w, e);
  }
  w.u64(p.top.size());
  for (const Child& c : p.top) putChild(w, c);
}

Program getProgram(ByteReader& r) {
  Program p;
  p.name = r.str();
  const std::size_t arrays = r.seqLen(24);
  p.arrays.reserve(arrays);
  for (std::size_t i = 0; i < arrays; ++i) {
    ArrayDecl a;
    a.name = r.str();
    a.elemSize = static_cast<int>(r.i64());
    const std::size_t rank = r.seqLen(16);
    a.extents.reserve(rank);
    for (std::size_t d = 0; d < rank; ++d) a.extents.push_back(getAffine(r));
    p.arrays.push_back(std::move(a));
  }
  const std::size_t top = r.seqLen(9);
  p.top.reserve(top);
  for (std::size_t i = 0; i < top; ++i) p.top.push_back(getChild(r, 0));
  return p;
}

// --- reports, diagnostics, regrouping --------------------------------------

void putDiagnostics(ByteWriter& w, const std::vector<Diagnostic>& diags) {
  w.u64(diags.size());
  for (const Diagnostic& d : diags) {
    w.u8(static_cast<std::uint8_t>(d.severity));
    w.str(d.pass);
    w.str(d.rule);
    w.str(d.program);
    w.str(d.loc);
    w.str(d.ref);
    w.u64(d.witness.size());
    for (std::int64_t x : d.witness) w.i64(x);
    w.str(d.message);
  }
}

std::vector<Diagnostic> getDiagnostics(ByteReader& r) {
  const std::size_t n = r.seqLen(1);
  std::vector<Diagnostic> diags;
  diags.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Diagnostic d;
    const std::uint8_t sev = r.u8();
    GCR_CHECK(sev <= static_cast<std::uint8_t>(Severity::Error),
              "diagnostic severity out of range");
    d.severity = static_cast<Severity>(sev);
    d.pass = r.str();
    d.rule = r.str();
    d.program = r.str();
    d.loc = r.str();
    d.ref = r.str();
    const std::size_t wn = r.seqLen(8);
    d.witness.reserve(wn);
    for (std::size_t k = 0; k < wn; ++k) d.witness.push_back(r.i64());
    d.message = r.str();
    diags.push_back(std::move(d));
  }
  return diags;
}

void putRegrouping(ByteWriter& w, const Regrouping& rg) {
  w.u64(static_cast<std::uint64_t>(rg.maxRank()));
  for (int dim = 0; dim < rg.maxRank(); ++dim) {
    const auto& partition = rg.partitionAt(dim);
    w.u64(partition.size());
    for (const std::vector<ArrayId>& members : partition) {
      w.u64(members.size());
      for (ArrayId a : members) w.i64(a);
    }
  }
}

Regrouping getRegrouping(ByteReader& r) {
  const std::size_t rank = r.seqLen(8);
  std::vector<std::vector<std::vector<ArrayId>>> partitions;
  partitions.reserve(rank);
  for (std::size_t dim = 0; dim < rank; ++dim) {
    const std::size_t sets = r.seqLen(8);
    std::vector<std::vector<ArrayId>> partition;
    partition.reserve(sets);
    for (std::size_t s = 0; s < sets; ++s) {
      const std::size_t members = r.seqLen(8);
      std::vector<ArrayId> set;
      set.reserve(members);
      for (std::size_t m = 0; m < members; ++m)
        set.push_back(static_cast<ArrayId>(r.i64()));
      partition.push_back(std::move(set));
    }
    partitions.push_back(std::move(partition));
  }
  return Regrouping::fromPartitions(std::move(partitions));
}

template <typename T, typename Decode>
std::optional<T> decodeOrNull(std::span<const std::uint8_t> bytes,
                              std::uint32_t codecVersion, Decode&& decode) {
  try {
    ByteReader r(bytes);
    if (r.u32() != codecVersion) return std::nullopt;
    T value = decode(r);
    if (!r.atEnd()) return std::nullopt;  // trailing garbage
    return std::optional<T>(std::move(value));
  } catch (const Error&) {
    return std::nullopt;
  }
}

}  // namespace

// --- Measurement -----------------------------------------------------------

std::vector<std::uint8_t> encodeMeasurement(const Measurement& m) {
  ByteWriter w;
  w.u32(kMeasurementCodec);
  w.u64(m.counts.refs);
  w.u64(m.counts.l1Misses);
  w.u64(m.counts.l2Misses);
  w.u64(m.counts.tlbMisses);
  w.u64(m.counts.l2Writebacks);
  w.u64(m.counts.l2Prefetches);
  w.u64(m.counts.l2PrefetchHits);
  w.f64(m.cycles);
  w.u64(m.memoryTrafficBytes);
  w.f64(m.effectiveBandwidth);
  return w.take();
}

std::optional<Measurement> decodeMeasurement(
    std::span<const std::uint8_t> bytes) {
  return decodeOrNull<Measurement>(bytes, kMeasurementCodec, [](ByteReader& r) {
    Measurement m;
    m.counts.refs = r.u64();
    m.counts.l1Misses = r.u64();
    m.counts.l2Misses = r.u64();
    m.counts.tlbMisses = r.u64();
    m.counts.l2Writebacks = r.u64();
    m.counts.l2Prefetches = r.u64();
    m.counts.l2PrefetchHits = r.u64();
    m.cycles = r.f64();
    m.memoryTrafficBytes = r.u64();
    m.effectiveBandwidth = r.f64();
    return m;
  });
}

// --- ReuseProfile ----------------------------------------------------------

std::vector<std::uint8_t> encodeReuseProfile(const ReuseProfile& p) {
  ByteWriter w;
  w.u32(kProfileCodec);
  putHistogram(w, p.histogram);
  w.u64(p.accesses);
  w.u64(p.distinctData);
  return w.take();
}

std::optional<ReuseProfile> decodeReuseProfile(
    std::span<const std::uint8_t> bytes) {
  return decodeOrNull<ReuseProfile>(bytes, kProfileCodec, [](ByteReader& r) {
    ReuseProfile p;
    p.histogram = getHistogram(r);
    p.accesses = r.u64();
    p.distinctData = r.u64();
    return p;
  });
}

// --- PipelineResult --------------------------------------------------------

std::vector<std::uint8_t> encodePipelineResult(const PipelineResult& res) {
  ByteWriter w;
  w.u32(kPipelineCodec);
  putProgram(w, res.program);
  w.b(res.regrouped);
  putRegrouping(w, res.regrouping);
  w.i64(res.fusionReport.fusions);
  w.i64(res.fusionReport.embeddings);
  w.i64(res.fusionReport.peels);
  putStrings(w, res.fusionReport.log);
  putStrings(w, res.fusionReport.signals);
  putInts(w, res.fusionReport.loopsPerLevelBefore);
  putInts(w, res.fusionReport.loopsPerLevelAfter);
  w.i64(res.regroupReport.compatibleGroups);
  w.i64(res.regroupReport.partitionsFormed);
  putStrings(w, res.regroupReport.log);
  w.i64(res.unrolledLoops);
  w.i64(res.arraysAfterSplit);
  w.i64(res.distributedLoops);
  putDiagnostics(w, res.diagnostics);
  return w.take();
}

std::optional<PipelineResult> decodePipelineResult(
    std::span<const std::uint8_t> bytes) {
  return decodeOrNull<PipelineResult>(
      bytes, kPipelineCodec, [](ByteReader& r) {
        PipelineResult res;
        res.program = getProgram(r);
        res.regrouped = r.b();
        res.regrouping = getRegrouping(r);
        res.fusionReport.fusions = static_cast<int>(r.i64());
        res.fusionReport.embeddings = static_cast<int>(r.i64());
        res.fusionReport.peels = static_cast<int>(r.i64());
        res.fusionReport.log = getStrings(r);
        res.fusionReport.signals = getStrings(r);
        res.fusionReport.loopsPerLevelBefore = getInts(r);
        res.fusionReport.loopsPerLevelAfter = getInts(r);
        res.regroupReport.compatibleGroups = static_cast<int>(r.i64());
        res.regroupReport.partitionsFormed = static_cast<int>(r.i64());
        res.regroupReport.log = getStrings(r);
        res.unrolledLoops = static_cast<int>(r.i64());
        res.arraysAfterSplit = static_cast<int>(r.i64());
        res.distributedLoops = static_cast<int>(r.i64());
        res.diagnostics = getDiagnostics(r);
        return res;
      });
}

// --- SymbolicReuseProfile --------------------------------------------------

namespace {

void putOptExpr(ByteWriter& w, const SymExpr& e) {
  w.b(e.valid());
  if (e.valid()) e.encode(w);
}

SymExpr getOptExpr(ByteReader& r) {
  if (!r.b()) return {};
  return SymExpr::decode(r);
}

}  // namespace

std::vector<std::uint8_t> encodeSymbolicProfile(
    const SymbolicReuseProfile& p) {
  ByteWriter w;
  w.u32(kSymbolicProfileCodec);
  w.i64(p.minN);
  putOptExpr(w, p.footprint);
  GCR_ASSERT(p.sites.size() == p.perSite.size());
  w.u64(p.sites.size());
  for (std::size_t i = 0; i < p.sites.size(); ++i) {
    const SymbolicSiteInfo& s = p.sites[i];
    w.i64(s.stmtId);
    w.i64(s.array);
    w.b(s.isWrite);
    w.i64(s.operand);
    w.str(s.loc);
    w.str(s.text);
    const SymbolicSiteProfile& e = p.perSite[i];
    w.u8(static_cast<std::uint8_t>(e.cls));
    w.i64(e.carryLevel);
    w.u8(static_cast<std::uint8_t>(e.bailout));
    putOptExpr(w, e.distance);
    putOptExpr(w, e.count);
    w.b(e.degree.has_value());
    if (e.degree.has_value()) w.i64(*e.degree);
    w.b(e.evadable);
    w.b(e.imprecise);
  }
  return w.take();
}

std::optional<SymbolicReuseProfile> decodeSymbolicProfile(
    std::span<const std::uint8_t> bytes) {
  return decodeOrNull<SymbolicReuseProfile>(
      bytes, kSymbolicProfileCodec, [](ByteReader& r) {
        SymbolicReuseProfile p;
        p.minN = r.i64();
        GCR_CHECK(p.minN >= 1, "symbolic profile minN out of range");
        p.footprint = getOptExpr(r);
        const std::size_t n = r.seqLen(32);
        p.sites.reserve(n);
        p.perSite.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          SymbolicSiteInfo s;
          s.stmtId = static_cast<int>(r.i64());
          s.array = static_cast<ArrayId>(r.i64());
          s.isWrite = r.b();
          s.operand = static_cast<int>(r.i64());
          s.loc = r.str();
          s.text = r.str();
          p.sites.push_back(std::move(s));
          SymbolicSiteProfile e;
          const std::uint8_t cls = r.u8();
          GCR_CHECK(cls <= 3, "symbolic profile class out of range");
          e.cls = static_cast<ReuseClass>(cls);
          e.carryLevel = static_cast<int>(r.i64());
          const std::uint8_t bail = r.u8();
          GCR_CHECK(bail <= 2, "symbolic profile bailout out of range");
          e.bailout = static_cast<SymbolicBailout>(bail);
          e.distance = getOptExpr(r);
          e.count = getOptExpr(r);
          if (r.b()) e.degree = static_cast<int>(r.i64());
          e.evadable = r.b();
          e.imprecise = r.b();
          p.perSite.push_back(std::move(e));
        }
        return p;
      });
}

// --- MulticoreProfile -------------------------------------------------------

std::vector<std::uint8_t> encodeMulticoreProfile(const MulticoreProfile& p) {
  ByteWriter w;
  w.u32(kMulticoreProfileCodec);
  w.u32(static_cast<std::uint32_t>(p.cores));
  w.u8(static_cast<std::uint8_t>(p.schedule));
  w.u64(p.llcCapacityLines);
  w.u64(p.perCore.size());
  for (const CoreCacheStats& c : p.perCore) {
    w.u64(c.refs);
    w.u64(c.l1Misses);
    w.u64(c.l2Misses);
    w.u64(c.l2Writebacks);
    w.u64(c.lineAccesses);
    w.u64(c.coldLines);
  }
  putHistogram(w, p.shared);
  w.u64(p.sharedAccesses);
  w.u64(p.sharedColdLines);
  w.f64(p.llcMissFraction);
  w.f64(p.cycles);
  return w.take();
}

std::optional<MulticoreProfile> decodeMulticoreProfile(
    std::span<const std::uint8_t> bytes) {
  return decodeOrNull<MulticoreProfile>(
      bytes, kMulticoreProfileCodec, [](ByteReader& r) {
        MulticoreProfile p;
        p.cores = static_cast<int>(r.u32());
        GCR_CHECK(p.cores >= 1, "multicore profile core count out of range");
        const std::uint8_t sched = r.u8();
        GCR_CHECK(sched <= 1, "multicore profile schedule out of range");
        p.schedule = static_cast<ParallelSchedule>(sched);
        p.llcCapacityLines = r.u64();
        const std::size_t n = r.seqLen(48);
        GCR_CHECK(n == static_cast<std::size_t>(p.cores),
                  "multicore profile per-core count mismatch");
        p.perCore.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          CoreCacheStats c;
          c.refs = r.u64();
          c.l1Misses = r.u64();
          c.l2Misses = r.u64();
          c.l2Writebacks = r.u64();
          c.lineAccesses = r.u64();
          c.coldLines = r.u64();
          p.perCore.push_back(c);
        }
        p.shared = getHistogram(r);
        p.sharedAccesses = r.u64();
        p.sharedColdLines = r.u64();
        p.llcMissFraction = r.f64();
        p.cycles = r.f64();
        return p;
      });
}

}  // namespace gcr::store
