// Content addressing for the Engine's caches.
//
// Every cacheable artifact is keyed by a canonical 128-bit signature of the
// *semantic* content that determines it:
//
//   * a Program's signature covers array shapes (rank, extents, element
//     size) and the whole loop tree — bounds, direction, guards, statement
//     ids/seeds and reference subscripts — but NOT textual names, which
//     never influence execution;
//   * a PipelineOptions signature covers every knob of every pass;
//   * a DataLayout signature covers the concrete per-array affine maps;
//   * machine/cost signatures cover the cache geometry and the latency
//     model.
//
// Signatures compose: the key of a compiled access plan is
// combine(programSig, layoutSig, n, timeSteps); a measurement additionally
// folds in the machine and cost-model signatures.  Hashing is two
// independent FNV-1a-style 64-bit lanes with a splitmix finalizer, fully
// deterministic across runs and platforms, and linear in the program size —
// negligible next to the simulations it memoizes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "cachesim/hierarchy.hpp"
#include "cachesim/topology.hpp"
#include "driver/pipeline.hpp"
#include "interp/layout.hpp"
#include "ir/ir.hpp"

namespace gcr {

/// A 128-bit content hash; the key type of every Engine cache.
struct Signature {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const Signature& a, const Signature& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
  friend bool operator!=(const Signature& a, const Signature& b) {
    return !(a == b);
  }

  /// 32 lowercase hex digits, for logs and JSON.
  std::string str() const;
};

struct SignatureHash {
  std::size_t operator()(const Signature& s) const {
    return static_cast<std::size_t>(s.lo ^ (s.hi * 0x9e3779b97f4a7c15ull));
  }
};

/// Incremental hasher building a Signature from a word stream.  Each add is
/// tagged by the caller (via small type-tag words) where ambiguity is
/// possible, so e.g. an empty guard list never collides with a guard of
/// zeros.
class SigHasher {
 public:
  SigHasher& u64(std::uint64_t v);
  SigHasher& i64(std::int64_t v) {
    return u64(static_cast<std::uint64_t>(v));
  }
  SigHasher& b(bool v) { return u64(v ? 1 : 2); }
  SigHasher& f64(double v);
  SigHasher& str(std::string_view s);
  SigHasher& sig(const Signature& s) { return u64(s.lo).u64(s.hi); }

  Signature take() const;

 private:
  std::uint64_t a_ = 0xcbf29ce484222325ull;
  std::uint64_t b_ = 0x9ae16a3b2f90404full;
};

/// Semantic signature of a program (names excluded; ids/seeds included).
Signature programSignature(const Program& p);

/// Signature of every pipeline knob, fusion and regrouping options included.
Signature pipelineOptionsSignature(const PipelineOptions& opts);

/// Signature of a concrete data layout (per-array bases/strides + total).
Signature layoutSignature(const DataLayout& layout);

/// Signature of the simulated machine (cache/TLB geometry, prefetch flag).
Signature machineSignature(const MachineConfig& machine);

/// Signature of the latency cost model.
Signature costSignature(const CostModel& cost);

/// Signature of a multicore cache topology (core count, private/shared
/// geometry, parallel schedule; the name is presentation only).
Signature topologySignature(const CacheTopology& topo);

/// Signature of the multicore latency model.
Signature multicoreCostSignature(const MulticoreCostModel& cost);

}  // namespace gcr
