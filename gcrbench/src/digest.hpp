// Digests of the deterministic fields of every reply kind.
//
// Only simulated or analysed values enter a digest.  The wall-clock
// observability fields (Measurement::wallSeconds / accessesPerSecond,
// MulticoreProfile::wallSeconds) are left out, and no store or wire codec
// bytes are hashed, so a digest survives codec version bumps and the removal
// of those fields.
#pragma once

#include <cstdint>
#include <string>

#include "analysis/symbolic_reuse.hpp"
#include "driver/measure.hpp"
#include "driver/pipeline.hpp"
#include "locality/multicore.hpp"

namespace gcrbench {

using Digest = std::uint64_t;

Digest digestOf(const gcr::Measurement& m);
Digest digestOf(const gcr::ReuseProfile& p);
Digest digestOf(const gcr::MulticoreProfile& p);
Digest digestOf(const gcr::PipelineResult& r);
/// A symbolic request's answer is its evaluation at the request size.
Digest digestOf(const gcr::SymbolicReuseProfile& p,
                const gcr::SymbolicEvaluation& e);

std::string hex(Digest d);

/// Order-sensitive combination (the sequence digest of a run).
Digest combine(Digest acc, Digest d);

}  // namespace gcrbench
