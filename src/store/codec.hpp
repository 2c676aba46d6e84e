// Binary codecs for the artifacts the Engine persists: Measurements,
// ReuseProfiles and full PipelineResults (including the transformed Program
// tree and the Regrouping partitions, so a deserialized result can
// materialize layouts and assemble versions exactly like a fresh run).
//
// Contracts, enforced by tests/store/store_codec_test.cpp:
//   * round trip — decode(encode(x)) reproduces every field of x, doubles
//     bit-for-bit (NaN included);
//   * canonical — encode(decode(encode(x))) == encode(x) byte-for-byte,
//     which is what makes the store's content checksums meaningful;
//   * defensive — decode() of any byte soup returns nullopt, never throws,
//     never reads out of bounds (ByteReader bounds-checks every access);
//     trailing bytes after a well-formed value are rejected too.
//
// Compiled access plans are deliberately NOT serialized: a plan borrows
// pointers into its Program and layout, so persisting it would be a
// use-after-free by construction.  Plans re-compile per process (cheap next
// to simulation).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "analysis/symbolic_reuse.hpp"
#include "driver/measure.hpp"
#include "driver/pipeline.hpp"
#include "locality/multicore.hpp"
#include "locality/reuse_distance.hpp"

namespace gcr::store {

std::vector<std::uint8_t> encodeMeasurement(const Measurement& m);
std::optional<Measurement> decodeMeasurement(
    std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encodeReuseProfile(const ReuseProfile& p);
std::optional<ReuseProfile> decodeReuseProfile(
    std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encodePipelineResult(const PipelineResult& r);
std::optional<PipelineResult> decodePipelineResult(
    std::span<const std::uint8_t> bytes);

/// Symbolic reuse profiles (ArtifactKind::SymbolicProfile): per-site
/// formulas with their SymExpr trees serialized via SymExpr::encode, which
/// shares this codec's contracts (canonical bytes, defensive decode).
std::vector<std::uint8_t> encodeSymbolicProfile(const SymbolicReuseProfile& p);
std::optional<SymbolicReuseProfile> decodeSymbolicProfile(
    std::span<const std::uint8_t> bytes);

/// Multicore locality profiles (ArtifactKind::MulticoreProfile): per-core
/// private-level counts plus the composed shared-LLC histogram.
std::vector<std::uint8_t> encodeMulticoreProfile(const MulticoreProfile& p);
std::optional<MulticoreProfile> decodeMulticoreProfile(
    std::span<const std::uint8_t> bytes);

}  // namespace gcr::store
