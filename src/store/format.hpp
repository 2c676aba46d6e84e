// On-disk format of the persistent artifact store (see DESIGN.md §7).
//
// A store is a directory:
//
//   <dir>/objects/<32-hex-signature>-<kind>.gcra   one file per artifact
//   <dir>/tmp/                                     publication staging area
//
// Every object file is a fixed 56-byte header followed by the payload:
//
//   offset  size  field
//        0     8  magic "GCRSTOR1"
//        8     4  formatVersion (LE)         — kFormatVersion
//       12     4  kind (LE)                  — ArtifactKind
//       16     8  signature.lo (LE)
//       24     8  signature.hi (LE)
//       32     8  payloadBytes (LE)
//       40     8  payloadChecksum (LE)       — fnv1a64 over the payload
//       48     8  headerChecksum (LE)        — fnv1a64 over bytes [0, 48)
//       56     …  payload (store/codec.hpp encoding)
//
// Validation order on load: file size >= header, magic, header checksum,
// version, kind, signature match, payload size == file size - header,
// payload checksum.  ANY mismatch rejects the entry (counted as
// corruptRejected) and behaves as a cache miss — a corrupt artifact is never
// surfaced.  Version upgrades are rejection-based: a reader never attempts
// to parse an older or newer formatVersion, it recomputes and republishes
// (the store is a cache, so dropping entries is always correct).
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "engine/signature.hpp"

namespace gcr::store {

inline constexpr std::array<std::uint8_t, 8> kMagic = {'G', 'C', 'R', 'S',
                                                       'T', 'O', 'R', '1'};
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::size_t kHeaderBytes = 56;

/// What an entry holds; part of both the file name and the header, so a
/// measurement can never be deserialized as a profile even under an
/// adversarial rename.
enum class ArtifactKind : std::uint32_t {
  PipelineResult = 1,
  Measurement = 2,
  ReuseProfile = 3,
  // 4 is retired (it held natively compiled plan modules) and never reused,
  // so a store written by an older build rejects such entries by kind.
  /// A symbolic reuse profile (analysis/symbolic_reuse.hpp): closed-form
  /// per-site distance/count formulas in N.  Tiny and size-independent —
  /// one artifact answers every problem size of the program it was
  /// analyzed from.
  SymbolicProfile = 5,
  /// A multicore locality profile (locality/multicore.hpp): exact per-core
  /// private-level counts plus the composed shared-LLC prediction for one
  /// (version, size, topology, timeSteps, cost) request.
  MulticoreProfile = 6,
};

const char* artifactKindName(ArtifactKind k);

/// FNV-1a 64-bit over a byte range — the per-entry corruption check.  Not
/// cryptographic; it guards against torn writes, truncation and bit rot,
/// not against a malicious cache directory.
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes);

/// Decoded header of an object file.
struct EntryHeader {
  std::uint32_t formatVersion = 0;
  ArtifactKind kind = ArtifactKind::PipelineResult;
  Signature signature;
  std::uint64_t payloadBytes = 0;
  std::uint64_t payloadChecksum = 0;
};

/// Serialize `h` into the 56-byte on-disk header (checksums computed here).
std::array<std::uint8_t, kHeaderBytes> encodeHeader(const EntryHeader& h);

/// Parse and validate magic + header checksum; false on any mismatch.
/// Version/kind/signature checks are the caller's (they depend on what the
/// caller expects to find).
bool decodeHeader(std::span<const std::uint8_t> bytes, EntryHeader* out);

}  // namespace gcr::store
