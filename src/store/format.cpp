#include "store/format.hpp"

#include <cstring>

#include "support/serialize.hpp"

namespace gcr::store {

const char* artifactKindName(ArtifactKind k) {
  switch (k) {
    case ArtifactKind::PipelineResult: return "pipeline";
    case ArtifactKind::Measurement: return "measurement";
    case ArtifactKind::ReuseProfile: return "profile";
    case ArtifactKind::SymbolicProfile: return "symbolic_profile";
    case ArtifactKind::MulticoreProfile: return "multicore_profile";
  }
  return "unknown";
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  // Fold the length in so a truncation to a prefix whose bytes happen to
  // hash equal is still caught.
  h ^= bytes.size();
  h *= 0x100000001b3ull;
  return h;
}

std::array<std::uint8_t, kHeaderBytes> encodeHeader(const EntryHeader& h) {
  ByteWriter w;
  w.bytes(kMagic);
  w.u32(h.formatVersion);
  w.u32(static_cast<std::uint32_t>(h.kind));
  w.u64(h.signature.lo);
  w.u64(h.signature.hi);
  w.u64(h.payloadBytes);
  w.u64(h.payloadChecksum);
  w.u64(fnv1a64(w.data()));  // header checksum over bytes [0, 48)
  std::array<std::uint8_t, kHeaderBytes> out;
  GCR_ASSERT(w.size() == kHeaderBytes);
  std::memcpy(out.data(), w.data().data(), kHeaderBytes);
  return out;
}

bool decodeHeader(std::span<const std::uint8_t> bytes, EntryHeader* out) {
  if (bytes.size() < kHeaderBytes) return false;
  if (std::memcmp(bytes.data(), kMagic.data(), kMagic.size()) != 0)
    return false;
  ByteReader r(bytes.subspan(kMagic.size(), kHeaderBytes - kMagic.size()));
  EntryHeader h;
  h.formatVersion = r.u32();
  h.kind = static_cast<ArtifactKind>(r.u32());
  h.signature.lo = r.u64();
  h.signature.hi = r.u64();
  h.payloadBytes = r.u64();
  h.payloadChecksum = r.u64();
  const std::uint64_t headerChecksum = r.u64();
  if (headerChecksum != fnv1a64(bytes.first(kHeaderBytes - 8))) return false;
  *out = h;
  return true;
}

}  // namespace gcr::store
