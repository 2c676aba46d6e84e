// Content-addressing tests: signatures must be deterministic, semantic
// (names excluded), and sensitive to every input that changes behavior.
#include <gtest/gtest.h>

#include "engine/signature.hpp"
#include "interp/layout.hpp"
#include "ir/builder.hpp"

namespace gcr {
namespace {

/// Two-loop producer/consumer program; `arrayPrefix` lets tests vary names
/// without varying structure.
Program toyProgram(const std::string& programName,
                   const std::string& arrayPrefix,
                   std::int64_t readOffset = 0) {
  ProgramBuilder b(programName);
  const AffineN n = AffineN::N();
  ArrayId a = b.array(arrayPrefix + "A", {n});
  ArrayId c = b.array(arrayPrefix + "B", {n});
  b.loop("i", 0, n - AffineN(4),
         [&](IxVar i) { b.assign(b.ref(a, {i}), {b.ref(a, {i})}); });
  b.loop("i", 0, n - AffineN(4), [&](IxVar i) {
    b.assign(b.ref(c, {i}), {b.ref(a, {i + readOffset})});
  });
  return b.take();
}

TEST(Signature, DeterministicAcrossBuilds) {
  const Signature s1 = programSignature(toyProgram("p", "x"));
  const Signature s2 = programSignature(toyProgram("p", "x"));
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.str(), s2.str());
  EXPECT_EQ(s1.str().size(), 32u);
}

TEST(Signature, ProgramNamesAreNotSemantic) {
  // Renaming the program or its arrays must not change the signature: names
  // never influence execution, and structurally identical programs should
  // share every cached artifact.
  EXPECT_EQ(programSignature(toyProgram("p", "x")),
            programSignature(toyProgram("q", "y")));
}

TEST(Signature, SubscriptChangesSignature) {
  EXPECT_NE(programSignature(toyProgram("p", "x", 0)),
            programSignature(toyProgram("p", "x", 1)));
}

TEST(Signature, PipelineOptionsKnobsAreSignificant) {
  PipelineOptions base;
  PipelineOptions noFuse = base;
  noFuse.fuse = false;
  PipelineOptions fewerLevels = base;
  fewerLevels.fusionLevels = 2;
  const Signature sBase = pipelineOptionsSignature(base);
  EXPECT_EQ(sBase, pipelineOptionsSignature(PipelineOptions{}));
  EXPECT_NE(sBase, pipelineOptionsSignature(noFuse));
  EXPECT_NE(sBase, pipelineOptionsSignature(fewerLevels));
}

TEST(Signature, LayoutSignatureTracksConcreteMaps) {
  Program p = toyProgram("p", "x");
  const Signature at16 = layoutSignature(contiguousLayout(p, 16));
  EXPECT_EQ(at16, layoutSignature(contiguousLayout(p, 16)));
  EXPECT_NE(at16, layoutSignature(contiguousLayout(p, 32)));
}

TEST(Signature, MachineAndCostSignatures) {
  EXPECT_NE(machineSignature(MachineConfig::origin2000()),
            machineSignature(MachineConfig::octane()));
  MachineConfig prefetch = MachineConfig::origin2000();
  prefetch.l2NextLinePrefetch = true;
  EXPECT_NE(machineSignature(MachineConfig::origin2000()),
            machineSignature(prefetch));
  EXPECT_EQ(costSignature(CostModel{}), costSignature(CostModel{}));
}

TEST(Signature, HasherResistsConcatenationAliasing) {
  // "ab" vs "a","b": length tagging must keep field boundaries distinct.
  EXPECT_NE(SigHasher().str("ab").take(),
            SigHasher().str("a").str("b").take());
  EXPECT_NE(SigHasher().b(true).take(), SigHasher().b(false).take());
  EXPECT_NE(SigHasher().u64(0).take(), SigHasher().take());
}

}  // namespace
}  // namespace gcr
