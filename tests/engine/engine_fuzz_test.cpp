// Differential fuzz: on random valid programs, the Engine's cached
// pipeline/measure path must agree exactly with the direct (engine-less)
// makeVersion() + measure() primitives, and a warm replay must be
// byte-identical to the cold run.
#include <gtest/gtest.h>

#include <cstring>

#include "../common/random_program.hpp"
#include "engine/engine.hpp"
#include "ir/print.hpp"
#include "store/codec.hpp"

namespace gcr {
namespace {

bool sameSimulatedFields(const Measurement& a, const Measurement& b) {
  return std::memcmp(&a.counts, &b.counts, sizeof a.counts) == 0 &&
         a.cycles == b.cycles &&
         a.memoryTrafficBytes == b.memoryTrafficBytes &&
         a.effectiveBandwidth == b.effectiveBandwidth;
}

TEST(EngineFuzz, EngineMatchesDirectPathOnRandomPrograms) {
  const MachineConfig machine = MachineConfig::origin2000();
  testing::RandomProgramOptions opts;
  opts.allowTwoDim = true;
  opts.allowReversed = true;

  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Program p = testing::randomProgram(seed, opts);
    Engine engine;

    for (Strategy s : {Strategy::NoOpt, Strategy::Fused,
                       Strategy::FusedRegrouped}) {
      ProgramVersion direct = makeVersion(p, s);
      ProgramVersion cached = engine.version(p, s);
      ASSERT_EQ(toString(cached.program), toString(direct.program))
          << "seed " << seed << " strategy " << static_cast<int>(s);

      const Measurement md = measure(direct, 16, machine);
      const Measurement cold = engine.measure(cached, 16, machine);
      EXPECT_TRUE(sameSimulatedFields(md, cold))
          << "seed " << seed << " strategy " << static_cast<int>(s);

      const Measurement warm = engine.measure(cached, 16, machine);
      EXPECT_EQ(store::encodeMeasurement(cold), store::encodeMeasurement(warm))
          << "seed " << seed;
    }
  }
}

TEST(EngineFuzz, StructurallyIdenticalProgramsShareMeasurements) {
  // Same seed, so same structure; the semantic keys must collide (names are
  // not part of the measurement key) and the second program's measurement
  // must be served from the first program's cache entry.
  const MachineConfig machine = MachineConfig::origin2000();
  Engine engine;
  Program p1 = testing::randomProgram(7);
  Program p2 = testing::randomProgram(7);

  ProgramVersion v1 = engine.version(p1, Strategy::NoOpt);
  ProgramVersion v2 = engine.version(p2, Strategy::NoOpt);
  const Measurement m1 = engine.measure(v1, 16, machine);
  const Measurement m2 = engine.measure(v2, 16, machine);
  EXPECT_TRUE(sameSimulatedFields(m1, m2));
  EXPECT_EQ(engine.stats().measurement.hits, 1u);
}

}  // namespace
}  // namespace gcr
