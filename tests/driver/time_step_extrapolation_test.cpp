// Time-step extrapolation against a full replay.  measureExecution,
// profileExecution and analyzeMulticore run a compiled plan one time step
// at a time until the simulated state repeats, then extrapolate the
// remaining steps (driver/measure.hpp).  The referee replays every step
// through replaySlice, compares no state, and prices the counts the way the
// live simulators do.  The grid: every evaluation app and Sweep3D at the
// schedule corpus sizes x five strategies x T in {0, 1, 2, 3, 8, 13} x
// Origin2000, Octane, Origin2000/16 and /256 (and 256-byte pages, which put
// the stamped TLB under pressure) x next-line prefetch off and on, the
// exact and 1/64-sampled profiles, and three multicore topologies; the
// encoded artifacts must match byte for byte.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "driver/measure.hpp"
#include "interp/schedule.hpp"
#include "interp/schedule_corpus.hpp"
#include "locality/multicore.hpp"
#include "locality/sampled_reuse.hpp"
#include "store/codec.hpp"

namespace gcr {
namespace {

constexpr std::uint64_t kTimeSteps[] = {0, 1, 2, 3, 8, 13};
constexpr std::uint64_t kRefereeSteps = 13;
constexpr std::uint64_t kHugeTimeSteps = std::uint64_t{1} << 62;

// --- the referee: every step replayed ---------------------------------------
//
// A plan's time steps all emit the same stream, and a plan compiled for T
// steps emits the first T steps of one compiled for more.  So one full
// replay of the kRefereeSteps-step plan, read at each step boundary, is the
// full replay of every shorter plan.

/// Forwards a replay to `inner` one instance at a time and calls
/// `atBoundary` each time another whole time step has reached it.
class StepBoundaries final : public InstrSink {
 public:
  StepBoundaries(InstrSink& inner, std::uint64_t instrsPerStep,
                 std::function<void()> atBoundary)
      : inner_(inner),
        instrsPerStep_(instrsPerStep),
        atBoundary_(std::move(atBoundary)) {}
  void onInstr(int stmtId, std::span<const std::int64_t> reads,
               std::int64_t write) override {
    inner_.onInstr(stmtId, reads, write);
    if (++instrs_ % instrsPerStep_ == 0) atBoundary_();
  }

 private:
  InstrSink& inner_;
  std::uint64_t instrsPerStep_;
  std::function<void()> atBoundary_;
  std::uint64_t instrs_ = 0;
};

/// Replays the slice of `plan` in full into `sink`; `atBoundary()` runs
/// before the first step and after every step.
void replayWithBoundaries(const AccessPlan& plan, const ScheduleSlice& slice,
                          InstrSink& sink,
                          const std::function<void()>& atBoundary) {
  ASSERT_GT(plan.timeSteps, 0u);
  CountingSink counter;
  replaySlice(plan, slice, &counter);
  const std::uint64_t instrsPerStep = counter.instrs() / plan.timeSteps;
  atBoundary();
  if (instrsPerStep == 0) {  // a core without work in this slice
    for (std::uint64_t t = 0; t < plan.timeSteps; ++t) atBoundary();
    return;
  }
  StepBoundaries steps(sink, instrsPerStep, atBoundary);
  replaySlice(plan, slice, &steps);
}

/// Element [t] is the full replay's measurement of t time steps.
std::vector<Measurement> fullReplayMeasurements(const AccessPlan& plan,
                                                const MachineConfig& machine,
                                                const CostModel& cost) {
  MemoryHierarchy h(machine);
  std::vector<Measurement> out;
  replayWithBoundaries(plan, ScheduleSlice{}, h, [&] {
    Measurement m;
    m.counts = h.counts();
    m.cycles = cost.cycles(m.counts);
    m.memoryTrafficBytes = h.memoryTrafficBytes();
    m.effectiveBandwidth = h.effectiveBandwidthRatio();
    out.push_back(m);
  });
  return out;
}

/// Element [t] is the full replay's profile of t time steps.
std::vector<ReuseProfile> fullReplayProfiles(const AccessPlan& plan,
                                             double rate) {
  ReuseDistanceSink sink(8, rate);
  sink.reserve(static_cast<std::uint64_t>(plan.layout->totalBytes()));
  std::vector<ReuseProfile> out;
  replayWithBoundaries(plan, ScheduleSlice{}, sink,
                       [&] { out.push_back(sink.profile()); });
  return out;
}

/// One core's private L1 and L2 as analyzeMulticore drives them: an L1
/// miss reads through the L2.
struct PrivateLevels final : InstrSink {
  SetAssocCache l1;
  SetAssocCache l2;

  PrivateLevels(const CacheConfig& c1, const CacheConfig& c2)
      : l1(c1), l2(c2) {}
  void access(std::int64_t addr, bool isWrite) {
    if (!l1.access(addr, isWrite)) l2.access(addr, isWrite);
  }
  void onInstr(int, std::span<const std::int64_t> reads,
               std::int64_t write) override {
    for (std::int64_t r : reads) access(r, false);
    access(write, true);
  }
};

/// Element [t] is the full replay's multicore profile of t time steps.
std::vector<MulticoreProfile> fullReplayMulticore(
    const AccessPlan& plan, const CacheTopology& topo,
    const MulticoreCostModel& cost) {
  const auto cores = static_cast<std::size_t>(topo.cores);
  // [t][core]
  std::vector<std::vector<CoreCacheStats>> stats(plan.timeSteps + 1);
  std::vector<std::vector<Log2Histogram>> lines(plan.timeSteps + 1);
  for (std::size_t core = 0; core < cores; ++core) {
    PrivateLevels priv(topo.l1, topo.l2);
    ReuseDistanceSink lineSink(topo.llc.lineSize);
    lineSink.reserve(static_cast<std::uint64_t>(plan.layout->totalBytes()));
    TeeSink tee({&priv, &lineSink});
    std::size_t t = 0;
    replayWithBoundaries(
        plan, {topo.cores, static_cast<int>(core), topo.schedule}, tee, [&] {
          const ReuseProfile p = lineSink.profile();
          stats[t].push_back({priv.l1.stats().accesses,
                              priv.l1.stats().misses, priv.l2.stats().misses,
                              priv.l2.stats().writebacks, p.accesses,
                              p.distinctData});
          lines[t].push_back(p.histogram);
          ++t;
        });
  }
  std::vector<MulticoreProfile> out;
  for (std::size_t t = 0; t < stats.size(); ++t)
    out.push_back(composeMulticore(stats[t], lines[t], topo, cost));
  return out;
}

// --- the grid -----------------------------------------------------------------

using testing::CorpusCase;

/// fn(referee, cases) for every evaluation app and Sweep3D x the corpus
/// strategies, at the schedule corpus sizes (n = 15, and 9 for the 3-D
/// nests): `referee` is compiled for kRefereeSteps, cases[i] for
/// kTimeSteps[i].
template <class Fn>
void forEachVersion(Fn&& fn) {
  std::vector<std::string> names;
  for (const apps::AppInfo& app : apps::evaluationApps())
    names.push_back(app.name);
  names.push_back("Sweep3D");
  for (const std::string& app : names) {
    const Program p = apps::buildApp(app);
    const std::int64_t n = app == "SP" || app == "Sweep3D" ? 9 : 15;
    for (Strategy s : testing::kCorpusStrategies) {
      const ProgramVersion v = makeVersion(p, s);
      const std::string name = app + "/" + versionNameFor(s);
      const CorpusCase referee(name, v.clone(), n, kRefereeSteps);
      ASSERT_TRUE(referee.compiled.ok()) << name << ": "
                                         << referee.compiled.reason;
      std::vector<std::unique_ptr<CorpusCase>> cases;
      for (std::uint64_t t : kTimeSteps) {
        cases.push_back(std::make_unique<CorpusCase>(
            name + "/T" + std::to_string(t), v.clone(), n, t));
        ASSERT_TRUE(cases.back()->compiled.ok()) << cases.back()->name;
      }
      fn(referee, cases);
    }
  }
}

std::vector<MachineConfig> machines() {
  const MachineConfig origin = MachineConfig::origin2000();
  // At the corpus sizes every array fits in one 16 KB page; 256-byte pages
  // give the 64-entry (stamped) TLB more pages than entries.
  MachineConfig smallPages = origin;
  smallPages.pageSize = 256;
  smallPages.name = "Origin2000(256B pages)";
  std::vector<MachineConfig> out;
  for (MachineConfig m : {origin, MachineConfig::octane(),
                          origin.scaledDown(16), origin.scaledDown(256)})
    for (bool prefetch : {false, true}) {
      m.l2NextLinePrefetch = prefetch;
      out.push_back(m);
    }
  out.push_back(smallPages);
  return out;
}

std::vector<CacheTopology> topologies() {
  return {CacheTopology::symmetric(1).scaledDown(64),
          CacheTopology::symmetric(4).scaledDown(16),
          CacheTopology::symmetric(4, ParallelSchedule::Cyclic).scaledDown(64)};
}

TEST(TimeStepExtrapolation, MeasurementsMatchFullReplay) {
  const std::vector<MachineConfig> grid = machines();
  const CostModel cost;
  int compared = 0;
  int settleAfterStep2 = 0;
  forEachVersion([&](const CorpusCase& referee,
                     const std::vector<std::unique_ptr<CorpusCase>>& cases) {
    for (const MachineConfig& m : grid) {
      const std::vector<Measurement> full =
          fullReplayMeasurements(referee.plan(), m, cost);
      for (const auto& c : cases) {
        EXPECT_EQ(store::encodeMeasurement(
                      measureExecution(c->plan(), m, cost)),
                  store::encodeMeasurement(full[c->opts.timeSteps]))
            << c->name << " on " << m.name << " prefetch "
            << m.l2NextLinePrefetch;
        ++compared;
      }
      // Here extrapolating from step 2 without comparing states is wrong.
      if (extrapolateSteps(full[2].counts, full[1].counts, 1) !=
          full[3].counts)
        ++settleAfterStep2;
    }
  });
  EXPECT_EQ(compared, 5 * 5 * 6 * 9);
  // The grid must hold states that take more than one step to repeat.
  EXPECT_GT(settleAfterStep2, 0);
}

TEST(TimeStepExtrapolation, ProfilesMatchFullReplay) {
  int compared = 0;
  forEachVersion([&](const CorpusCase& referee,
                     const std::vector<std::unique_ptr<CorpusCase>>& cases) {
    for (double rate : {1.0, 1.0 / 64}) {
      const std::vector<ReuseProfile> full =
          fullReplayProfiles(referee.plan(), rate);
      for (const auto& c : cases) {
        EXPECT_EQ(
            store::encodeReuseProfile(profileExecution(c->plan(), rate)),
            store::encodeReuseProfile(full[c->opts.timeSteps]))
            << c->name << " at rate " << rate;
        ++compared;
      }
    }
  });
  EXPECT_EQ(compared, 5 * 5 * 6 * 2);
}

TEST(TimeStepExtrapolation, MulticoreProfilesMatchFullReplay) {
  const std::vector<CacheTopology> grid = topologies();
  const MulticoreCostModel cost;
  int compared = 0;
  forEachVersion([&](const CorpusCase& referee,
                     const std::vector<std::unique_ptr<CorpusCase>>& cases) {
    for (const CacheTopology& topo : grid) {
      const std::vector<MulticoreProfile> full =
          fullReplayMulticore(referee.plan(), topo, cost);
      for (const auto& c : cases) {
        EXPECT_EQ(store::encodeMulticoreProfile(
                      analyzeMulticore(c->plan(), topo, cost)),
                  store::encodeMulticoreProfile(full[c->opts.timeSteps]))
            << c->name << " on " << topo.name;
        ++compared;
      }
    }
  });
  EXPECT_EQ(compared, 5 * 5 * 6 * 3);
}

// --- the stepping entry point ----------------------------------------------

/// ADI NoOpt at the corpus size, compiled for `timeSteps`.
struct AdiPlan {
  CorpusCase c;
  explicit AdiPlan(std::uint64_t timeSteps)
      : c("ADI/NoOpt", makeVersion(apps::buildApp("ADI"), Strategy::NoOpt), 15,
          timeSteps) {}
};

TEST(TimeStepExtrapolation, UnrepeatedStateRunsEveryStep) {
  const AdiPlan adi(8);
  ASSERT_TRUE(adi.c.compiled.ok());
  CountingSink sink;
  int asked = 0;
  const std::uint64_t skipped =
      replayUntilRepeat(adi.c.plan(), ScheduleSlice{}, &sink, [&] {
        ++asked;
        return false;
      });
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(asked, 7);  // after every step but the last
  EXPECT_EQ(sink.instrs(), 8 * adi.c.plan().instrsPerStep);
}

TEST(TimeStepExtrapolation, StopsAtTheFirstRepeat) {
  const AdiPlan adi(8);
  ASSERT_TRUE(adi.c.compiled.ok());
  CountingSink sink;
  std::uint64_t instrsWhenAsked = 0;
  int asked = 0;
  const std::uint64_t skipped =
      replayUntilRepeat(adi.c.plan(), ScheduleSlice{}, &sink, [&] {
        instrsWhenAsked = sink.instrs();  // each step reaches the sink whole
        return ++asked == 3;
      });
  EXPECT_EQ(skipped, 5u);
  EXPECT_EQ(instrsWhenAsked, 3 * adi.c.plan().instrsPerStep);
  EXPECT_EQ(sink.instrs(), 3 * adi.c.plan().instrsPerStep);
}

TEST(TimeStepExtrapolation, RunsOfAtMostTwoStepsAreNeverAsked) {
  for (std::uint64_t t : {0, 1, 2}) {
    const AdiPlan adi(t);
    ASSERT_TRUE(adi.c.compiled.ok());
    CountingSink sink;
    const std::uint64_t skipped =
        replayUntilRepeat(adi.c.plan(), ScheduleSlice{}, &sink, [] {
          ADD_FAILURE() << "asked with T <= 2";
          return true;
        });
    EXPECT_EQ(skipped, 0u);
    EXPECT_EQ(sink.instrs(), t * adi.c.plan().instrsPerStep);
  }
}

TEST(TimeStepExtrapolation, HugeTimeStepCountsThrowInsteadOfWrapping) {
  // Extrapolation makes 2^62 steps cheap to simulate; their counts do not
  // fit in 64 bits, and must fail loudly rather than wrap.
  const AdiPlan adi(kHugeTimeSteps);
  ASSERT_TRUE(adi.c.compiled.ok());
  EXPECT_THROW(measureExecution(adi.c.plan(), MachineConfig::origin2000(),
                                CostModel{}),
               Error);
  EXPECT_THROW(profileExecution(adi.c.plan(), 1.0), Error);
  EXPECT_THROW(profileExecution(adi.c.plan(), 1.0 / 64), Error);
  EXPECT_THROW(analyzeMulticore(adi.c.plan(),
                                CacheTopology::symmetric(4).scaledDown(16)),
               Error);
}

}  // namespace
}  // namespace gcr
