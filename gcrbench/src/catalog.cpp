#include "catalog.hpp"

#include <algorithm>
#include <thread>

#include "support/prng.hpp"

namespace gcrbench {

namespace {

constexpr gcr::Strategy kStrategies[] = {
    gcr::Strategy::NoOpt, gcr::Strategy::SgiLike, gcr::Strategy::Fused,
    gcr::Strategy::FusedRegrouped};

struct AppSize {
  const char* app;
  std::int64_t n;
};

// Sweep sizes (the fig10/table6 shape at T=8).
constexpr AppSize kSweepApps[] = {
    {"ADI", 96}, {"Swim", 96}, {"Tomcatv", 96}, {"SP", 20}};
constexpr std::uint64_t kSweepTimeSteps = 8;

// serve_mixed warm catalog sizes (T=2) and cold size ranges (T=1): small
// enough that one cold request is milliseconds to a few tens of them.
constexpr AppSize kServeApps[] = {
    {"ADI", 64}, {"Swim", 64}, {"Tomcatv", 64}, {"SP", 10}};
constexpr std::uint64_t kServeWarmTimeSteps = 2;
struct ColdRange {
  const char* app;
  std::int64_t first, step;
};
constexpr ColdRange kColdRanges[] = {
    {"ADI", 48, 8}, {"Swim", 32, 8}, {"Tomcatv", 40, 8}, {"SP", 6, 1}};
constexpr int kColdSizesPerApp = 8;

int appCostRank(const std::string& app) {
  if (app == "SP") return 0;
  if (app == "Swim") return 1;
  if (app == "Tomcatv") return 2;
  return 3;
}

template <typename T>
void shuffle(std::vector<T>& v, gcr::SplitMix64& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.nextBelow(i)]);
}

}  // namespace

const char* kindName(Kind k) {
  switch (k) {
    case Kind::Measure: return "measure";
    case Kind::Profile: return "profile";
    case Kind::Sampled: return "sampled";
    case Kind::Symbolic: return "symbolic";
    case Kind::Optimize: return "optimize";
    case Kind::Multicore: return "multicore";
  }
  return "?";
}

const char* strategyName(gcr::Strategy s) {
  switch (s) {
    case gcr::Strategy::NoOpt: return "NoOpt";
    case gcr::Strategy::SgiLike: return "SgiLike";
    case gcr::Strategy::Fused: return "Fused";
    case gcr::Strategy::FusedRegrouped: return "FusedRegrouped";
    case gcr::Strategy::RegroupedOnly: return "RegroupedOnly";
  }
  return "?";
}

std::string Key::str() const {
  std::string s = std::string(kindName(kind)) + "/" + app;
  if (kind != Kind::Symbolic) s += std::string("/") + strategyName(strategy);
  if (kind != Kind::Optimize)
    s += "/n" + std::to_string(n) + "/T" + std::to_string(timeSteps);
  return s;
}

gcr::MachineConfig machine() { return gcr::MachineConfig::origin2000(); }

gcr::CacheTopology topology() {
  return gcr::CacheTopology::symmetric(4).scaledDown(16);
}

int workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

std::vector<Key> simSweepKeys() {
  std::vector<Key> keys;
  for (const AppSize& a : kSweepApps)
    for (gcr::Strategy s : kStrategies)
      keys.push_back({Kind::Measure, a.app, s, a.n, kSweepTimeSteps});
  return keys;
}

std::vector<Key> profileSweepKeys() {
  std::vector<Key> keys;
  for (Kind k : {Kind::Profile, Kind::Sampled})
    for (const AppSize& a : kSweepApps)
      for (gcr::Strategy s : kStrategies)
        keys.push_back({k, a.app, s, a.n, kSweepTimeSteps});
  for (const AppSize& a : kSweepApps)
    keys.push_back({Kind::Symbolic, a.app, gcr::Strategy::NoOpt, a.n,
                    kSweepTimeSteps});
  return keys;
}

std::vector<Key> sweepOrder(std::vector<Key> keys, std::uint64_t seed) {
  gcr::SplitMix64 rng(seed ^ 0x5eedull);
  shuffle(keys, rng);
  std::stable_sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return appCostRank(a.app) < appCostRank(b.app);
  });
  return keys;
}

std::vector<Key> serveCatalog() {
  std::vector<Key> keys;
  for (Kind k : {Kind::Measure, Kind::Profile, Kind::Optimize})
    for (const AppSize& a : kServeApps)
      for (gcr::Strategy s : kStrategies)
        keys.push_back({k, a.app, s, a.n, kServeWarmTimeSteps});
  return keys;
}

std::vector<Key> serveColdSpace() {
  std::vector<Key> keys;
  for (Kind k : {Kind::Measure, Kind::Profile, Kind::Multicore})
    for (const ColdRange& r : kColdRanges)
      for (gcr::Strategy s : kStrategies)
        for (int i = 0; i < kColdSizesPerApp; ++i)
          keys.push_back({k, r.app, s, r.first + r.step * i, 1});
  return keys;
}

std::vector<std::vector<ServeItem>> serveRound(std::uint64_t seed, int round,
                                               int clients) {
  const std::vector<Key> warm = serveCatalog();
  std::vector<Key> cold = serveColdSpace();
  gcr::SplitMix64 shuffleRng(gcr::mixCombine(seed, 0xc01dull + round));
  shuffle(cold, shuffleRng);

  std::vector<std::vector<ServeItem>> out(static_cast<std::size_t>(clients));
  const std::size_t share = cold.size() / static_cast<std::size_t>(clients);
  for (int c = 0; c < clients; ++c) {
    gcr::SplitMix64 rng(gcr::mixCombine(gcr::mixCombine(seed, round), c));
    // Exactly kServeColdPerClient cold requests at seed-drawn positions, so
    // every client carries the same share of computation.
    std::vector<bool> isCold(kServeRequestsPerClient, false);
    std::vector<int> positions(kServeRequestsPerClient);
    for (int i = 0; i < kServeRequestsPerClient; ++i) positions[i] = i;
    shuffle(positions, rng);
    for (int i = 0; i < kServeColdPerClient; ++i) isCold[positions[i]] = true;

    std::size_t nextCold = static_cast<std::size_t>(c) * share;
    std::vector<ServeItem>& seq = out[static_cast<std::size_t>(c)];
    seq.reserve(kServeRequestsPerClient);
    for (int i = 0; i < kServeRequestsPerClient; ++i) {
      if (isCold[i])
        seq.push_back({cold[nextCold++], true});
      else
        seq.push_back({warm[rng.nextBelow(warm.size())], false});
    }
  }
  return out;
}

std::vector<Key> allRefereeKeys() {
  std::vector<Key> keys = simSweepKeys();
  for (auto* list : {&profileSweepKeys, &serveCatalog, &serveColdSpace}) {
    std::vector<Key> more = (*list)();
    keys.insert(keys.end(), more.begin(), more.end());
  }
  return keys;
}

}  // namespace gcrbench
