#include "locality/evadable.hpp"

namespace gcr {

namespace {
std::int64_t pairKey(int producer, int consumer) {
  return (static_cast<std::int64_t>(producer) << 24) ^ consumer;
}
}  // namespace

PairwiseReuseCollector::PairwiseReuseCollector(std::int64_t granularity)
    : granularity_(granularity) {
  GCR_CHECK(granularity_ > 0, "granularity must be positive");
}

void PairwiseReuseCollector::reserve(std::uint64_t,
                                     std::uint64_t expectedDistinctBytes) {
  const std::uint64_t range =
      expectedDistinctBytes / static_cast<std::uint64_t>(granularity_);
  if (range == 0) return;
  tracker_.reserve(0, range);
  lastStmt_.setRange(range);
}

void PairwiseReuseCollector::accessFrom(int stmtId, std::int64_t addr) {
  addr /= granularity_;
  const std::uint64_t distance = tracker_.access(addr);
  int& last = lastStmt_[addr];
  histogram_.add(distance);
  if (distance != Log2Histogram::kCold) {
    ReusePairStats& st = pairs_[pairKey(last, stmtId)];
    ++st.count;
    st.sumDistance += static_cast<double>(distance);
    ++totalReuses_;
  }
  last = stmtId;
}

void PairwiseReuseCollector::onInstr(int stmtId,
                                     std::span<const std::int64_t> reads,
                                     std::int64_t write) {
  for (std::int64_t r : reads) accessFrom(stmtId, r);
  accessFrom(stmtId, write);
}

void PairwiseReuseCollector::onBlock(const InstrBlock& b) {
  for (std::size_t i = 0; i < b.size(); ++i) {
    for (std::int64_t r : b.reads(i)) accessFrom(b.stmtIds[i], r);
    accessFrom(b.stmtIds[i], b.writes[i]);
  }
}

EvadableReport classifyEvadable(const PairwiseReuseCollector& small,
                                const PairwiseReuseCollector& large,
                                double growthFactor, double absoluteFloor) {
  EvadableReport report;
  report.totalReuses = large.totalReuses();
  large.pairs().forEach([&](std::int64_t key, const ReusePairStats& lg) {
    const ReusePairStats* sm = small.pairs().find(key);
    bool evadable;
    if (sm != nullptr && sm->count > 0) {
      evadable = lg.mean() > growthFactor * sm->mean() &&
                 lg.mean() >= absoluteFloor;
    } else {
      evadable = lg.mean() >= absoluteFloor;
    }
    if (evadable) report.evadableReuses += lg.count;
  });
  return report;
}

}  // namespace gcr
