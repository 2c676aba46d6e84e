#include "locality/sampled_reuse.hpp"

#include <algorithm>

namespace gcr {

SampledReuseTracker::SampledReuseTracker(double rate)
    : rate_(std::clamp(rate, 0x1.0p-32, 1.0)),
      inverseRate_(1.0 / rate_),
      exact_mode_(rate_ >= 1.0),
      countScale_(static_cast<std::uint64_t>(std::llround(inverseRate_))) {
  GCR_CHECK(rate > 0.0, "sampleRate must be in (0, 1]");
  // threshold = rate * 2^64, computed via ldexp to keep full precision.
  // exact_mode_ bypasses the filter entirely, so the (unrepresentable)
  // rate-1 threshold never gets used.
  threshold_ = exact_mode_ ? ~std::uint64_t{0}
                           : static_cast<std::uint64_t>(std::ldexp(rate_, 64));
}

ReuseDistanceSink::ReuseDistanceSink(std::int64_t granularity, double rate)
    : granularity_(granularity), tracker_(rate) {
  GCR_CHECK(granularity_ > 0, "granularity must be positive");
}

void ReuseDistanceSink::onInstr(int, std::span<const std::int64_t> reads,
                                std::int64_t write) {
  for (std::int64_t r : reads) touch(r);
  touch(write);
}

void ReuseDistanceSink::onBlock(const InstrBlock& b) {
  // One dispatch per chunk; same flattening order as onInstr.
  for (std::size_t i = 0; i < b.size(); ++i) {
    for (std::int64_t r : b.reads(i)) touch(r);
    touch(b.writes[i]);
  }
}

void ReuseDistanceSink::reserve(std::uint64_t dataBytes) {
  tracker_.reserve(0, dataBytes / static_cast<std::uint64_t>(granularity_));
}

ReuseProfile ReuseDistanceSink::profile() const {
  ReuseProfile p;
  p.histogram = histogram_;
  p.accesses = tracker_.accesses();
  p.distinctData = static_cast<std::uint64_t>(std::llround(
      static_cast<double>(tracker_.distinctSampled()) / tracker_.rate()));
  return p;
}

ReuseProfile profileAddresses(const std::vector<std::int64_t>& addrs,
                              std::int64_t granularity, double rate) {
  ReuseDistanceSink sink(granularity, rate);
  for (std::int64_t a : addrs) sink.onInstr(0, {}, a);
  return sink.profile();
}

}  // namespace gcr
