#include "support/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "support/assert.hpp"

namespace gcr {

int Log2Histogram::binOf(std::uint64_t distance) {
  if (distance == 0) return 0;
  return 1 + (63 - std::countl_zero(distance));
}

std::uint64_t Log2Histogram::binLow(int bin) {
  GCR_CHECK(bin >= 0 && bin <= kMaxBin, "bin out of range");
  if (bin == 0) return 0;
  return std::uint64_t{1} << (bin - 1);
}

void Log2Histogram::add(std::uint64_t distance, std::uint64_t count) {
  if (distance == kCold) {
    cold_ += count;
    return;
  }
  const int bin = binOf(distance);
  if (static_cast<std::size_t>(bin) >= bins_.size()) bins_.resize(bin + 1, 0);
  bins_[bin] += count;
}

std::uint64_t Log2Histogram::binCount(int bin) const {
  if (bin < 0 || static_cast<std::size_t>(bin) >= bins_.size()) return 0;
  return bins_[bin];
}

std::uint64_t Log2Histogram::totalFinite() const {
  std::uint64_t total = 0;
  for (auto b : bins_) total += b;
  return total;
}

int Log2Histogram::highestNonEmptyBin() const {
  for (int b = static_cast<int>(bins_.size()) - 1; b >= 0; --b)
    if (bins_[b] != 0) return b;
  return -1;
}

std::uint64_t Log2Histogram::countAtLeast(std::uint64_t threshold) const {
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < bins_.size(); ++b) {
    const std::uint64_t low = binLow(static_cast<int>(b));
    const std::uint64_t high =
        b == 0 ? 0 : (std::uint64_t{1} << b) - 1;  // inclusive top of bin
    if (low >= threshold) {
      total += bins_[b];
    } else if (high >= threshold && b > 0) {
      // Partial bin: we only know the bin, not exact distances; count the
      // whole bin conservatively when its midpoint clears the threshold.
      if ((low + high) / 2 >= threshold) total += bins_[b];
    }
  }
  return total;
}

void Log2Histogram::merge(const Log2Histogram& other) {
  if (other.bins_.size() > bins_.size()) bins_.resize(other.bins_.size(), 0);
  for (std::size_t b = 0; b < other.bins_.size(); ++b) bins_[b] += other.bins_[b];
  cold_ += other.cold_;
}

std::string Log2Histogram::toCsv() const {
  std::ostringstream os;
  os << "bin,low_edge,count\n";
  for (std::size_t b = 0; b < bins_.size(); ++b)
    os << b << "," << binLow(static_cast<int>(b)) << "," << bins_[b] << "\n";
  os << "cold,inf," << cold_ << "\n";
  return os.str();
}

ProfileComparison compareHistograms(const Log2Histogram& predicted,
                                    const Log2Histogram& measured) {
  ProfileComparison cmp;
  const double totP = static_cast<double>(predicted.totalFinite());
  const double totM = static_cast<double>(measured.totalFinite());
  if (totP == 0.0 || totM == 0.0) {
    cmp.avgCdfError = (totP == 0.0 && totM == 0.0) ? 0.0 : 1.0;
    cmp.maxCdfError = cmp.avgCdfError;
    return cmp;
  }
  const int top =
      std::max(predicted.highestNonEmptyBin(), measured.highestNonEmptyBin());
  double cdfP = 0.0, cdfM = 0.0, sum = 0.0;
  for (int b = 0; b <= top; ++b) {
    cdfP += static_cast<double>(predicted.binCount(b)) / totP;
    cdfM += static_cast<double>(measured.binCount(b)) / totM;
    const double err = std::abs(cdfP - cdfM);
    sum += err;
    cmp.maxCdfError = std::max(cmp.maxCdfError, err);
  }
  cmp.bins = top + 1;
  cmp.avgCdfError = sum / static_cast<double>(top + 1);
  return cmp;
}

}  // namespace gcr
