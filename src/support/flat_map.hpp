// FlatMap64: open-addressing hash map from int64 keys to a trivially-copyable
// value, specialized for the hot loops of reuse-distance analysis and cache
// simulation (one lookup per memory reference; std::unordered_map's chasing
// of node pointers dominates profiles there).
//
// Linear probing, power-of-two capacity, max load factor 0.7.  Keys are
// arbitrary int64 values; one sentinel slot state is kept out-of-band via a
// parallel occupancy byte so no key value is reserved.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/assert.hpp"
#include "support/prng.hpp"

namespace gcr {

template <typename V>
class FlatMap64 {
 public:
  FlatMap64() { rehash(kInitialCap); }

  /// Find or insert `key`; when inserting, value-initialize.  Returns a
  /// reference valid until the next insertion.
  V& operator[](std::int64_t key) {
    if ((size_ + 1) * 10 > capacity_ * 7) rehash(capacity_ * 2);
    std::size_t i = probe(key);
    if (!occupied_[i]) {
      occupied_[i] = 1;
      keys_[i] = key;
      values_[i] = V{};
      ++size_;
    }
    return values_[i];
  }

  /// Returns nullptr when absent.
  V* find(std::int64_t key) {
    const std::size_t i = probe(key);
    return occupied_[i] ? &values_[i] : nullptr;
  }
  const V* find(std::int64_t key) const {
    const std::size_t i = probe(key);
    return occupied_[i] ? &values_[i] : nullptr;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pre-size so that `expected` keys fit without rehashing (load factor
  /// stays under 0.7).  Never shrinks.  Throws gcr::Error for a size whose
  /// capacity the doubling below could not represent.
  void reserve(std::size_t expected) {
    GCR_CHECK(expected <= kMaxReserve,
              "FlatMap64 cannot hold " + std::to_string(expected) + " keys");
    std::size_t cap = capacity_;
    while ((expected + 1) * 10 > cap * 7) cap *= 2;
    if (cap > capacity_) rehash(cap);
  }

  void clear() {
    std::fill(occupied_.begin(), occupied_.end(), 0);
    size_ = 0;
  }

  /// Visit all (key, value) pairs in unspecified order.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (std::size_t i = 0; i < capacity_; ++i)
      if (occupied_[i]) fn(keys_[i], values_[i]);
  }

 private:
  static constexpr std::size_t kInitialCap = 64;
  // (kMaxReserve + 1) * 10 and the capacity reaching it stay far below
  // 2^63, so neither the load test nor the doubling can wrap.
  static constexpr std::size_t kMaxReserve = std::size_t{1} << 56;

  std::size_t probe(std::int64_t key) const {
    std::size_t i = static_cast<std::size_t>(
                        mix64(static_cast<std::uint64_t>(key))) &
                    (capacity_ - 1);
    while (occupied_[i] && keys_[i] != key) i = (i + 1) & (capacity_ - 1);
    return i;
  }

  void rehash(std::size_t newCap) {
    std::vector<std::int64_t> oldKeys = std::move(keys_);
    std::vector<V> oldValues = std::move(values_);
    std::vector<std::uint8_t> oldOcc = std::move(occupied_);
    capacity_ = newCap;
    keys_.assign(capacity_, 0);
    values_.assign(capacity_, V{});
    occupied_.assign(capacity_, 0);
    size_ = 0;
    for (std::size_t i = 0; i < oldOcc.size(); ++i)
      if (oldOcc[i]) (*this)[oldKeys[i]] = oldValues[i];
  }

  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
  std::vector<std::int64_t> keys_;
  std::vector<V> values_;
  std::vector<std::uint8_t> occupied_;
};

}  // namespace gcr
