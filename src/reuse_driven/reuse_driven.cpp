#include "reuse_driven/reuse_driven.hpp"

#include <algorithm>
#include <deque>

#include "locality/reuse_distance.hpp"
#include "support/assert.hpp"
#include "support/flat_map.hpp"

namespace gcr {

namespace {

/// Location ids + per-location, program-ordered access lists, shared by the
/// ideal schedule and the next-use oracle.
class AccessIndex {
 public:
  explicit AccessIndex(const InstrTrace& trace) {
    const std::size_t n = trace.size();
    instrLocBegin_.reserve(n + 1);
    for (std::size_t i = 0; i < n; ++i) {
      instrLocBegin_.push_back(static_cast<std::uint32_t>(instrLocs_.size()));
      for (std::int64_t a : trace.reads(i)) addAccess(i, a);
      addAccess(i, trace.writeAddr(i));
    }
    instrLocBegin_.push_back(static_cast<std::uint32_t>(instrLocs_.size()));
  }

  std::uint32_t numLocations() const {
    return static_cast<std::uint32_t>(lists_.size());
  }

  /// Location ids accessed by instruction i (reads then write; duplicates
  /// possible when a statement reads a datum twice).
  std::span<const std::uint32_t> locationsOf(std::size_t i) const {
    return {instrLocs_.data() + instrLocBegin_[i],
            instrLocs_.data() + instrLocBegin_[i + 1]};
  }

  /// Program-ordered instruction list touching location `loc`.
  const std::vector<std::uint32_t>& accessList(std::uint32_t loc) const {
    return lists_[loc];
  }

 private:
  void addAccess(std::size_t instr, std::int64_t addr) {
    std::uint32_t& idPlusOne = locId_[addr];
    if (idPlusOne == 0) {
      lists_.emplace_back();
      idPlusOne = static_cast<std::uint32_t>(lists_.size());
    }
    const std::uint32_t loc = idPlusOne - 1;
    if (lists_[loc].empty() ||
        lists_[loc].back() != static_cast<std::uint32_t>(instr))
      lists_[loc].push_back(static_cast<std::uint32_t>(instr));
    instrLocs_.push_back(loc);
  }

  FlatMap64<std::uint32_t> locId_;
  std::vector<std::vector<std::uint32_t>> lists_;
  std::vector<std::uint32_t> instrLocs_;
  std::vector<std::uint32_t> instrLocBegin_;
};

/// Flow-dependence producers: for each instruction, the instructions whose
/// writes it reads (deduplicated).
std::vector<std::vector<std::uint32_t>> flowProducers(const InstrTrace& trace) {
  FlatMap64<std::uint32_t> lastWriterPlusOne;
  std::vector<std::vector<std::uint32_t>> producers(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    auto& ps = producers[i];
    for (std::int64_t a : trace.reads(i)) {
      const std::uint32_t wp = lastWriterPlusOne[a];
      if (wp != 0) {
        const std::uint32_t w = wp - 1;
        if (std::find(ps.begin(), ps.end(), w) == ps.end()) ps.push_back(w);
      }
    }
    lastWriterPlusOne[trace.writeAddr(i)] =
        static_cast<std::uint32_t>(i) + 1;
  }
  return producers;
}

}  // namespace

IdealSchedule idealParallelOrder(const InstrTrace& trace) {
  const auto producers = flowProducers(trace);
  IdealSchedule sched;
  sched.level.assign(trace.size(), 0);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    std::uint32_t lvl = 0;
    for (std::uint32_t p : producers[i])
      lvl = std::max(lvl, sched.level[p] + 1);
    sched.level[i] = lvl;
  }
  sched.order.resize(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i)
    sched.order[i] = static_cast<std::uint32_t>(i);
  std::stable_sort(sched.order.begin(), sched.order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return sched.level[a] < sched.level[b];
                   });
  return sched;
}

std::vector<std::uint32_t> reuseDrivenOrder(const InstrTrace& trace,
                                            const ReuseDrivenOptions& opts) {
  const std::size_t n = trace.size();
  const AccessIndex index(trace);
  const auto producers = flowProducers(trace);
  const IdealSchedule ideal = idealParallelOrder(trace);

  // Position of each instruction in the ideal order (for the far-reuse
  // heuristic).
  std::vector<std::uint32_t> idealPos(n);
  for (std::uint32_t pos = 0; pos < n; ++pos) idealPos[ideal.order[pos]] = pos;

  std::vector<std::uint8_t> executed(n, 0);
  // Per (instruction, accessed location): cursor into the location's access
  // list, advanced lazily past executed instructions.
  std::vector<std::uint32_t> listCursor;

  std::vector<std::uint32_t> out;
  out.reserve(n);

  auto execute = [&](std::uint32_t i) {
    executed[i] = 1;
    out.push_back(i);
  };

  // ForceExecute (Figure 2): execute pending producers, then j.  Explicit
  // stack to survive deep recurrences.
  std::vector<std::uint32_t> stack;
  auto forceExecute = [&](std::uint32_t j) {
    stack.push_back(j);
    while (!stack.empty()) {
      const std::uint32_t cur = stack.back();
      if (executed[cur]) {
        stack.pop_back();
        continue;
      }
      bool ready = true;
      for (std::uint32_t p : producers[cur]) {
        if (!executed[p]) {
          stack.push_back(p);
          ready = false;
        }
      }
      if (ready) {
        stack.pop_back();
        execute(cur);
      }
    }
  };

  // Next unexecuted user of any datum of i, in program order after i.
  std::vector<std::vector<std::uint32_t>::size_type> locCursor(
      index.numLocations(), 0);
  auto nextUse = [&](std::uint32_t i) -> std::int64_t {
    std::int64_t best = -1;
    for (std::uint32_t loc : index.locationsOf(i)) {
      const auto& list = index.accessList(loc);
      auto& cur = locCursor[loc];
      // Committing the cursor past *executed* entries is safe (execution is
      // monotone); skipping entries <= i is query-local, so probe without
      // committing.
      while (cur < list.size() && executed[list[cur]]) ++cur;
      std::vector<std::uint32_t>::size_type probe = cur;
      while (probe < list.size() && (executed[list[probe]] || list[probe] <= i))
        ++probe;
      if (probe < list.size()) {
        const std::int64_t cand = list[probe];
        if (best < 0 || cand < best) best = cand;
      }
    }
    return best;
  };

  std::deque<std::uint32_t> queue;
  for (std::uint32_t pos = 0; pos < n; ++pos) {
    const std::uint32_t i = ideal.order[pos];
    if (!executed[i]) {
      forceExecute(i);
      queue.push_back(i);
    }
    while (!queue.empty()) {
      const std::uint32_t cur = queue.front();
      queue.pop_front();
      const std::int64_t j = nextUse(cur);
      if (j < 0) continue;
      const std::uint32_t ju = static_cast<std::uint32_t>(j);
      if (opts.skipFarReuse &&
          idealPos[ju] > idealPos[cur] + opts.farThresholdIdealSlots)
        continue;
      forceExecute(ju);
      queue.push_back(ju);
    }
  }
  GCR_ASSERT(out.size() == n);
  return out;
}

Log2Histogram profileOrder(const InstrTrace& trace,
                           const std::vector<std::uint32_t>& order,
                           std::int64_t granularity) {
  // Index the elements [0, largest] densely when that table is no larger
  // than the trace: one entry per access at most.
  std::int64_t largest = -1;
  std::uint64_t accesses = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    for (std::int64_t a : trace.reads(i)) largest = std::max(largest, a);
    largest = std::max(largest, trace.writeAddr(i));
    accesses += trace.reads(i).size() + 1;
  }
  ReuseDistanceTracker tracker;
  if (largest >= 0 &&
      static_cast<std::uint64_t>(largest / granularity) < accesses)
    tracker.reserve(0, static_cast<std::uint64_t>(largest / granularity) + 1);
  Log2Histogram hist;
  for (std::uint32_t i : order) {
    for (std::int64_t a : trace.reads(i))
      hist.add(tracker.access(a / granularity));
    hist.add(tracker.access(trace.writeAddr(i) / granularity));
  }
  return hist;
}

std::vector<std::uint32_t> programOrder(const InstrTrace& trace) {
  std::vector<std::uint32_t> order(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i)
    order[i] = static_cast<std::uint32_t>(i);
  return order;
}

}  // namespace gcr
