// Trace sinks: consumers of the interpreter's dynamic instruction stream.
//
// One dynamic instruction = one executed statement instance, with the byte
// addresses it reads (in rhs order) and the one it writes.  Locality and
// cache analyses flatten this to an access stream (reads first, then the
// write, matching actual execution); the reuse-driven-execution study keeps
// instruction granularity.
//
// Two delivery granularities:
//   * onInstr  — one virtual call per statement instance (the granularity
//     of the tree-walking referee and the interleaved multicore replay);
//   * onBlock  — one virtual call per structure-of-arrays chunk of ~4K
//     instances (the plan walker's native granularity, for executePlan and
//     the schedule replays alike), amortizing dispatch and enabling bulk
//     appends.
// Every sink accepts both: InstrSink::onBlock has a default implementation
// that replays the block instance by instance into onInstr, and the
// high-traffic sinks below override it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace gcr {

/// A structure-of-arrays view over a chunk of consecutive statement
/// instances.  `readOffsets` carries size()+1 fencepost entries into
/// `readPool`, so instance i's reads are readPool[readOffsets[i] ..
/// readOffsets[i+1]).  `readPool` covers exactly the block's reads.
struct InstrBlock {
  std::span<const int> stmtIds;
  std::span<const std::uint64_t> readOffsets;
  std::span<const std::int64_t> readPool;
  std::span<const std::int64_t> writes;

  std::size_t size() const { return stmtIds.size(); }
  std::span<const std::int64_t> reads(std::size_t i) const {
    return readPool.subspan(
        static_cast<std::size_t>(readOffsets[i]),
        static_cast<std::size_t>(readOffsets[i + 1] - readOffsets[i]));
  }
};

class InstrSink {
 public:
  virtual ~InstrSink() = default;
  virtual void onInstr(int stmtId, std::span<const std::int64_t> readAddrs,
                       std::int64_t writeAddr) = 0;
  /// Blocked delivery.  The default replays the chunk through onInstr in
  /// instance order, so an onInstr-only sink consumes blocks unchanged.
  virtual void onBlock(const InstrBlock& b) {
    for (std::size_t i = 0; i < b.size(); ++i)
      onInstr(b.stmtIds[i], b.reads(i), b.writes[i]);
  }
};

/// Fan-out to several sinks.
class TeeSink final : public InstrSink {
 public:
  explicit TeeSink(std::vector<InstrSink*> sinks) : sinks_(std::move(sinks)) {}
  void onInstr(int stmtId, std::span<const std::int64_t> reads,
               std::int64_t write) override {
    for (InstrSink* s : sinks_) s->onInstr(stmtId, reads, write);
  }
  void onBlock(const InstrBlock& b) override {
    for (InstrSink* s : sinks_) s->onBlock(b);
  }

 private:
  std::vector<InstrSink*> sinks_;
};

/// Counts instructions and memory references.
class CountingSink final : public InstrSink {
 public:
  void onInstr(int, std::span<const std::int64_t> reads,
               std::int64_t) override {
    ++instrs_;
    refs_ += reads.size() + 1;
  }
  void onBlock(const InstrBlock& b) override {
    instrs_ += b.size();
    refs_ += b.readPool.size() + b.size();
  }
  std::uint64_t instrs() const { return instrs_; }
  std::uint64_t refs() const { return refs_; }

 private:
  std::uint64_t instrs_ = 0;
  std::uint64_t refs_ = 0;
};

/// Compact in-memory instruction trace (structure-of-arrays): input of the
/// reuse-driven-execution simulator.
class InstrTrace final : public InstrSink {
 public:
  /// Read-pool offsets are 64-bit: a pooled-read count past 2^32 (a few
  /// billion instances) must extend the trace, not silently wrap.
  using ReadOffset = std::uint64_t;

  void onInstr(int stmtId, std::span<const std::int64_t> reads,
               std::int64_t write) override {
    stmtIds_.push_back(stmtId);
    readOffsets_.push_back(static_cast<ReadOffset>(readPool_.size()));
    readPool_.insert(readPool_.end(), reads.begin(), reads.end());
    writes_.push_back(write);
  }

  /// Bulk append of a whole chunk: one offset rebase + four vector inserts
  /// instead of size() virtual calls.
  void onBlock(const InstrBlock& b) override {
    const ReadOffset base = static_cast<ReadOffset>(readPool_.size());
    stmtIds_.insert(stmtIds_.end(), b.stmtIds.begin(), b.stmtIds.end());
    readOffsets_.reserve(readOffsets_.size() + b.size());
    for (std::size_t i = 0; i < b.size(); ++i)
      readOffsets_.push_back(base + b.readOffsets[i]);
    readPool_.insert(readPool_.end(), b.readPool.begin(), b.readPool.end());
    writes_.insert(writes_.end(), b.writes.begin(), b.writes.end());
  }

  /// Pre-size for an expected instance and pooled-read count (upper bounds
  /// are fine), eliminating mid-run reallocation on large traces.
  void reserve(std::uint64_t expectedInstrs, std::uint64_t expectedReads) {
    stmtIds_.reserve(static_cast<std::size_t>(expectedInstrs));
    readOffsets_.reserve(static_cast<std::size_t>(expectedInstrs));
    writes_.reserve(static_cast<std::size_t>(expectedInstrs));
    readPool_.reserve(static_cast<std::size_t>(expectedReads));
  }

  std::size_t size() const { return stmtIds_.size(); }
  int stmtId(std::size_t i) const { return stmtIds_[i]; }
  std::int64_t writeAddr(std::size_t i) const { return writes_[i]; }
  std::span<const std::int64_t> reads(std::size_t i) const {
    const ReadOffset begin = readOffsets_[i];
    const ReadOffset end = i + 1 < readOffsets_.size()
                               ? readOffsets_[i + 1]
                               : static_cast<ReadOffset>(readPool_.size());
    return {readPool_.data() + begin, readPool_.data() + end};
  }

 private:
  std::vector<int> stmtIds_;
  std::vector<ReadOffset> readOffsets_;
  std::vector<std::int64_t> readPool_;
  std::vector<std::int64_t> writes_;
};

}  // namespace gcr
