// Fault-injection and corruption corpus (the adversarial half of the store
// PR).  Two attack surfaces:
//
//   * the write path, via a StoreIo shim — short writes (honest and lying),
//     elided fsyncs, and a simulated process death at every point K of the
//     publication sequence;
//   * published entries, mutated directly on disk — truncation, bit flips in
//     payload and header, stale magic, version/kind/signature skew,
//     zero-length files, orphaned temp debris.
//
// The invariant under every fault is the same: the store degrades to a
// clean cache miss and the caller recomputes — never a wrong, torn or
// partial artifact.  The Engine-level test at the bottom closes the loop by
// checking the recompute is byte-identical to a run with no store at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "../common/random_program.hpp"
#include "../common/temp_dir.hpp"
#include "engine/engine.hpp"
#include "store/store.hpp"

namespace gcr::store {
namespace {

namespace fs = std::filesystem;

std::vector<std::uint8_t> payloadFor(std::uint64_t tag, std::size_t size) {
  std::vector<std::uint8_t> bytes(size);
  for (std::size_t i = 0; i < size; ++i)
    bytes[i] = static_cast<std::uint8_t>((tag * 193 + i * 11) & 0xFF);
  return bytes;
}

bool sameBytes(std::span<const std::uint8_t> a,
               std::span<const std::uint8_t> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

/// Fault-injecting write-path shim.  Operations are numbered in call order;
/// from operation `failFromOp` on, every call fails — the moment the
/// "process dies".  Independently, writes can be truncated, either honestly
/// (short count returned, the store retries) or lying (full count returned,
/// bytes silently dropped — a kernel/disk that acked what it never stored).
class FaultIo final : public StoreIo {
 public:
  int failFromOp = INT_MAX;        ///< first operation index that fails
  std::size_t maxWriteBytes = SIZE_MAX;
  bool lieOnShortWrite = false;    ///< claim n, write min(n, maxWriteBytes)
  bool elideFsync = false;         ///< report success without syncing
  int opsSeen = 0;

  int openForWrite(const std::string& path) override {
    if (nextOpFails()) return -1;
    return StoreIo::openForWrite(path);
  }

  long long write(int fd, const void* data, std::size_t n) override {
    if (nextOpFails()) return -1;
    const std::size_t chunk = std::min(n, maxWriteBytes);
    const long long w = StoreIo::write(fd, data, chunk);
    if (w < 0) return w;
    return lieOnShortWrite ? static_cast<long long>(n) : w;
  }

  bool fsync(int fd) override {
    if (nextOpFails()) return false;
    return elideFsync ? true : StoreIo::fsync(fd);
  }

  bool close(int fd) override {
    // A dying process still drops its descriptors: always really close (the
    // fault only hides the success), or the test binary leaks fds across
    // hundreds of crash points.
    const bool ok = StoreIo::close(fd);
    if (nextOpFails()) return false;
    return ok;
  }

  bool rename(const std::string& from, const std::string& to) override {
    if (nextOpFails()) return false;
    return StoreIo::rename(from, to);
  }

  bool fsyncDir(const std::string& dir) override {
    if (nextOpFails()) return false;
    return elideFsync ? true : StoreIo::fsyncDir(dir);
  }

  bool unlink(const std::string& path) override {
    // After the crash point the failure-cleanup unlink fails too — the
    // debris of a dead writer stays on disk, exactly like a real crash.
    if (nextOpFails()) return false;
    return StoreIo::unlink(path);
  }

 private:
  bool nextOpFails() { return opsSeen++ >= failFromOp; }
};

std::unique_ptr<ArtifactStore> openWith(const std::string& dir, StoreIo* io) {
  ArtifactStore::Options opts;
  opts.dir = dir;
  opts.io = io;
  return ArtifactStore::open(opts);
}

TEST(StoreFault, HonestShortWritesAreRetriedToCompletion) {
  testing::ScopedTempDir dir("gcr-fault");
  FaultIo io;
  io.maxWriteBytes = 7;  // dribble out the 56-byte header + payload
  auto store = openWith(dir.path(), &io);
  ASSERT_NE(store, nullptr);

  const auto payload = payloadFor(1, 500);
  ASSERT_TRUE(store->put(ArtifactKind::Measurement, Signature{1, 1}, payload));
  auto entry = store->get(ArtifactKind::Measurement, Signature{1, 1});
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(sameBytes(entry->payload(), payload));
  EXPECT_EQ(store->counters().putFailures, 0u);
}

TEST(StoreFault, LyingShortWritePublishesNothingUsable) {
  // The io acks bytes it never wrote, so the truncated entry gets renamed
  // into place "successfully".  The checksum validation must refuse to serve
  // it, and the recompute-and-republish path must heal the entry.
  testing::ScopedTempDir dir("gcr-fault");
  for (std::size_t lieAt : {std::size_t{5}, std::size_t{32},
                            std::size_t{56}, std::size_t{200}}) {
    FaultIo io;
    io.maxWriteBytes = lieAt;
    io.lieOnShortWrite = true;
    auto store = openWith(dir.path(), &io);
    ASSERT_NE(store, nullptr);

    const auto payload = payloadFor(2, 400);
    store->put(ArtifactKind::Measurement, Signature{2, 2}, payload);
    EXPECT_FALSE(store->get(ArtifactKind::Measurement, Signature{2, 2})
                     .has_value())
        << "lieAt " << lieAt;
    EXPECT_GE(store->counters().corruptRejected, 1u) << "lieAt " << lieAt;

    // Degrade to recompute: an honest republish fully recovers.
    FaultIo honest;
    auto store2 = openWith(dir.path(), &honest);
    ASSERT_TRUE(
        store2->put(ArtifactKind::Measurement, Signature{2, 2}, payload));
    auto entry = store2->get(ArtifactKind::Measurement, Signature{2, 2});
    ASSERT_TRUE(entry.has_value()) << "lieAt " << lieAt;
    EXPECT_TRUE(sameBytes(entry->payload(), payload));
  }
}

TEST(StoreFault, ElidedFsyncStillPublishesAtomically) {
  testing::ScopedTempDir dir("gcr-fault");
  FaultIo io;
  io.elideFsync = true;
  auto store = openWith(dir.path(), &io);
  ASSERT_NE(store, nullptr);

  const auto payload = payloadFor(3, 256);
  ASSERT_TRUE(store->put(ArtifactKind::ReuseProfile, Signature{3, 3}, payload));
  auto entry = store->get(ArtifactKind::ReuseProfile, Signature{3, 3});
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(sameBytes(entry->payload(), payload));
}

TEST(StoreFault, CrashAtEveryPointOfPublication) {
  // Kill the writer at operation K for every K across the whole publication
  // sequence (open, N writes, fsync, close, rename, dir fsync + the cleanup
  // unlinks).  Afterwards a fresh store on the directory must see either
  // nothing (clean miss) or the complete entry — and which one is dictated
  // by put()'s return value.  Never a torn read.
  const auto payload = payloadFor(4, 300);
  bool sawFailedPut = false;
  bool sawCompletedPut = false;

  for (int k = 0; k < 16; ++k) {
    testing::ScopedTempDir dir("gcr-crash");
    bool putOk = false;
    {
      FaultIo io;
      io.failFromOp = k;
      io.maxWriteBytes = 100;  // several write ops widen the crash window
      auto store = openWith(dir.path(), &io);
      ASSERT_NE(store, nullptr);
      putOk = store->put(ArtifactKind::Measurement, Signature{4, 4}, payload);
      if (!putOk) {
        EXPECT_EQ(store->counters().putFailures, 1u) << "crash at op " << k;
      }
    }  // writer "dies"; only the directory remains

    auto store = openWith(dir.path(), nullptr);
    ASSERT_NE(store, nullptr);
    auto entry = store->get(ArtifactKind::Measurement, Signature{4, 4});
    if (putOk) {
      sawCompletedPut = true;
      ASSERT_TRUE(entry.has_value()) << "crash at op " << k;
      EXPECT_TRUE(sameBytes(entry->payload(), payload))
          << "crash at op " << k;
    } else {
      sawFailedPut = true;
      EXPECT_FALSE(entry.has_value()) << "crash at op " << k;
      EXPECT_EQ(store->counters().corruptRejected, 0u)
          << "crash at op " << k << ": a crashed publication must leave no "
          << "visible entry at all, not a corrupt one";
    }

    // Crash debris (if any) lives only in tmp/, is sweepable, and a
    // subsequent publication of the same key succeeds regardless.
    store->removeStaleTempFiles(0);
    EXPECT_TRUE(fs::is_empty(fs::path(dir.path()) / "tmp"));
    ASSERT_TRUE(store->put(ArtifactKind::Measurement, Signature{4, 4}, payload));
    auto healed = store->get(ArtifactKind::Measurement, Signature{4, 4});
    ASSERT_TRUE(healed.has_value()) << "crash at op " << k;
    EXPECT_TRUE(sameBytes(healed->payload(), payload));
  }
  // The sweep must have exercised both outcomes, or K never reached the
  // publication tail and the test is weaker than it claims.
  EXPECT_TRUE(sawFailedPut);
  EXPECT_TRUE(sawCompletedPut);
}

// --- Corruption corpus over published entries ------------------------------

class StoreCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = openWith(dir_.path(), nullptr);
    ASSERT_NE(store_, nullptr);
    payload_ = payloadFor(9, 600);
    ASSERT_TRUE(store_->put(ArtifactKind::Measurement, sig_, payload_));
    const auto entries = store_->scan();
    ASSERT_EQ(entries.size(), 1u);
    file_ = fs::path(dir_.path()) / "objects" / entries[0].file;
  }

  std::vector<std::uint8_t> readFile() {
    std::ifstream in(file_, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in), {});
  }

  void writeFile(const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(file_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  /// The shared postcondition of every corruption: rejected, counted,
  /// unlinked (self-healing), and a republish fully recovers.
  void expectRejectedThenHealed() {
    const std::uint64_t rejectedBefore = store_->counters().corruptRejected;
    EXPECT_FALSE(store_->get(ArtifactKind::Measurement, sig_).has_value());
    EXPECT_EQ(store_->counters().corruptRejected, rejectedBefore + 1);
    EXPECT_FALSE(fs::exists(file_)) << "corrupt entry must be unlinked";

    ASSERT_TRUE(store_->put(ArtifactKind::Measurement, sig_, payload_));
    auto entry = store_->get(ArtifactKind::Measurement, sig_);
    ASSERT_TRUE(entry.has_value());
    EXPECT_TRUE(sameBytes(entry->payload(), payload_));
  }

  testing::ScopedTempDir dir_{"gcr-corrupt"};
  std::unique_ptr<ArtifactStore> store_;
  std::vector<std::uint8_t> payload_;
  const Signature sig_{9, 9};
  fs::path file_;
};

TEST_F(StoreCorruption, TruncatedToZeroBytes) {
  writeFile({});
  expectRejectedThenHealed();
}

TEST_F(StoreCorruption, TruncatedInsideHeader) {
  auto bytes = readFile();
  bytes.resize(kHeaderBytes - 1);
  writeFile(bytes);
  expectRejectedThenHealed();
}

TEST_F(StoreCorruption, TruncatedToHeaderOnly) {
  auto bytes = readFile();
  bytes.resize(kHeaderBytes);
  writeFile(bytes);
  expectRejectedThenHealed();
}

TEST_F(StoreCorruption, TruncatedInsidePayload) {
  auto bytes = readFile();
  bytes.resize(bytes.size() - 1);
  writeFile(bytes);
  expectRejectedThenHealed();
}

TEST_F(StoreCorruption, BitFlipInPayload) {
  auto bytes = readFile();
  bytes[kHeaderBytes + 300] ^= 0x40;
  writeFile(bytes);
  expectRejectedThenHealed();
}

TEST_F(StoreCorruption, BitFlipInEveryHeaderByte) {
  const auto good = readFile();
  for (std::size_t i = 0; i < kHeaderBytes; ++i) {
    auto bytes = good;
    bytes[i] ^= 0x01;
    writeFile(bytes);
    const auto before = store_->counters().corruptRejected;
    EXPECT_FALSE(store_->get(ArtifactKind::Measurement, sig_).has_value())
        << "header byte " << i;
    EXPECT_EQ(store_->counters().corruptRejected, before + 1)
        << "header byte " << i;
    writeFile(good);  // restore for the next byte (get() unlinked the file)
  }
}

TEST_F(StoreCorruption, StaleMagic) {
  auto bytes = readFile();
  std::memcpy(bytes.data(), "GCRSTOR0", 8);  // a plausible "previous" magic
  writeFile(bytes);
  expectRejectedThenHealed();
}

TEST_F(StoreCorruption, FutureFormatVersionIsNotParsed) {
  // Version upgrades are rejection-based: never attempt to parse another
  // version, recompute instead.  Rebuild the header through encodeHeader so
  // both checksums are *valid* — only the version is from the future.
  auto bytes = readFile();
  EntryHeader h;
  ASSERT_TRUE(decodeHeader(bytes, &h));
  h.formatVersion = kFormatVersion + 1;
  const auto header = encodeHeader(h);
  std::copy(header.begin(), header.end(), bytes.begin());
  writeFile(bytes);
  expectRejectedThenHealed();
}

TEST_F(StoreCorruption, RetiredKindIsNotParsed) {
  // Kind 4 (native plan modules) is retired and never reused, so an entry a
  // store written by an older build still holds is rejected by kind.  Same
  // construction as above: valid checksums, only the kind is stale.
  auto bytes = readFile();
  EntryHeader h;
  ASSERT_TRUE(decodeHeader(bytes, &h));
  h.kind = static_cast<ArtifactKind>(4);
  const auto header = encodeHeader(h);
  std::copy(header.begin(), header.end(), bytes.begin());
  writeFile(bytes);
  expectRejectedThenHealed();
}

TEST_F(StoreCorruption, KindSwapViaRename) {
  // Adversarial rename: serve a measurement file under a profile name.  The
  // header's kind field (and the name-independent validation) must catch it.
  const fs::path swapped =
      file_.parent_path() / (sig_.str() + "-profile.gcra");
  fs::rename(file_, swapped);
  EXPECT_FALSE(store_->get(ArtifactKind::ReuseProfile, sig_).has_value());
  EXPECT_GE(store_->counters().corruptRejected, 1u);
  EXPECT_FALSE(fs::exists(swapped));
}

TEST_F(StoreCorruption, SignatureSwapViaCopy) {
  // Copy a valid entry onto a different signature's file name: content is
  // checksum-clean but belongs to another key.  The embedded signature must
  // reject it.
  const Signature other{10, 10};
  const fs::path impostor =
      file_.parent_path() / (other.str() + "-measurement.gcra");
  fs::copy_file(file_, impostor);
  EXPECT_FALSE(store_->get(ArtifactKind::Measurement, other).has_value());
  EXPECT_GE(store_->counters().corruptRejected, 1u);
  EXPECT_FALSE(fs::exists(impostor));
  // The original entry is untouched by the impostor's rejection.
  EXPECT_TRUE(store_->get(ArtifactKind::Measurement, sig_).has_value());
}

TEST_F(StoreCorruption, ScanFlagsCorruptEntriesWithoutTouchingThem) {
  auto bytes = readFile();
  bytes[kHeaderBytes + 5] ^= 0xFF;
  writeFile(bytes);
  const auto entries = store_->scan();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].headerDecoded);
  EXPECT_FALSE(entries[0].valid);
  EXPECT_TRUE(fs::exists(file_)) << "scan() is read-only";
}

// --- Engine-level degradation ----------------------------------------------

TEST(StoreFault, CorruptedStoreDegradesToNoStoreResults) {
  // Corrupt EVERY object file behind a warm Engine cache dir, then rerun in
  // a fresh Engine: all results must be byte-identical (simulated fields) to
  // an Engine that never had a store, with the corruption counted.
  testing::ScopedTempDir dir("gcr-fault-engine");
  const MachineConfig machine = MachineConfig::origin2000();
  const Program p = testing::randomProgram(11, {.allowTwoDim = true});

  auto simulatedFieldsMatch = [](const Measurement& a, const Measurement& b) {
    return std::memcmp(&a.counts, &b.counts, sizeof a.counts) == 0 &&
           a.cycles == b.cycles &&
           a.memoryTrafficBytes == b.memoryTrafficBytes &&
           a.effectiveBandwidth == b.effectiveBandwidth;
  };

  // Reference: no store at all.
  EngineConfig noStore;
  noStore.cacheDir = "";
  Engine reference(noStore);
  const Measurement want = reference.measure(
      reference.version(p, Strategy::FusedRegrouped), 16, machine);

  // Warm the disk.
  EngineConfig withStore;
  withStore.cacheDir = dir.path();
  {
    Engine warm(withStore);
    (void)warm.measure(warm.version(p, Strategy::FusedRegrouped), 16, machine);
    EXPECT_GT(warm.stats().store.puts, 0u);
  }

  // Flip one byte in the payload of every published object.
  int corrupted = 0;
  for (const auto& e :
       fs::directory_iterator(fs::path(dir.path()) / "objects")) {
    std::vector<std::uint8_t> bytes;
    {
      std::ifstream in(e.path(), std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_GT(bytes.size(), kHeaderBytes);
    bytes[bytes.size() - 1] ^= 0x20;
    std::ofstream out(e.path(), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0);

  Engine cold(withStore);
  const Measurement got =
      cold.measure(cold.version(p, Strategy::FusedRegrouped), 16, machine);
  EXPECT_TRUE(simulatedFieldsMatch(want, got));
  EXPECT_GT(cold.stats().store.corruptRejected, 0u);
  EXPECT_EQ(cold.stats().store.hits, 0u);

  // And the recompute re-published healthy entries: a third engine now hits.
  Engine healed(withStore);
  const Measurement again = healed.measure(
      healed.version(p, Strategy::FusedRegrouped), 16, machine);
  EXPECT_TRUE(simulatedFieldsMatch(want, again));
  EXPECT_GT(healed.stats().store.hits, 0u);
  EXPECT_EQ(healed.stats().store.corruptRejected, 0u);
}

}  // namespace
}  // namespace gcr::store
