// Pins the cost and the safety of the read path's self-healing reject: a
// corrupt entry is unlinked only after re-checking that the path still
// names the inode that failed validation, so the residual window between
// "validation failed" and "unlink" can cost at most one extra recompute —
// it can never delete a fresh entry renamed in concurrently, and it can
// never surface wrong bytes (the checksums reject first).
//
// One deterministic single-process test pins the exact cost; fork-based
// stress tests then hammer the window itself: corruptor processes damage
// object files in place and trigger rejects while writer processes keep
// republishing the same keys.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "../common/subprocess.hpp"
#include "../common/temp_dir.hpp"
#include "store/store.hpp"

namespace gcr::store {
namespace {

Signature keyOf(std::uint64_t k) { return Signature{0x7100 + k, 0x51}; }

/// Deterministic payload per key: every writer writes the same bytes, so a
/// mixed or stale read is indistinguishable from a correct one and only a
/// *wrong* read can fail the comparison.
std::vector<std::uint8_t> payloadForKey(const Signature& sig) {
  const std::size_t size = 512 + static_cast<std::size_t>(sig.lo % 300);
  std::vector<std::uint8_t> bytes(size);
  for (std::size_t i = 0; i < size; ++i)
    bytes[i] = static_cast<std::uint8_t>((sig.lo * 131 + i * 7) & 0xFF);
  return bytes;
}

bool sameBytes(std::span<const std::uint8_t> a,
               std::span<const std::uint8_t> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

std::string objectPathOf(const std::string& dir, ArtifactKind kind,
                         const Signature& sig) {
  return dir + "/objects/" + sig.str() + "-" + artifactKindName(kind) +
         ".gcra";
}

/// Atomically replace the published object file with a copy whose payload
/// has one flipped byte (past the fixed header, so the entry still *looks*
/// like an entry and only the checksum validation can catch it).  The
/// damaged copy arrives by rename — published entries stay immutable
/// inodes, exactly like real bitrot restored from a bad backup or crash
/// debris; a reader holding a validated mapping is never mutated under.
/// False when the file is not there — benign during the stress runs, where
/// writers and rejecting readers unlink/rename concurrently.
bool corruptObjectFile(const std::string& dir, ArtifactKind kind,
                       const Signature& sig) {
  const std::string path = objectPathOf(dir, kind, sig);
  std::vector<unsigned char> bytes;
  {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return false;
    unsigned char buf[4096];
    ssize_t got;
    while ((got = ::read(fd, buf, sizeof buf)) > 0)
      bytes.insert(bytes.end(), buf, buf + got);
    ::close(fd);
  }
  const std::size_t offset = 96;  // inside the payload for every test key
  if (bytes.size() <= offset) return false;
  bytes[offset] ^= 0xFF;
  const std::string tmp =
      path + ".corrupt." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool wrote =
      ::write(fd, bytes.data(), bytes.size()) ==
      static_cast<ssize_t>(bytes.size());
  ::close(fd);
  if (!wrote || ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

TEST(StoreRejectRace, RejectCostsExactlyOneRecompute) {
  testing::ScopedTempDir dir("gcr-reject");
  ArtifactStore::Options opts;
  opts.dir = dir.path();
  opts.fsync = false;
  auto store = ArtifactStore::open(opts);
  ASSERT_NE(store, nullptr);

  const Signature key = keyOf(0);
  ASSERT_TRUE(store->put(ArtifactKind::Measurement, key, payloadForKey(key)));
  ASSERT_TRUE(corruptObjectFile(dir.path(), ArtifactKind::Measurement, key));

  // The corrupt entry is rejected (a miss, never wrong bytes) and healed
  // away, so the *next* lookup is a clean miss, not a repeated reject.
  EXPECT_FALSE(store->get(ArtifactKind::Measurement, key).has_value());
  EXPECT_EQ(store->counters().corruptRejected, 1u);
  EXPECT_FALSE(std::filesystem::exists(
      objectPathOf(dir.path(), ArtifactKind::Measurement, key)));
  EXPECT_FALSE(store->get(ArtifactKind::Measurement, key).has_value());
  EXPECT_EQ(store->counters().corruptRejected, 1u);

  // One recompute (republication) fully restores the key.
  ASSERT_TRUE(store->put(ArtifactKind::Measurement, key, payloadForKey(key)));
  auto entry = store->get(ArtifactKind::Measurement, key);
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(sameBytes(entry->payload(), payloadForKey(key)));
}

constexpr int kWriters = 3;
constexpr int kCorruptors = 2;
constexpr int kIters = 60;
constexpr std::uint64_t kKeys = 4;

/// Writer child: republish every key round-robin and verify every read.
/// Return 0 on success; distinct codes name the violated invariant.
int writerChild(const std::string& dir, int child) {
  ArtifactStore::Options opts;
  opts.dir = dir;
  opts.fsync = false;
  auto store = ArtifactStore::open(opts);
  if (store == nullptr) return 10;
  for (int iter = 0; iter < kIters; ++iter) {
    const Signature key =
        keyOf((static_cast<std::uint64_t>(child) + iter) % kKeys);
    if (!store->put(ArtifactKind::Measurement, key, payloadForKey(key)))
      return 11;
    auto entry = store->get(ArtifactKind::Measurement, key);
    // nullopt is legal (a corruptor just damaged it); wrong bytes never are.
    if (entry.has_value() && !sameBytes(entry->payload(), payloadForKey(key)))
      return 12;
  }
  return 0;
}

/// Corruptor child: damage object files in place, then look them up — every
/// lookup must either reject (nullopt) or return fully correct bytes.
int corruptorChild(const std::string& dir, int child) {
  ArtifactStore::Options opts;
  opts.dir = dir;
  opts.fsync = false;
  auto store = ArtifactStore::open(opts);
  if (store == nullptr) return 20;
  for (int iter = 0; iter < kIters; ++iter) {
    const Signature key =
        keyOf((static_cast<std::uint64_t>(child) * 3 + iter) % kKeys);
    corruptObjectFile(dir, ArtifactKind::Measurement, key);
    auto entry = store->get(ArtifactKind::Measurement, key);
    if (entry.has_value() && !sameBytes(entry->payload(), payloadForKey(key)))
      return 21;
  }
  return 0;
}

TEST(StoreRejectRace, ConcurrentCorruptionNeverYieldsWrongBytes) {
  testing::ScopedTempDir dir("gcr-reject-mp");
  const std::string path = dir.path();

  // Seed every key so corruptors have something to damage from iteration 0.
  {
    ArtifactStore::Options opts;
    opts.dir = path;
    opts.fsync = false;
    auto store = ArtifactStore::open(opts);
    ASSERT_NE(store, nullptr);
    for (std::uint64_t k = 0; k < kKeys; ++k)
      ASSERT_TRUE(store->put(ArtifactKind::Measurement, keyOf(k),
                             payloadForKey(keyOf(k))));
  }

  const std::vector<int> status = testing::runInChildProcesses(
      kWriters + kCorruptors, [&path](int child) {
        return child < kWriters ? writerChild(path, child)
                                : corruptorChild(path, child - kWriters);
      });
  ASSERT_EQ(status.size(), static_cast<std::size_t>(kWriters + kCorruptors));
  for (std::size_t i = 0; i < status.size(); ++i)
    EXPECT_EQ(status[i], 0) << "child " << i;

  // Fresh entries survive: one republication per key must stick, and every
  // entry still on disk must validate (no half-healed debris).
  ArtifactStore::Options opts;
  opts.dir = path;
  auto store = ArtifactStore::open(opts);
  ASSERT_NE(store, nullptr);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(store->put(ArtifactKind::Measurement, keyOf(k),
                           payloadForKey(keyOf(k))));
    auto entry = store->get(ArtifactKind::Measurement, keyOf(k));
    ASSERT_TRUE(entry.has_value()) << "key " << k;
    EXPECT_TRUE(sameBytes(entry->payload(), payloadForKey(keyOf(k))));
  }
  for (const auto& e : store->scan()) EXPECT_TRUE(e.valid) << e.file;
}

TEST(StoreRejectRace, RejectUnlinkSparesConcurrentlyRenamedFreshEntry) {
  // Hammer the exact residual window: one process repeatedly corrupts and
  // triggers the reject-unlink, the other repeatedly renames fresh entries
  // into the same path.  The inode re-check inside get() must confine the
  // unlink to the corrupt inode — ending state: the key is either absent
  // (last act was a reject) or fully valid, and one put always restores it.
  testing::ScopedTempDir dir("gcr-reject-win");
  const std::string path = dir.path();
  const Signature key = keyOf(9);

  {
    ArtifactStore::Options opts;
    opts.dir = path;
    opts.fsync = false;
    auto store = ArtifactStore::open(opts);
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(
        store->put(ArtifactKind::Measurement, key, payloadForKey(key)));
  }

  const std::vector<int> status =
      testing::runInChildProcesses(2, [&path, &key](int child) {
        ArtifactStore::Options opts;
        opts.dir = path;
        opts.fsync = false;
        auto store = ArtifactStore::open(opts);
        if (store == nullptr) return 30;
        for (int iter = 0; iter < kIters * 4; ++iter) {
          if (child == 0) {
            if (!store->put(ArtifactKind::Measurement, key,
                            payloadForKey(key)))
              return 31;
          } else {
            corruptObjectFile(path, ArtifactKind::Measurement, key);
            auto entry = store->get(ArtifactKind::Measurement, key);
            if (entry.has_value() &&
                !sameBytes(entry->payload(), payloadForKey(key)))
              return 32;
          }
        }
        return 0;
      });
  for (std::size_t i = 0; i < status.size(); ++i)
    EXPECT_EQ(status[i], 0) << "child " << i;

  ArtifactStore::Options opts;
  opts.dir = path;
  auto store = ArtifactStore::open(opts);
  ASSERT_NE(store, nullptr);
  auto before = store->get(ArtifactKind::Measurement, key);
  if (before.has_value()) {
    EXPECT_TRUE(sameBytes(before->payload(), payloadForKey(key)));
  }
  ASSERT_TRUE(store->put(ArtifactKind::Measurement, key, payloadForKey(key)));
  auto after = store->get(ArtifactKind::Measurement, key);
  ASSERT_TRUE(after.has_value());
  EXPECT_TRUE(sameBytes(after->payload(), payloadForKey(key)));
}

}  // namespace
}  // namespace gcr::store
