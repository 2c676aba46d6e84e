#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

namespace gcr {
namespace {

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    pool.parallelFor(kCount, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kCount; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
  }
}

TEST(ThreadPool, EmptyAndTinyBatches) {
  ThreadPool pool(4);
  pool.parallelFor(0, [](std::size_t) { FAIL() << "must not run"; });
  std::atomic<int> ran{0};
  pool.parallelFor(1, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 1);
  // More threads than tasks: the excess workers must idle harmlessly.
  ran = 0;
  pool.parallelFor(2, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.parallelFor(17, [&](std::size_t i) { sum += static_cast<int>(i); });
    ASSERT_EQ(sum.load(), 17 * 16 / 2) << "round " << round;
  }
}

TEST(ThreadPool, FirstExceptionPropagates) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    std::atomic<int> completed{0};
    EXPECT_THROW(
        pool.parallelFor(64,
                         [&](std::size_t i) {
                           if (i == 13) throw std::runtime_error("boom");
                           ++completed;
                         }),
        std::runtime_error);
    // The batch drains (no stuck workers) even when a task throws.
    EXPECT_EQ(completed.load(), 63);
  }
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.parallelFor(8, [&](std::size_t outer) {
    pool.parallelFor(8, [&](std::size_t inner) {
      ++hits[outer * 8 + inner];
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "slot " << i;
}

TEST(ThreadPool, ConcurrentOutsideCallersEachRunTheirBatchOnce) {
  // Threads outside the pool (e.g. server sessions sharing one Engine) call
  // parallelFor at the same time: each caller's batch must still run every
  // one of its own indices exactly once.
  ThreadPool pool(4);
  constexpr std::size_t kCallers = 3;
  constexpr std::size_t kCount = 512;
  for (int round = 0; round < 50; ++round) {
    std::vector<std::atomic<int>> hits(kCallers * kCount);
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kCallers; ++c)
      callers.emplace_back([&, c] {
        pool.parallelFor(kCount, [&](std::size_t i) { ++hits[c * kCount + i]; });
      });
    for (std::thread& t : callers) t.join();
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " caller "
                                   << i / kCount << " index " << i % kCount;
  }
}

TEST(ThreadPool, ParallelForDoesNotWaitForBusyWorkers) {
  // The only worker is busy, so the batch's helper job stays queued: the
  // caller claims every index itself and returns without it.  The helper
  // runs after fn is gone, and must not touch it.
  std::atomic<int> ran{0};
  std::promise<void> started, release;
  {
    ThreadPool pool(2);
    pool.enqueue([&, go = release.get_future().share()] {
      started.set_value();
      go.wait();
    });
    started.get_future().wait();
    {
      const std::function<void(std::size_t)> fn = [&](std::size_t) { ++ran; };
      pool.parallelFor(8, fn);
    }
    EXPECT_EQ(ran.load(), 8);
    release.set_value();
  }  // the queued helper runs on the worker or in the destructor
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, EnqueueRunsEveryJob) {
  for (int threads : {1, 4}) {
    std::atomic<int> ran{0};
    {
      ThreadPool pool(threads);
      for (int i = 0; i < 100; ++i) pool.enqueue([&] { ++ran; });
    }  // destructor completes whatever is still queued
    EXPECT_EQ(ran.load(), 100) << "threads=" << threads;
  }
}

TEST(ThreadPool, EnqueueInlineWithOneThread) {
  ThreadPool pool(1);
  bool ran = false;
  pool.enqueue([&] { ran = true; });
  // No worker machinery at threads == 1: the job ran before enqueue returned.
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, EnqueueFromInsideTaskRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  pool.parallelFor(8, [&](std::size_t) {
    pool.enqueue([&] { ++ran; });  // must not deadlock on the pool's queue
  });
  // Inline execution means all nested jobs finished with the batch.
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, EnqueueInterleavesWithParallelFor) {
  std::atomic<int> async{0};
  std::atomic<int> batch{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 32; ++i) pool.enqueue([&] { ++async; });
    pool.parallelFor(64, [&](std::size_t) { ++batch; });
    EXPECT_EQ(batch.load(), 64);
  }  // destruction drains any async jobs still queued
  EXPECT_EQ(async.load(), 32);
}

}  // namespace
}  // namespace gcr
