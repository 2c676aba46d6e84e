#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace gcr {
namespace {

// Set while a thread is executing pool tasks; nested parallelFor and
// enqueue calls from inside a task run inline instead of re-entering the
// pool.
thread_local bool insideTask = false;

/// One parallelFor call.  The caller and its helper jobs share it; a
/// helper that starts after the last index was claimed (the caller may have
/// returned by then) touches nothing but `next`.
struct Batch {
  Batch(std::size_t n, const std::function<void(std::size_t)>& f)
      : count(n), fn(f) {}

  const std::size_t count;
  const std::function<void(std::size_t)>& fn;
  std::atomic<std::size_t> next{0};

  std::mutex mutex;
  std::condition_variable allFinished;
  std::size_t finished = 0;  // guarded by mutex
  std::exception_ptr error;  // the first exception; guarded by mutex

  /// Claim and run indices until none is left.
  void claimAndRun() {
    std::size_t ran = 0;
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = std::current_exception();
      }
      ++ran;
    }
    if (ran == 0) return;
    std::lock_guard<std::mutex> lock(mutex);
    finished += ran;
    if (finished == count) allFinished.notify_all();
  }
};

}  // namespace

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable wakeWorkers;
  bool stop = false;                        // guarded by mutex
  std::deque<std::function<void()>> jobs;   // guarded by mutex
  std::vector<std::thread> workers;

  void workerLoop() {
    std::unique_lock<std::mutex> lock(mutex);
    while (true) {
      wakeWorkers.wait(lock, [&] { return stop || !jobs.empty(); });
      if (stop) return;
      std::function<void()> job = std::move(jobs.front());
      jobs.pop_front();
      lock.unlock();
      insideTask = true;
      job();  // contract: must not throw
      insideTask = false;
      lock.lock();
    }
  }
};

ThreadPool::ThreadPool(int threads) {
  if (threads <= 1) return;  // inline-only: no workers, no queue
  impl_ = std::make_unique<Impl>();
  impl_->workers.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 0; t < threads - 1; ++t)
    impl_->workers.emplace_back([this] { impl_->workerLoop(); });
}

ThreadPool::~ThreadPool() {
  if (!impl_) return;
  std::deque<std::function<void()>> leftover;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
    leftover.swap(impl_->jobs);
  }
  impl_->wakeWorkers.notify_all();
  for (std::thread& w : impl_->workers) w.join();
  // Complete jobs the workers never claimed: an enqueued job's promise must
  // always be fulfilled, even when the pool dies first.  Leftover
  // parallelFor helpers find their batch fully claimed and return.
  for (std::function<void()>& fn : leftover) fn();
}

void ThreadPool::enqueue(std::function<void()> job) {
  if (!impl_ || insideTask) {
    // Inline paths: a one-thread pool (the determinism baseline —
    // submission order is execution order, no machinery), or a pool task
    // enqueueing more work (running inline avoids a worker waiting on its
    // own queue).
    job();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->stop) {
      // Destructor already started tearing the pool down (only reachable
      // from another thread racing ~ThreadPool); run inline.
    } else {
      impl_->jobs.push_back(std::move(job));
      impl_->wakeWorkers.notify_one();
      return;
    }
  }
  job();
}

void ThreadPool::parallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const auto batch = std::make_shared<Batch>(count, fn);
  // Helpers go to the front of the queue, so a batch runs ahead of queued
  // enqueue() work.  None for a one-thread pool or a nested call: the
  // caller then runs every index itself, and a throwing task still cannot
  // change which tasks execute.
  if (impl_ && !insideTask) {
    const std::size_t helpers = std::min(count, impl_->workers.size() + 1) - 1;
    {
      std::lock_guard<std::mutex> lock(impl_->mutex);
      for (std::size_t h = 0; h < helpers; ++h)
        impl_->jobs.push_front([batch] { batch->claimAndRun(); });
    }
    impl_->wakeWorkers.notify_all();
  }

  // The caller is one of the executors, and waits only for indices that
  // were claimed: a helper still queued when the last index is claimed
  // never holds the batch up.
  const bool wasInside = std::exchange(insideTask, true);
  batch->claimAndRun();
  insideTask = wasInside;
  std::unique_lock<std::mutex> lock(batch->mutex);
  batch->allFinished.wait(lock, [&] { return batch->finished == count; });
  if (batch->error) std::rethrow_exception(batch->error);
}

}  // namespace gcr
