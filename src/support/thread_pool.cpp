#include "support/thread_pool.hpp"

#include "support/env.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

namespace gcr {
namespace {

// Set while a thread is executing pool tasks; nested parallelFor calls from
// inside a task run inline instead of re-entering the pool.
thread_local bool insideTask = false;

void runRange(std::atomic<std::size_t>& next, std::size_t count,
              const std::function<void(std::size_t)>& fn,
              std::exception_ptr& error, std::mutex& errorMutex) {
  for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
       i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
    try {
      fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(errorMutex);
      if (!error) error = std::current_exception();
    }
  }
}

}  // namespace

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable wakeWorkers;
  std::condition_variable batchDone;

  // Held by the outside caller whose parallelFor batch owns the state
  // below.  The pool has one batch slot, so a concurrent outside caller
  // that cannot take it runs its batch sequentially instead.
  std::mutex batchOwner;

  // Current batch; guarded by mutex except for the atomic claim counter.
  const std::function<void(std::size_t)>* job = nullptr;
  std::size_t count = 0;
  std::atomic<std::size_t> next{0};
  int active = 0;            // workers currently inside the batch
  std::uint64_t generation = 0;
  bool stop = false;
  std::exception_ptr error;
  std::mutex errorMutex;

  // Asynchronous one-shot jobs (Engine::submit); guarded by mutex.
  std::deque<std::function<void()>> asyncJobs;

  std::vector<std::thread> workers;

  void workerLoop() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex);
    while (true) {
      wakeWorkers.wait(lock, [&] {
        return stop || generation != seen || !asyncJobs.empty();
      });
      if (stop) return;
      if (generation != seen) {
        seen = generation;
        // The caller may have drained the whole batch (and cleared `job`)
        // before this worker woke; there is nothing left to claim.
        if (job != nullptr) {
          const std::function<void(std::size_t)>* fn = job;
          const std::size_t n = count;
          ++active;
          lock.unlock();
          insideTask = true;
          runRange(next, n, *fn, error, errorMutex);
          insideTask = false;
          lock.lock();
          if (--active == 0) batchDone.notify_all();
          continue;
        }
      }
      if (!asyncJobs.empty()) {
        std::function<void()> fn = std::move(asyncJobs.front());
        asyncJobs.pop_front();
        lock.unlock();
        insideTask = true;
        fn();  // contract: must not throw
        insideTask = false;
        lock.lock();
      }
    }
  }
};

ThreadPool::ThreadPool(int threads)
    : threads_(threads > 0 ? threads : defaultThreadCount()) {
  if (threads_ <= 1) {
    threads_ = 1;
    return;  // inline-only: no workers, no synchronization anywhere
  }
  impl_ = std::make_unique<Impl>();
  impl_->workers.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int t = 0; t < threads_ - 1; ++t)
    impl_->workers.emplace_back([this] { impl_->workerLoop(); });
}

ThreadPool::~ThreadPool() {
  if (!impl_) return;
  std::deque<std::function<void()>> leftover;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
    leftover.swap(impl_->asyncJobs);
  }
  impl_->wakeWorkers.notify_all();
  for (std::thread& w : impl_->workers) w.join();
  // Complete jobs the workers never claimed: an enqueued job's promise must
  // always be fulfilled, even when the pool dies first.
  for (std::function<void()>& fn : leftover) fn();
}

int ThreadPool::defaultThreadCount() {
  if (const int v = env::threads(); v >= 1) return v;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void ThreadPool::enqueue(std::function<void()> job) {
  if (!impl_ || insideTask) {
    // Inline paths: threads_ == 1 (the determinism baseline — submission
    // order is execution order, no machinery), or a pool task enqueueing
    // more work (running inline avoids a worker waiting on its own queue).
    job();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->stop) {
      // Destructor already started tearing the pool down (only reachable
      // from another thread racing ~ThreadPool); run inline.
    } else {
      impl_->asyncJobs.push_back(std::move(job));
      impl_->wakeWorkers.notify_one();
      return;
    }
  }
  job();
}

void ThreadPool::parallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  std::unique_lock<std::mutex> owner;
  if (impl_ && !insideTask && count > 1)
    owner = std::unique_lock<std::mutex>(impl_->batchOwner, std::try_to_lock);
  if (!owner.owns_lock()) {
    // Sequential path: threads_ == 1, a nested call, a trivial batch, or
    // another outside caller's batch holding the pool.  Matches the
    // parallel path's contract: every index runs, then the first exception
    // (if any) is rethrown — so a throwing task cannot change which tasks
    // execute depending on the thread count.
    std::exception_ptr error;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->job = &fn;
    impl_->count = count;
    impl_->next.store(0, std::memory_order_relaxed);
    impl_->error = nullptr;
    ++impl_->generation;
  }
  impl_->wakeWorkers.notify_all();

  // The caller is one of the threadCount() executors.
  insideTask = true;
  runRange(impl_->next, count, fn, impl_->error, impl_->errorMutex);
  insideTask = false;

  std::unique_lock<std::mutex> lock(impl_->mutex);
  impl_->batchDone.wait(lock, [&] { return impl_->active == 0; });
  impl_->job = nullptr;
  if (impl_->error) std::rethrow_exception(impl_->error);
}

}  // namespace gcr
