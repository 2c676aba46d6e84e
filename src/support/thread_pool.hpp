// Fixed-size worker pool for the measurement engine.
//
// Every figure-level experiment is a sweep over independent
// (version x size x machine) simulations; this pool runs them concurrently
// while keeping results *bit-identical* to the sequential order: task i
// always writes result slot i, workers share nothing but the atomic task
// counter, and no accumulator is touched by more than one thread.  The
// thread count comes from the GCR_THREADS environment variable, falling
// back to std::thread::hardware_concurrency().
//
// `threadCount()` includes the calling thread: the pool spawns
// threadCount()-1 helper workers and the caller participates in every
// parallelFor, so GCR_THREADS=1 means strictly inline sequential execution
// with no thread machinery at all — the determinism baseline.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

namespace gcr {

class ThreadPool {
 public:
  /// threads == 0 selects defaultThreadCount().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threadCount() const { return threads_; }

  /// GCR_THREADS if set (clamped to >= 1), else hardware_concurrency().
  static int defaultThreadCount();

  /// Run fn(0) .. fn(count-1), each exactly once, and block until all are
  /// done.  Indices are claimed dynamically, so fn must not depend on which
  /// thread runs it.  The first exception thrown by any task is rethrown
  /// here after the whole batch drains.  Calls from inside a task run
  /// inline (no nested parallelism, no deadlock), and so does a call from
  /// an outside thread while another outside thread's batch holds the pool.
  void parallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& fn);

  /// Map items[i] -> result slot i through the pool.  The result type must
  /// be default-constructible and movable; ordering of the output is the
  /// input ordering regardless of thread count.
  template <typename T, typename Fn>
  auto parallelMap(const std::vector<T>& items, Fn&& fn) {
    using R = std::decay_t<decltype(fn(items.front()))>;
    std::vector<R> out(items.size());
    parallelFor(items.size(),
                [&](std::size_t i) { out[i] = fn(items[i]); });
    return out;
  }

  /// Enqueue one independent job for asynchronous execution on the worker
  /// threads and return immediately.  Jobs run in submission order (workers
  /// permitting) and must not throw — wrap the body and route failures
  /// through your own channel (the Engine stores them in a promise).  With
  /// threadCount() == 1, or when called from inside a pool task, the job
  /// runs inline before enqueue() returns — the same "no thread machinery
  /// at GCR_THREADS=1" determinism baseline as parallelFor.  Jobs still
  /// queued at destruction time are completed inline by the destructor, so
  /// an enqueued job's side effects (e.g. fulfilling a future) always
  /// happen.
  void enqueue(std::function<void()> job);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;  // null when threads_ == 1
  int threads_;
};

}  // namespace gcr
