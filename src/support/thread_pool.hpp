// Fixed-size worker pool for the measurement engine.
//
// Every figure-level experiment is a sweep over independent
// (version x size x machine) simulations; this pool runs them concurrently
// while keeping results *bit-identical* to the sequential order: task i
// always writes result slot i, tasks share nothing but the atomic index
// counter of their own batch, and no accumulator is touched by more than
// one thread.  The pool has one job queue: enqueue() appends to it, and
// parallelFor() puts helper jobs at its front that claim indices of the
// caller's batch.  The thread count is the caller's (the Engine passes
// EngineConfig::resolveThreads()).
//
// The count includes the calling thread: the pool spawns threads-1 helper
// workers and the caller participates in every parallelFor, so a one-thread
// pool means strictly inline sequential execution with no worker threads at
// all — the determinism baseline.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace gcr {

class ThreadPool {
 public:
  /// `threads` executors, the calling thread included; below 2, every call
  /// runs inline on its caller.
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Run fn(0) .. fn(count-1), each exactly once, and block until all are
  /// done.  Indices are claimed dynamically, so fn must not depend on which
  /// thread runs it.  The first exception thrown by any task is rethrown
  /// here after the whole batch has run.  Each call keeps its own batch,
  /// so concurrent outside callers each fan out; calls from inside a task
  /// run inline (no nested parallelism, no deadlock).
  void parallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& fn);

  /// Enqueue one independent job for asynchronous execution on the worker
  /// threads and return immediately.  Jobs run in submission order (workers
  /// permitting) and must not throw — wrap the body and route failures
  /// through your own channel (the Engine stores them in a promise).  On a
  /// one-thread pool, or when called from inside a pool task, the job runs
  /// inline before enqueue() returns — the same "no worker threads at
  /// GCR_THREADS=1" determinism baseline as parallelFor.  Jobs still queued
  /// at destruction time are completed inline by the destructor, so an
  /// enqueued job's side effects (e.g. fulfilling a future) always happen.
  void enqueue(std::function<void()> job);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;  // null for a one-thread pool
};

}  // namespace gcr
