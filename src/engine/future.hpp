// Futures returned by Engine::submit().
//
// A thin, copyable wrapper over std::shared_future: many submissions of the
// same content-addressed work may share one underlying state (in-flight
// deduplication), and callers may hold, copy and re-get results freely.
// get() blocks until the result is ready and rethrows the producing task's
// exception, if any.
#pragma once

#include <chrono>
#include <future>
#include <utility>

namespace gcr {

template <typename T>
class Future {
 public:
  Future() = default;
  explicit Future(std::shared_future<T> f) : f_(std::move(f)) {}

  bool valid() const { return f_.valid(); }

  /// True when get() would not block.
  bool ready() const {
    return f_.valid() &&
           f_.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  }

  void wait() const { f_.wait(); }

  /// Blocks until ready; rethrows the task's exception on failure.  The
  /// reference stays valid for the lifetime of any copy of this future.
  const T& get() const { return f_.get(); }

 private:
  std::shared_future<T> f_;
};

}  // namespace gcr
