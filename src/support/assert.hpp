// Error-handling primitives for the gcr library.
//
// GCR_CHECK is an always-on invariant check that throws gcr::Error; it is used
// for conditions that depend on user input (malformed IR, inconsistent
// layouts).  GCR_ASSERT marks internal invariants; it also throws so that unit
// tests can observe violations portably.
#pragma once

#include <stdexcept>
#include <string>

namespace gcr {

/// Exception type thrown by all gcr invariant checks.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

[[noreturn]] inline void failCheck(const char* cond, const char* file, int line,
                                   const std::string& msg) {
  throw Error(std::string(file) + ":" + std::to_string(line) + ": check `" +
              cond + "` failed" + (msg.empty() ? "" : ": " + msg));
}

/// a * b, or gcr::Error when the product overflows T; `what` names the
/// quantity in the message.
template <typename T>
T checkedMul(T a, T b, const char* what) {
  T r;
  if (__builtin_mul_overflow(a, b, &r))
    throw Error(std::string(what) + " overflows " +
                std::to_string(sizeof(T) * 8) + " bits");
  return r;
}

/// a + b, or gcr::Error when the sum overflows T.
template <typename T>
T checkedAdd(T a, T b, const char* what) {
  T r;
  if (__builtin_add_overflow(a, b, &r))
    throw Error(std::string(what) + " overflows " +
                std::to_string(sizeof(T) * 8) + " bits");
  return r;
}

/// now + steps * (now - before), or gcr::Error when that overflows T: a
/// count that went from `before` to `now` over one time step, after `steps`
/// more steps that each add the same.  Counts only grow: before <= now.
template <typename T>
T checkedExtrapolate(T now, T before, T steps, const char* what) {
  if (before > now)
    throw Error(std::string(what) + " fell over a time step");
  return checkedAdd(now, checkedMul(steps, now - before, what), what);
}

}  // namespace gcr

#define GCR_CHECK(cond, msg)                                      \
  do {                                                            \
    if (!(cond)) ::gcr::failCheck(#cond, __FILE__, __LINE__, msg); \
  } while (0)

#define GCR_ASSERT(cond) GCR_CHECK(cond, "internal invariant")
