// Symbolic integer expressions over the problem size N and the time-step
// count T — the value language of the symbolic locality engine.
//
// The static reuse estimator (symbolic_reuse.hpp) keeps every reuse
// distance, trip count and footprint *closed form* in this IR: a SymExpr is
// an immutable tree of
//
//   Const c | N | T | Add | Mul | Min | Max | FloorDiv(k)
//
// built by smart constructors that fold constants and discharge min/max
// nodes by interval reasoning over the analysis domain (n >= minN, t >= 1).
// A Min node that survives simplification is genuine piecewise behaviour —
// e.g. min(124, N + 59) for a reuse whose nearest source switches from a
// loop-carried to a same-iteration access as N grows — and evaluating it at
// a concrete size selects the nearest source at that size exactly.
//
// Two queries drive the clients:
//   * eval(n, t)    — saturating 128-bit evaluation, clamped to int64: a
//                     whole size sweep is one analysis + cheap evaluations;
//   * degreeInN()   — the asymptotic growth degree in N (T held fixed),
//                     computed on a {degree, sign} lattice; nullopt means
//                     indeterminate (the caller falls back to a numeric
//                     growth test).  degree > 0 is the paper's "evadable"
//                     criterion decided from the formula, immune to the
//                     n/2n sampling seam.
//
// Expressions serialize into the persistent store (encode/decode follow the
// store codec contract: canonical bytes, defensive decode that throws
// gcr::Error on malformed input, which codecs translate to a cache miss).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "support/affine.hpp"
#include "support/serialize.hpp"

namespace gcr {

class SymExpr {
 public:
  enum class Kind : std::uint8_t {
    Const = 0,
    N = 1,
    T = 2,
    Add = 3,
    Mul = 4,
    Min = 5,
    Max = 6,
    FloorDiv = 7,  ///< floor(child / k), k a positive constant
  };

  /// Default-constructed expressions are *null* (no formula): the bail-out
  /// marker in per-site profiles.  Every other operation requires valid().
  SymExpr() = default;

  bool valid() const { return node_ != nullptr; }

  Kind kind() const;
  /// Const value (Kind::Const) or divisor (Kind::FloorDiv).
  std::int64_t constant() const;
  /// Children of a binary node; child(1) is invalid for FloorDiv.
  SymExpr child(int i) const;

  /// Evaluate at a concrete (n, t).  Arithmetic saturates in 128 bits and
  /// the result clamps to the int64 range, so a degree-6 volume product at
  /// a large n degrades to a huge-but-ordered value instead of UB.
  std::int64_t eval(std::int64_t n, std::int64_t t = 1) const;

  /// Asymptotic growth degree in N as n -> infinity with t fixed: 0 for
  /// bounded expressions, 1 for ~N, 2 for ~N^2, ...; negative degrees do
  /// not arise (FloorDiv keeps its child's degree).  nullopt = the lattice
  /// cannot decide (e.g. same-degree cancellation); callers fall back to a
  /// numeric growth test.
  std::optional<int> degreeInN() const;

  /// Number of nodes (diagnostics; bounded by construction).
  std::size_t size() const;

  /// Human-readable rendering, e.g. "min(124, (N + 59))".
  std::string str() const;

  /// Canonical serialization (pre-order, tag byte per node).
  void encode(ByteWriter& w) const;
  /// Defensive decode: throws gcr::Error on truncation, unknown tags,
  /// non-positive FloorDiv divisors, or over-deep nesting.
  static SymExpr decode(ByteReader& r);

  /// Structural equality (same tree, not just same function).
  friend bool operator==(const SymExpr& a, const SymExpr& b);
  friend bool operator!=(const SymExpr& a, const SymExpr& b) {
    return !(a == b);
  }

 private:
  struct Node;
  friend struct SymExprOps;  // evaluation/serialization over the node tree
  explicit SymExpr(std::shared_ptr<const Node> n) : node_(std::move(n)) {}

  struct Node {
    Kind kind = Kind::Const;
    std::int64_t k = 0;  ///< Const value / FloorDiv divisor
    std::shared_ptr<const Node> a, b;
  };

  std::shared_ptr<const Node> node_;

  friend SymExpr symConst(std::int64_t c);
  friend SymExpr symN();
  friend SymExpr symT();
  friend SymExpr symAdd(SymExpr x, SymExpr y);
  friend SymExpr symMul(SymExpr x, SymExpr y);
  friend SymExpr symMin(SymExpr x, SymExpr y, std::int64_t minN);
  friend SymExpr symMax(SymExpr x, SymExpr y, std::int64_t minN);
  friend SymExpr symFloorDiv(SymExpr x, std::int64_t k);
};

// --- smart constructors (the only way to build nodes) -----------------------

SymExpr symConst(std::int64_t c);
SymExpr symN();
SymExpr symT();
/// c + s*N as an expression (folded to a Const when s == 0).
SymExpr symAffine(AffineN a);

SymExpr symAdd(SymExpr x, SymExpr y);
SymExpr symMul(SymExpr x, SymExpr y);
/// min/max with interval simplification over n >= minN, t >= 1: when one
/// side's range provably dominates the other's, the node is discharged.
SymExpr symMin(SymExpr x, SymExpr y, std::int64_t minN);
SymExpr symMax(SymExpr x, SymExpr y, std::int64_t minN);
/// floor(x / k); k must be positive.
SymExpr symFloorDiv(SymExpr x, std::int64_t k);

}  // namespace gcr
