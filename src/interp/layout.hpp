// Data layouts: affine per-array address maps.
//
// Every layout this library ever needs — contiguous allocation, inter-array
// padding (the "SGI compiler"-like baseline), and the paper's single- and
// multi-level data regrouping (Figure 7) — is expressible as a per-array
// affine map `byteAddr = base + sum_d stride_d * idx_d`.  The interpreter
// emits addresses through the map, so one trace/measurement pipeline serves
// all program versions.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ir/ir.hpp"

namespace gcr {

struct ArrayLayout {
  std::int64_t base = 0;                ///< byte address of element (0,...,0)
  std::vector<std::int64_t> strides;    ///< bytes per unit step, per dimension
};

class DataLayout {
 public:
  DataLayout(std::vector<ArrayLayout> perArray, std::int64_t totalBytes)
      : perArray_(std::move(perArray)), totalBytes_(totalBytes) {
    GCR_CHECK(totalBytes_ >= 0, "negative layout size");
  }

  std::int64_t addressOf(ArrayId a, std::span<const std::int64_t> idx) const {
    const ArrayLayout& l = perArray_[static_cast<std::size_t>(a)];
    std::int64_t addr = l.base;
    for (std::size_t d = 0; d < idx.size(); ++d) addr += l.strides[d] * idx[d];
    return addr;
  }

  const ArrayLayout& layoutOf(ArrayId a) const {
    return perArray_[static_cast<std::size_t>(a)];
  }
  std::int64_t totalBytes() const { return totalBytes_; }
  std::size_t numArrays() const { return perArray_.size(); }

 private:
  std::vector<ArrayLayout> perArray_;
  std::int64_t totalBytes_;
};

/// Contiguous allocation in declaration order; within an array the last
/// dimension is contiguous (row-major; apps iterate the last dimension in
/// their innermost loops, mirroring the paper's column-major Fortran).
DataLayout contiguousLayout(const Program& p, std::int64_t n);

/// Contiguous allocation with `padBytes` of dead space between consecutive
/// arrays — models the SGI compiler's inter-array padding, which avoids
/// cache-set conflicts without changing spatial locality.
DataLayout paddedLayout(const Program& p, std::int64_t n,
                        std::int64_t padBytes);

/// Concrete extents of an array at problem size n.
std::vector<std::int64_t> concreteExtents(const ArrayDecl& d, std::int64_t n);

/// Number of elements of an array at problem size n.
std::int64_t elementCount(const ArrayDecl& d, std::int64_t n);

}  // namespace gcr
