#include "interp/layout.hpp"

namespace gcr {

std::vector<std::int64_t> concreteExtents(const ArrayDecl& d, std::int64_t n) {
  std::vector<std::int64_t> ext;
  ext.reserve(d.extents.size());
  for (const AffineN& e : d.extents) {
    const std::int64_t v = e.eval(n);
    GCR_CHECK(v > 0, "array " + d.name + " has non-positive extent at n=" +
                         std::to_string(n));
    ext.push_back(v);
  }
  return ext;
}

std::int64_t elementCount(const ArrayDecl& d, std::int64_t n) {
  std::int64_t count = 1;
  for (std::int64_t e : concreteExtents(d, n))
    count = checkedMul(count, e, "array element count");
  return count;
}

namespace {

DataLayout buildContiguous(const Program& p, std::int64_t n,
                           std::int64_t padBytes) {
  std::vector<ArrayLayout> maps;
  maps.reserve(p.arrays.size());
  std::int64_t cursor = 0;
  for (const ArrayDecl& d : p.arrays) {
    const auto ext = concreteExtents(d, n);
    ArrayLayout m;
    m.strides.assign(ext.size(), 0);
    std::int64_t stride = d.elemSize;
    for (int dim = static_cast<int>(ext.size()) - 1; dim >= 0; --dim) {
      m.strides[static_cast<std::size_t>(dim)] = stride;
      stride = checkedMul(stride, ext[static_cast<std::size_t>(dim)],
                          "array byte size");
    }
    m.base = cursor;
    // stride == total bytes of this array
    cursor = checkedAdd(checkedAdd(cursor, stride, "layout size"), padBytes,
                        "layout size");
    maps.push_back(std::move(m));
  }
  return DataLayout(std::move(maps), cursor);
}

}  // namespace

DataLayout contiguousLayout(const Program& p, std::int64_t n) {
  return buildContiguous(p, n, 0);
}

DataLayout paddedLayout(const Program& p, std::int64_t n,
                        std::int64_t padBytes) {
  GCR_CHECK(padBytes >= 0, "negative padding");
  return buildContiguous(p, n, padBytes);
}

}  // namespace gcr
