#pragma once

// Dense array library.
//
// Triolet stores bulk data in unboxed arrays and partitions them across
// cluster nodes by slicing (§3.5). The arrays here carry a *global base
// offset*: a slice of xs covering global indices [lo, hi) is itself an
// Array1 whose operator[] still accepts the global index. That is what lets
// a sliced data source be used by an unchanged extractor function on the
// receiving node — no index remapping code is generated at the use site.

#include <cstdint>
#include <span>
#include <vector>

#include "serial/serialize.hpp"
#include "support/macros.hpp"

namespace triolet {

using index_t = std::int64_t;

/// One-dimensional dense array with a global base offset.
template <typename T>
class Array1 {
 public:
  Array1() = default;

  explicit Array1(index_t n, T fill = T{}) : base_(0), data_(checked(n), fill) {}

  Array1(index_t base, std::vector<T> data) : base_(base), data_(std::move(data)) {}

  static Array1 from(std::vector<T> data) { return Array1(0, std::move(data)); }

  index_t base() const { return base_; }
  index_t size() const { return static_cast<index_t>(data_.size()); }
  index_t lo() const { return base_; }
  index_t hi() const { return base_ + size(); }

  /// Element at *global* index i.
  const T& operator[](index_t i) const {
    TRIOLET_ASSERT(i >= lo() && i < hi());
    return data_[static_cast<std::size_t>(i - base_)];
  }
  T& operator[](index_t i) {
    TRIOLET_ASSERT(i >= lo() && i < hi());
    return data_[static_cast<std::size_t>(i - base_)];
  }

  const T* data() const { return data_.data(); }
  T* data() { return data_.data(); }
  std::span<const T> span() const { return data_; }
  std::span<T> span() { return data_; }
  const std::vector<T>& storage() const { return data_; }

  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

  /// Copy of the global index range [s, e) as a new array keeping global
  /// indexing. This is the data-source slicing primitive.
  Array1 slice(index_t s, index_t e) const {
    TRIOLET_CHECK(s >= lo() && e <= hi() && s <= e, "slice out of range");
    return Array1(s, std::vector<T>(data_.begin() + (s - base_),
                                    data_.begin() + (e - base_)));
  }

  bool operator==(const Array1& o) const = default;

 private:
  static std::size_t checked(index_t n) {
    TRIOLET_CHECK(n >= 0, "array size must be non-negative");
    return static_cast<std::size_t>(n);
  }

  index_t base_ = 0;
  std::vector<T> data_;
};

/// Two-dimensional dense row-major array with a global row base offset.
/// Slicing is row-granular (the granularity used by `rows` + `outerproduct`
/// block decompositions).
template <typename T>
class Array2 {
 public:
  Array2() = default;

  Array2(index_t h, index_t w, T fill = T{})
      : row_base_(0), h_(h), w_(w),
        data_(static_cast<std::size_t>(checked(h) * checked(w)), fill) {}

  Array2(index_t row_base, index_t h, index_t w, std::vector<T> data)
      : row_base_(row_base), h_(h), w_(w), data_(std::move(data)) {
    TRIOLET_CHECK(static_cast<index_t>(data_.size()) == h_ * w_,
                  "Array2 storage size mismatch");
  }

  index_t rows() const { return h_; }
  index_t cols() const { return w_; }
  index_t row_base() const { return row_base_; }
  index_t row_lo() const { return row_base_; }
  index_t row_hi() const { return row_base_ + h_; }
  index_t size() const { return h_ * w_; }

  /// Element at (*global* row y, column x).
  const T& operator()(index_t y, index_t x) const {
    TRIOLET_ASSERT(y >= row_lo() && y < row_hi() && x >= 0 && x < w_);
    return data_[static_cast<std::size_t>((y - row_base_) * w_ + x)];
  }
  T& operator()(index_t y, index_t x) {
    TRIOLET_ASSERT(y >= row_lo() && y < row_hi() && x >= 0 && x < w_);
    return data_[static_cast<std::size_t>((y - row_base_) * w_ + x)];
  }

  /// Contiguous view of one row (global row index).
  std::span<const T> row(index_t y) const {
    TRIOLET_ASSERT(y >= row_lo() && y < row_hi());
    return {data_.data() + static_cast<std::size_t>((y - row_base_) * w_),
            static_cast<std::size_t>(w_)};
  }
  std::span<T> row(index_t y) {
    TRIOLET_ASSERT(y >= row_lo() && y < row_hi());
    return {data_.data() + static_cast<std::size_t>((y - row_base_) * w_),
            static_cast<std::size_t>(w_)};
  }

  const T* data() const { return data_.data(); }
  T* data() { return data_.data(); }
  const std::vector<T>& storage() const { return data_; }

  /// Copy of global rows [r0, r1) keeping global row indexing.
  Array2 slice_rows(index_t r0, index_t r1) const {
    TRIOLET_CHECK(r0 >= row_lo() && r1 <= row_hi() && r0 <= r1,
                  "row slice out of range");
    auto first = data_.begin() + (r0 - row_base_) * w_;
    auto last = data_.begin() + (r1 - row_base_) * w_;
    return Array2(r0, r1 - r0, w_, std::vector<T>(first, last));
  }

  bool operator==(const Array2& o) const = default;

 private:
  static index_t checked(index_t n) {
    TRIOLET_CHECK(n >= 0, "array dimension must be non-negative");
    return n;
  }

  index_t row_base_ = 0;
  index_t h_ = 0;
  index_t w_ = 0;
  std::vector<T> data_;
};

/// Three-dimensional dense array (z-major), used by cutcp's potential grid.
template <typename T>
class Array3 {
 public:
  Array3() = default;

  Array3(index_t nz, index_t ny, index_t nx, T fill = T{})
      : nz_(nz), ny_(ny), nx_(nx),
        data_(static_cast<std::size_t>(nz * ny * nx), fill) {
    TRIOLET_CHECK(nz >= 0 && ny >= 0 && nx >= 0, "bad Array3 dims");
  }

  /// Adopts `data` as the z-major storage of an nz x ny x nx array. The
  /// size check divides instead of multiplying, so dims decoded from
  /// untrusted bytes cannot overflow their way past it.
  Array3(index_t nz, index_t ny, index_t nx, std::vector<T> data)
      : nz_(nz), ny_(ny), nx_(nx), data_(std::move(data)) {
    const auto n = static_cast<index_t>(data_.size());
    TRIOLET_CHECK(nz >= 0 && ny >= 0 && nx >= 0, "bad Array3 dims");
    TRIOLET_CHECK(nz == 0 || ny == 0 || nx == 0
                      ? n == 0
                      : n % nz == 0 && n / nz % ny == 0 && n / nz / ny == nx,
                  "Array3 payload size mismatch");
  }

  index_t dim_z() const { return nz_; }
  index_t dim_y() const { return ny_; }
  index_t dim_x() const { return nx_; }
  index_t size() const { return nz_ * ny_ * nx_; }

  const T& operator()(index_t z, index_t y, index_t x) const {
    TRIOLET_ASSERT(z >= 0 && z < nz_ && y >= 0 && y < ny_ && x >= 0 && x < nx_);
    return data_[static_cast<std::size_t>((z * ny_ + y) * nx_ + x)];
  }
  T& operator()(index_t z, index_t y, index_t x) {
    TRIOLET_ASSERT(z >= 0 && z < nz_ && y >= 0 && y < ny_ && x >= 0 && x < nx_);
    return data_[static_cast<std::size_t>((z * ny_ + y) * nx_ + x)];
  }

  const T* data() const { return data_.data(); }
  T* data() { return data_.data(); }
  const std::vector<T>& storage() const { return data_; }
  std::vector<T>& storage() { return data_; }

  bool operator==(const Array3& o) const = default;

 private:
  index_t nz_ = 0;
  index_t ny_ = 0;
  index_t nx_ = 0;
  std::vector<T> data_;
};

/// Out-of-place transpose (used by sgemm before multiplying).
template <typename T>
Array2<T> transpose(const Array2<T>& a) {
  TRIOLET_CHECK(a.row_base() == 0, "transpose expects an unsliced matrix");
  Array2<T> t(a.cols(), a.rows());
  for (index_t y = 0; y < a.rows(); ++y) {
    for (index_t x = 0; x < a.cols(); ++x) {
      t(x, y) = a(y, x);
    }
  }
  return t;
}

}  // namespace triolet

// -- serialization ------------------------------------------------------------

namespace triolet::serial {

template <typename T>
struct Codec<triolet::Array1<T>> {
  static void write(ByteWriter& w, const triolet::Array1<T>& a) {
    w.write_pod<index_t>(a.base());
    serial::write(w, a.storage());
  }
  static void read(ByteReader& r, triolet::Array1<T>& a) {
    auto base = r.read_pod<index_t>();
    std::vector<T> data;
    serial::read(r, data);
    a = triolet::Array1<T>(base, std::move(data));
  }
};

template <typename T>
struct Codec<triolet::Array2<T>> {
  static void write(ByteWriter& w, const triolet::Array2<T>& a) {
    w.write_pod<index_t>(a.row_base());
    w.write_pod<index_t>(a.rows());
    w.write_pod<index_t>(a.cols());
    serial::write(w, a.storage());
  }
  static void read(ByteReader& r, triolet::Array2<T>& a) {
    auto base = r.read_pod<index_t>();
    auto h = r.read_pod<index_t>();
    auto w2 = r.read_pod<index_t>();
    std::vector<T> data;
    serial::read(r, data);
    a = triolet::Array2<T>(base, h, w2, std::move(data));
  }
};

template <typename T>
struct Codec<triolet::Array3<T>> {
  static void write(ByteWriter& w, const triolet::Array3<T>& a) {
    w.write_pod<index_t>(a.dim_z());
    w.write_pod<index_t>(a.dim_y());
    w.write_pod<index_t>(a.dim_x());
    serial::write(w, a.storage());
  }
  static void read(ByteReader& r, triolet::Array3<T>& a) {
    auto nz = r.read_pod<index_t>();
    auto ny = r.read_pod<index_t>();
    auto nx = r.read_pod<index_t>();
    std::vector<T> data;
    serial::read(r, data);
    a = triolet::Array3<T>(nz, ny, nx, std::move(data));
  }
};

}  // namespace triolet::serial
