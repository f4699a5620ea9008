#ifndef SBRL_TENSOR_MATRIX_H_
#define SBRL_TENSOR_MATRIX_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <vector>

#include "common/aligned.h"
#include "common/check.h"

namespace sbrl {

/// Dense row-major matrix over element type T, the numeric container
/// used across the library: network activations are (n x d) matrices,
/// vectors are (n x 1) or (1 x d) matrices, and scalars are (1 x 1).
/// Two widths are instantiated (tensor/matrix.cc): `Matrix` (double)
/// is the reference tier, and `MatrixF32` (float) is the storage of
/// the f32 precision tier (common/precision.h). Double precision is
/// the default on purpose: the HSIC / IPM statistics at the heart of
/// SBRL-HAP involve small differences of large sums. Training, the
/// autodiff tape and MatrixPool take `Matrix`, so they are f64 by
/// type; only the serving forward and the streamed-stats staging are
/// written against BasicMatrix<T>.
///
/// Storage is contiguous and 64-byte aligned for both widths
/// (IsTensorAligned(data()) always holds).
template <typename T>
class BasicMatrix {
 public:
  /// The element type.
  using value_type = T;

  /// Empty 0x0 matrix.
  BasicMatrix() : rows_(0), cols_(0) {}

  /// Zero-filled matrix of shape (rows x cols).
  BasicMatrix(int64_t rows, int64_t cols)
      : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows * cols), T(0)) {
    SBRL_CHECK_GE(rows, 0);
    SBRL_CHECK_GE(cols, 0);
  }

  /// Constant-filled matrix of shape (rows x cols).
  BasicMatrix(int64_t rows, int64_t cols, T fill)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows * cols), fill) {
    SBRL_CHECK_GE(rows, 0);
    SBRL_CHECK_GE(cols, 0);
  }

  /// Builds a matrix from nested braces: Matrix::FromRows({{1,2},{3,4}}).
  static BasicMatrix FromRows(
      std::initializer_list<std::initializer_list<T>> rows);

  /// Builds an (n x 1) column vector from a flat vector.
  static BasicMatrix ColumnVector(const std::vector<T>& values);

  /// Adopts `values` (row-major, size rows*cols) as the backing storage
  /// of a (rows x cols) matrix — no copy. This is the zero-copy seam
  /// the streaming/flat-buffer CSV loader hands its accumulation
  /// buffers through; it takes the aligned vector type so adopted
  /// storage meets the same kTensorAlignment contract as constructed
  /// storage.
  static BasicMatrix FromFlat(int64_t rows, int64_t cols,
                              AlignedVector<T>&& values);

  /// Builds a (1 x n) row vector from a flat vector.
  static BasicMatrix RowVector(const std::vector<T>& values);

  /// All-zero matrix of shape (rows x cols).
  static BasicMatrix Zeros(int64_t rows, int64_t cols) {
    return BasicMatrix(rows, cols);
  }
  /// All-one matrix of shape (rows x cols).
  static BasicMatrix Ones(int64_t rows, int64_t cols) {
    return BasicMatrix(rows, cols, T(1));
  }
  /// Matrix of shape (rows x cols) with every element `v`.
  static BasicMatrix Constant(int64_t rows, int64_t cols, T v) {
    return BasicMatrix(rows, cols, v);
  }
  /// The (n x n) identity matrix.
  static BasicMatrix Identity(int64_t n);

  /// Number of rows.
  int64_t rows() const { return rows_; }
  /// Number of columns.
  int64_t cols() const { return cols_; }
  /// Total element count (rows * cols).
  int64_t size() const { return rows_ * cols_; }
  /// True when the matrix holds no elements.
  bool empty() const { return size() == 0; }

  /// True if shape is exactly (1 x 1).
  bool is_scalar() const { return rows_ == 1 && cols_ == 1; }

  /// Value of a (1 x 1) matrix; CHECK-fails otherwise.
  T scalar() const {
    SBRL_CHECK(is_scalar()) << "shape " << ShapeString();
    return data_[0];
  }

  /// Element access by (row, column); bounds-DCHECKed.
  T& operator()(int64_t r, int64_t c) {
    SBRL_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r * cols_ + c)];
  }
  /// See the mutable overload.
  T operator()(int64_t r, int64_t c) const {
    SBRL_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r * cols_ + c)];
  }

  /// Flat element access in row-major order.
  T& operator[](int64_t i) {
    SBRL_DCHECK(i >= 0 && i < size());
    return data_[static_cast<size_t>(i)];
  }
  /// See the mutable overload.
  T operator[](int64_t i) const {
    SBRL_DCHECK(i >= 0 && i < size());
    return data_[static_cast<size_t>(i)];
  }

  /// Raw pointer to the contiguous row-major storage.
  T* data() { return data_.data(); }
  /// See the mutable overload.
  const T* data() const { return data_.data(); }

  /// True when `other` has the same (rows x cols) shape.
  template <typename U>
  bool same_shape(const BasicMatrix<U>& other) const {
    return rows_ == other.rows() && cols_ == other.cols();
  }

  /// "(3x4)" — used in CHECK diagnostics.
  std::string ShapeString() const;

  /// Fills every element with `v`.
  void Fill(T v);

  /// Reshapes in place to (rows x cols) with every element zero. The
  /// backing storage is reused when its capacity suffices — this is the
  /// recycling primitive behind MatrixPool.
  void ResetZero(int64_t rows, int64_t cols);

  /// Reshapes in place to `src`'s shape and copies its contents in one
  /// pass, reusing the backing storage when possible. Across element
  /// types every element is cast with static_cast: narrowing to float
  /// rounds to nearest even (the only rounding the f32 tier adds to a
  /// stored value), widening to double is exact. MatrixCast below is
  /// the by-value form.
  template <typename U>
  void ResetCopyOf(const BasicMatrix<U>& src) {
    rows_ = src.rows();
    cols_ = src.cols();
    data_.assign(src.data(), src.data() + src.size());
  }

  /// Elements the backing storage can hold without reallocating (>=
  /// size(); survives shrinking Resets). MatrixPool keys its free list
  /// by this, so recycled buffers keep serving smaller shapes.
  int64_t capacity() const { return static_cast<int64_t>(data_.capacity()); }

  /// In-place elementwise operations (shape must match exactly).
  BasicMatrix& operator+=(const BasicMatrix& other);
  /// See operator+=.
  BasicMatrix& operator-=(const BasicMatrix& other);
  /// In-place multiplication of every element by `s`.
  BasicMatrix& operator*=(T s);

  /// Elementwise sum (shapes must match exactly).
  friend BasicMatrix operator+(const BasicMatrix& a, const BasicMatrix& b) {
    BasicMatrix out = a;
    out += b;
    return out;
  }
  /// Elementwise difference (shapes must match exactly).
  friend BasicMatrix operator-(const BasicMatrix& a, const BasicMatrix& b) {
    BasicMatrix out = a;
    out -= b;
    return out;
  }
  /// Every element scaled by `s`.
  friend BasicMatrix operator*(const BasicMatrix& a, T s) {
    BasicMatrix out = a;
    out *= s;
    return out;
  }
  /// Every element scaled by `s`.
  friend BasicMatrix operator*(T s, const BasicMatrix& a) { return a * s; }

  /// Sum of all elements.
  T Sum() const;
  /// Mean of all elements; CHECK-fails on empty matrices.
  T Mean() const;
  /// Maximum / minimum element; CHECK-fails on empty matrices.
  T MaxValue() const;
  /// See MaxValue.
  T MinValue() const;
  /// Frobenius norm.
  T Norm() const;

  /// Copy of column `c` as an (n x 1) matrix.
  BasicMatrix Col(int64_t c) const;
  /// Copy of row `r` as a (1 x m) matrix.
  BasicMatrix Row(int64_t r) const;

  /// Flattens to a std::vector in row-major order (copies — the
  /// backing storage itself is an AlignedVector).
  std::vector<T> ToVector() const;

  /// Multi-line human-readable rendering (for debugging / examples).
  std::string ToString(int max_rows = 8, int max_cols = 8) const;

 private:
  int64_t rows_;
  int64_t cols_;
  /// 64-byte-aligned backing storage (see common/aligned.h): fresh,
  /// pool-recycled, and FromFlat-adopted buffers all satisfy
  /// IsTensorAligned(data()).
  AlignedVector<T> data_;
};

/// The reference (f64) matrix: the type of every training-path tensor.
using Matrix = BasicMatrix<double>;
/// The f32-tier matrix (serving forwards, streamed-stats staging).
using MatrixF32 = BasicMatrix<float>;

extern template class BasicMatrix<double>;
extern template class BasicMatrix<float>;

/// `src` with every element cast to To (see ResetCopyOf): narrowing
/// with To = float, exact widening with To = double.
template <typename To, typename From>
BasicMatrix<To> MatrixCast(const BasicMatrix<From>& src) {
  BasicMatrix<To> out;
  out.ResetCopyOf(src);
  return out;
}

/// True when shapes match and all elements differ by at most `tol`
/// (the default scales with the element width).
template <typename T>
bool AllClose(const BasicMatrix<T>& a, const BasicMatrix<T>& b,
              double tol = std::is_same_v<T, float> ? 1e-5 : 1e-9);

}  // namespace sbrl

#endif  // SBRL_TENSOR_MATRIX_H_
