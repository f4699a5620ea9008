#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/string_util.h"

namespace sbrl {

template <typename T>
BasicMatrix<T> BasicMatrix<T>::FromRows(
    std::initializer_list<std::initializer_list<T>> rows) {
  int64_t n = static_cast<int64_t>(rows.size());
  int64_t m = n == 0 ? 0 : static_cast<int64_t>(rows.begin()->size());
  BasicMatrix out(n, m);
  int64_t r = 0;
  for (const auto& row : rows) {
    SBRL_CHECK_EQ(static_cast<int64_t>(row.size()), m)
        << "ragged rows in Matrix::FromRows";
    int64_t c = 0;
    for (T v : row) out(r, c++) = v;
    ++r;
  }
  return out;
}

template <typename T>
BasicMatrix<T> BasicMatrix<T>::ColumnVector(const std::vector<T>& values) {
  BasicMatrix out(static_cast<int64_t>(values.size()), 1);
  std::copy(values.begin(), values.end(), out.data());
  return out;
}

template <typename T>
BasicMatrix<T> BasicMatrix<T>::FromFlat(int64_t rows, int64_t cols,
                                        AlignedVector<T>&& values) {
  SBRL_CHECK_GE(rows, 0);
  SBRL_CHECK_GE(cols, 0);
  SBRL_CHECK_EQ(static_cast<int64_t>(values.size()), rows * cols);
  BasicMatrix out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.data_ = std::move(values);
  return out;
}

template <typename T>
BasicMatrix<T> BasicMatrix<T>::RowVector(const std::vector<T>& values) {
  BasicMatrix out(1, static_cast<int64_t>(values.size()));
  std::copy(values.begin(), values.end(), out.data());
  return out;
}

template <typename T>
BasicMatrix<T> BasicMatrix<T>::Identity(int64_t n) {
  BasicMatrix out(n, n);
  for (int64_t i = 0; i < n; ++i) out(i, i) = T(1);
  return out;
}

template <typename T>
std::string BasicMatrix<T>::ShapeString() const {
  std::ostringstream os;
  os << "(" << rows_ << "x" << cols_ << ")";
  return os.str();
}

template <typename T>
void BasicMatrix<T>::Fill(T v) { std::fill(data_.begin(), data_.end(), v); }

template <typename T>
void BasicMatrix<T>::ResetZero(int64_t rows, int64_t cols) {
  SBRL_CHECK_GE(rows, 0);
  SBRL_CHECK_GE(cols, 0);
  rows_ = rows;
  cols_ = cols;
  data_.assign(static_cast<size_t>(rows * cols), T(0));
}

template <typename T>
BasicMatrix<T>& BasicMatrix<T>::operator+=(const BasicMatrix& other) {
  SBRL_CHECK(same_shape(other))
      << ShapeString() << " vs " << other.ShapeString();
  for (int64_t i = 0; i < size(); ++i) data_[i] += other.data_[i];
  return *this;
}

template <typename T>
BasicMatrix<T>& BasicMatrix<T>::operator-=(const BasicMatrix& other) {
  SBRL_CHECK(same_shape(other))
      << ShapeString() << " vs " << other.ShapeString();
  for (int64_t i = 0; i < size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

template <typename T>
BasicMatrix<T>& BasicMatrix<T>::operator*=(T s) {
  for (int64_t i = 0; i < size(); ++i) data_[i] *= s;
  return *this;
}

template <typename T>
T BasicMatrix<T>::Sum() const {
  T acc = T(0);
  for (T v : data_) acc += v;
  return acc;
}

template <typename T>
T BasicMatrix<T>::Mean() const {
  SBRL_CHECK_GT(size(), 0);
  return Sum() / static_cast<T>(size());
}

template <typename T>
T BasicMatrix<T>::MaxValue() const {
  SBRL_CHECK_GT(size(), 0);
  return *std::max_element(data_.begin(), data_.end());
}

template <typename T>
T BasicMatrix<T>::MinValue() const {
  SBRL_CHECK_GT(size(), 0);
  return *std::min_element(data_.begin(), data_.end());
}

template <typename T>
T BasicMatrix<T>::Norm() const {
  T acc = T(0);
  for (T v : data_) acc += v * v;
  return std::sqrt(acc);
}

template <typename T>
BasicMatrix<T> BasicMatrix<T>::Col(int64_t c) const {
  SBRL_CHECK(c >= 0 && c < cols_);
  BasicMatrix out(rows_, 1);
  for (int64_t r = 0; r < rows_; ++r) out(r, 0) = (*this)(r, c);
  return out;
}

template <typename T>
BasicMatrix<T> BasicMatrix<T>::Row(int64_t r) const {
  SBRL_CHECK(r >= 0 && r < rows_);
  BasicMatrix out(1, cols_);
  for (int64_t c = 0; c < cols_; ++c) out(0, c) = (*this)(r, c);
  return out;
}

template <typename T>
std::vector<T> BasicMatrix<T>::ToVector() const {
  return std::vector<T>(data_.begin(), data_.end());
}

template <typename T>
std::string BasicMatrix<T>::ToString(int max_rows, int max_cols) const {
  std::ostringstream os;
  os << "Matrix" << ShapeString() << " [\n";
  int64_t show_r = std::min<int64_t>(rows_, max_rows);
  int64_t show_c = std::min<int64_t>(cols_, max_cols);
  for (int64_t r = 0; r < show_r; ++r) {
    os << "  ";
    for (int64_t c = 0; c < show_c; ++c) {
      os << FormatDouble((*this)(r, c), 4);
      if (c + 1 < show_c) os << ", ";
    }
    if (show_c < cols_) os << ", ...";
    os << "\n";
  }
  if (show_r < rows_) os << "  ...\n";
  os << "]";
  return os.str();
}

template <typename T>
bool AllClose(const BasicMatrix<T>& a, const BasicMatrix<T>& b, double tol) {
  if (!a.same_shape(b)) return false;
  for (int64_t i = 0; i < a.size(); ++i) {
    if (std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i])) >
        tol) {
      return false;
    }
  }
  return true;
}

template class BasicMatrix<double>;
template class BasicMatrix<float>;
template bool AllClose(const Matrix&, const Matrix&, double);
template bool AllClose(const MatrixF32&, const MatrixF32&, double);

}  // namespace sbrl
