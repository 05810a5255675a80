#include "linalg/csr.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pdn3d::linalg {

Csr::Csr(std::size_t n, std::vector<std::size_t> row_ptr, std::vector<std::size_t> col_idx,
         std::vector<double> values)
    : Csr(std::make_shared<const CsrPattern>(
              CsrPattern{n, std::move(row_ptr), std::move(col_idx)}),
          std::move(values)) {}

Csr::Csr(std::shared_ptr<const CsrPattern> pattern, std::vector<double> values)
    : pattern_(std::move(pattern)), values_(std::move(values)) {
  if (!pattern_) throw std::invalid_argument("Csr: null pattern");
  n_ = pattern_->n;
  row_ptr_ = pattern_->row_ptr;
  col_idx_ = pattern_->col_idx;
  if (row_ptr_.size() != n_ + 1) throw std::invalid_argument("Csr: row_ptr size mismatch");
  if (col_idx_.size() != values_.size()) throw std::invalid_argument("Csr: col/value size mismatch");
  if (row_ptr_.back() != values_.size()) throw std::invalid_argument("Csr: row_ptr/nnz mismatch");
}

void Csr::multiply(std::span<const double> x, std::span<double> y) const {
  if (x.size() != n_ || y.size() != n_) throw std::invalid_argument("Csr::multiply: size mismatch");
  for (std::size_t r = 0; r < n_; ++r) {
    double sum = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      sum += values_[k] * x[col_idx_[k]];
    }
    y[r] = sum;
  }
}

double Csr::at(std::size_t row, std::size_t col) const {
  if (row >= n_ || col >= n_) throw std::out_of_range("Csr::at: index out of range");
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row + 1]);
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

bool Csr::is_symmetric(double tol) const {
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::size_t c = col_idx_[k];
      if (std::abs(values_[k] - at(c, r)) > tol) return false;
    }
  }
  return true;
}

double dot(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

}  // namespace pdn3d::linalg
