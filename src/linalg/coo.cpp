#include "linalg/coo.hpp"

#include <stdexcept>
#include <utility>

namespace pdn3d::linalg {

namespace {

/// Stable insertion sort of one row's (column, value) entries by column.
/// Mesh rows hold a handful of triplets (the stacks' longest about 100), so
/// this is the cheap part of the pass.
void sort_row_by_column(std::size_t* cols, double* vals, std::size_t count) {
  for (std::size_t k = 1; k < count; ++k) {
    const std::size_t c = cols[k];
    const double v = vals[k];
    std::size_t j = k;
    for (; j > 0 && cols[j - 1] > c; --j) {
      cols[j] = cols[j - 1];
      vals[j] = vals[j - 1];
    }
    cols[j] = c;
    vals[j] = v;
  }
}

}  // namespace

CooBuilder::CooBuilder(std::size_t n) : n_(n) {}

void CooBuilder::reserve(std::size_t triplets) {
  rows_.reserve(triplets);
  cols_.reserve(triplets);
  vals_.reserve(triplets);
}

void CooBuilder::add(std::size_t row, std::size_t col, double value) {
  if (row >= n_ || col >= n_) throw std::out_of_range("CooBuilder::add: index out of range");
  if (value == 0.0) return;
  rows_.push_back(row);
  cols_.push_back(col);
  vals_.push_back(value);
}

void CooBuilder::stamp_conductance(std::size_t a, std::size_t b, double g) {
  if (g <= 0.0) throw std::invalid_argument("stamp_conductance: non-positive conductance");
  if (a == b) throw std::invalid_argument("stamp_conductance: self-loop");
  add(a, a, g);
  add(b, b, g);
  add(a, b, -g);
  add(b, a, -g);
}

void CooBuilder::stamp_to_ground(std::size_t a, double g) {
  if (g <= 0.0) throw std::invalid_argument("stamp_to_ground: non-positive conductance");
  add(a, a, g);
}

Csr CooBuilder::compress() const {
  const std::size_t nnz_in = rows_.size();

  // Counting sort by row: bucket r spans [row_ptr[r], row_ptr[r + 1]) and
  // holds row r's triplets in insertion order.
  std::vector<std::size_t> row_ptr(n_ + 1, 0);
  for (const std::size_t r : rows_) ++row_ptr[r + 1];
  for (std::size_t r = 0; r < n_; ++r) row_ptr[r + 1] += row_ptr[r];
  std::vector<std::size_t> col_idx(nnz_in);
  std::vector<double> values(nnz_in);
  {
    std::vector<std::size_t> next(row_ptr.begin(), row_ptr.end() - 1);
    for (std::size_t k = 0; k < nnz_in; ++k) {
      const std::size_t slot = next[rows_[k]]++;
      col_idx[slot] = cols_[k];
      values[slot] = vals_[k];
    }
  }

  // Order each bucket by column, then merge its duplicates in place: the
  // merged entries are written behind the read position, never ahead of it.
  std::size_t out = 0;
  std::size_t begin = 0;
  for (std::size_t r = 0; r < n_; ++r) {
    const std::size_t end = row_ptr[r + 1];
    sort_row_by_column(col_idx.data() + begin, values.data() + begin, end - begin);
    for (std::size_t i = begin; i < end;) {
      const std::size_t c = col_idx[i];
      double sum = 0.0;
      for (; i < end && col_idx[i] == c; ++i) sum += values[i];
      if (sum != 0.0) {
        col_idx[out] = c;
        values[out] = sum;
        ++out;
      }
    }
    row_ptr[r + 1] = out;
    begin = end;
  }
  // The matrix outlives the builder (a cached design keeps it for good), so
  // give back the duplicates' share of the buckets.
  col_idx.resize(out);
  col_idx.shrink_to_fit();
  values.resize(out);
  values.shrink_to_fit();

  return Csr(n_, std::move(row_ptr), std::move(col_idx), std::move(values));
}

}  // namespace pdn3d::linalg
