#include "linalg/coo.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace pdn3d::linalg {

namespace {

/// Stable insertion sort of one row's triplet indices by column. Mesh rows
/// hold a handful of triplets (the stacks' longest about 100), so this is
/// the cheap part of the pass.
void sort_row_by_column(std::uint32_t* order, std::size_t count,
                        std::span<const std::size_t> cols) {
  for (std::size_t k = 1; k < count; ++k) {
    const std::uint32_t t = order[k];
    const std::size_t c = cols[t];
    std::size_t j = k;
    for (; j > 0 && cols[order[j - 1]] > c; --j) order[j] = order[j - 1];
    order[j] = t;
  }
}

}  // namespace

CooLayout coo_layout(std::size_t n, std::span<const std::size_t> rows,
                     std::span<const std::size_t> cols) {
  if (rows.size() != cols.size()) throw std::invalid_argument("coo_layout: row/col count mismatch");
  const std::size_t count = rows.size();
  if (count > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("coo_layout: triplets exceed 32-bit slots");
  }

  auto pattern = std::make_shared<CsrPattern>();
  pattern->n = n;
  std::vector<std::size_t>& row_ptr = pattern->row_ptr;
  row_ptr.assign(n + 1, 0);
  for (std::size_t k = 0; k < count; ++k) {
    if (rows[k] >= n || cols[k] >= n) throw std::out_of_range("coo_layout: index out of range");
    ++row_ptr[rows[k] + 1];
  }
  for (std::size_t r = 0; r < n; ++r) row_ptr[r + 1] += row_ptr[r];

  // Counting sort by row: bucket r spans [row_ptr[r], row_ptr[r + 1]) and
  // holds row r's triplet indices in stamp order.
  std::vector<std::uint32_t> order(count);
  {
    std::vector<std::size_t> next(row_ptr.begin(), row_ptr.end() - 1);
    for (std::size_t k = 0; k < count; ++k) order[next[rows[k]]++] = static_cast<std::uint32_t>(k);
  }

  // Order each bucket by column, then give each run of one column an entry.
  CooLayout layout;
  layout.slots.resize(count);
  std::vector<std::size_t>& col_idx = pattern->col_idx;
  col_idx.resize(count);
  std::size_t out = 0;
  std::size_t begin = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t end = row_ptr[r + 1];
    sort_row_by_column(order.data() + begin, end - begin, cols);
    for (std::size_t i = begin; i < end;) {
      const std::size_t c = cols[order[i]];
      for (; i < end && cols[order[i]] == c; ++i) {
        layout.slots[order[i]] = static_cast<std::uint32_t>(out);
      }
      col_idx[out++] = c;
    }
    row_ptr[r + 1] = out;
    begin = end;
  }
  // The pattern outlives the layout's build (a cached design keeps it for
  // good), so give back the duplicates' share.
  col_idx.resize(out);
  col_idx.shrink_to_fit();
  layout.pattern = std::move(pattern);
  return layout;
}

Csr assemble(const CooLayout& layout, std::vector<double> values) {
  const CsrPattern& p = *layout.pattern;
  if (values.size() != p.col_idx.size()) throw std::invalid_argument("assemble: value count");
  if (std::find(values.begin(), values.end(), 0.0) == values.end()) {
    return Csr(layout.pattern, std::move(values));
  }
  // An entry summed to exactly 0.0: drop it, on a pattern of this matrix's
  // own.
  std::vector<std::size_t> row_ptr(p.n + 1, 0);
  std::vector<std::size_t> col_idx;
  std::vector<double> kept;
  for (std::size_t r = 0; r < p.n; ++r) {
    for (std::size_t k = p.row_ptr[r]; k < p.row_ptr[r + 1]; ++k) {
      if (values[k] == 0.0) continue;
      col_idx.push_back(p.col_idx[k]);
      kept.push_back(values[k]);
    }
    row_ptr[r + 1] = col_idx.size();
  }
  return Csr(p.n, std::move(row_ptr), std::move(col_idx), std::move(kept));
}

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
  const CooLayout layout = coo_layout(n_, rows_, cols_);
  std::vector<double> values(layout.pattern->col_idx.size(), 0.0);
  for (std::size_t k = 0; k < vals_.size(); ++k) values[layout.slots[k]] += vals_[k];
  return assemble(layout, std::move(values));
}

}  // namespace pdn3d::linalg
