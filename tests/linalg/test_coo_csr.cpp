#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "linalg/coo.hpp"
#include "linalg/csr.hpp"
#include "util/rng.hpp"

namespace pdn3d::linalg {
namespace {

TEST(Coo, DuplicatesAreSummed) {
  CooBuilder b(3);
  b.add(0, 1, 2.0);
  b.add(0, 1, 3.0);
  const Csr m = b.compress();
  EXPECT_DOUBLE_EQ(m.at(0, 1), 5.0);
  EXPECT_EQ(m.nnz(), 1u);
}

TEST(Coo, ZeroEntriesDropped) {
  CooBuilder b(2);
  b.add(0, 0, 0.0);
  b.add(1, 1, 2.0);
  b.add(1, 1, -2.0);  // cancels
  const Csr m = b.compress();
  EXPECT_EQ(m.nnz(), 0u);
}

TEST(Coo, OutOfRangeThrows) {
  CooBuilder b(2);
  EXPECT_THROW(b.add(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(b.add(0, 5, 1.0), std::out_of_range);
}

TEST(Coo, StampConductanceSymmetric) {
  CooBuilder b(3);
  b.stamp_conductance(0, 2, 4.0);
  const Csr m = b.compress();
  EXPECT_DOUBLE_EQ(m.at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(m.at(2, 2), 4.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), -4.0);
  EXPECT_DOUBLE_EQ(m.at(2, 0), -4.0);
  EXPECT_TRUE(m.is_symmetric());
}

TEST(Coo, StampRejectsBadInput) {
  CooBuilder b(3);
  EXPECT_THROW(b.stamp_conductance(0, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(b.stamp_conductance(0, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(b.stamp_conductance(0, 1, -2.0), std::invalid_argument);
  EXPECT_THROW(b.stamp_to_ground(0, -1.0), std::invalid_argument);
}

TEST(Coo, CompressIsRepeatable) {
  CooBuilder b(2);
  b.stamp_conductance(0, 1, 1.0);
  const Csr m1 = b.compress();
  b.stamp_to_ground(0, 2.0);
  const Csr m2 = b.compress();
  EXPECT_DOUBLE_EQ(m1.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m2.at(0, 0), 3.0);
}

TEST(Coo, DuplicatesSumInInsertionOrder) {
  // Many duplicates per (row, col) with magnitudes spread over 16 decades:
  // floating-point addition is not associative here, so only the documented
  // order -- left to right in insertion order, from 0.0 -- reproduces every
  // value bit for bit.
  constexpr std::size_t kN = 6;
  util::Rng rng(20260418);
  CooBuilder b(kN);
  std::map<std::pair<std::size_t, std::size_t>, double> expected;
  for (int k = 0; k < 3000; ++k) {
    const std::size_t row = rng.next_below(kN);
    const std::size_t col = rng.next_below(kN);
    const double magnitude = std::pow(10.0, -8.0 + 16.0 * rng.next_double());
    const double value = (rng.next_below(2) == 0 ? -1.0 : 1.0) * magnitude;
    b.add(row, col, value);
    expected[{row, col}] += value;  // value-initialized to 0.0
  }
  const Csr m = b.compress();
  std::size_t nonzero = 0;
  for (const auto& [rc, sum] : expected) {
    if (sum != 0.0) ++nonzero;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.at(rc.first, rc.second)),
              std::bit_cast<std::uint64_t>(sum))
        << "(" << rc.first << ", " << rc.second << ")";
  }
  EXPECT_EQ(m.nnz(), nonzero);
  // Columns ascend within every row.
  for (std::size_t r = 0; r < kN; ++r) {
    for (std::size_t k = m.row_ptr()[r] + 1; k < m.row_ptr()[r + 1]; ++k) {
      EXPECT_LT(m.col_idx()[k - 1], m.col_idx()[k]) << r;
    }
  }
}

TEST(Csr, MultiplyMatchesManual) {
  CooBuilder b(3);
  b.add(0, 0, 2.0);
  b.add(0, 2, 1.0);
  b.add(1, 1, 3.0);
  b.add(2, 0, 1.0);
  const Csr m = b.compress();
  const std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y(3, 0.0);
  m.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 1.0);
}

TEST(Csr, AtMissingEntryIsZero) {
  CooBuilder b(2);
  b.add(0, 0, 1.0);
  const Csr m = b.compress();
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);
  EXPECT_THROW((void)m.at(2, 0), std::out_of_range);
}

TEST(Csr, IsSymmetricDetectsAsymmetry) {
  CooBuilder b(2);
  b.add(0, 1, 1.0);
  const Csr m = b.compress();
  EXPECT_FALSE(m.is_symmetric());
}

TEST(VectorOps, DotNormAxpy) {
  const std::vector<double> a = {1.0, 2.0, 2.0};
  const std::vector<double> b = {2.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 4.0);
  EXPECT_DOUBLE_EQ(norm2(a), 3.0);
  std::vector<double> y = {1.0, 1.0, 1.0};
  axpy(2.0, a, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[2], 5.0);
}

}  // namespace
}  // namespace pdn3d::linalg
