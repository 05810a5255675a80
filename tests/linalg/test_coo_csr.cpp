#include <gtest/gtest.h>

#include "linalg/coo.hpp"
#include "linalg/csr.hpp"

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
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
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
