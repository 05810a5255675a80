#include "fit/regression.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace pdn3d::fit {
namespace {

/// Synthetic ground truth with the same structure as the physical model.
double synthetic_ir(const DesignVars& v) {
  return 3.0 + 1.2 / v.m2 + 0.8 / v.m3 + 40.0 / v.tc + 0.05 / (v.m2 * v.m3);
}

std::vector<Sample> sample_grid() {
  std::vector<Sample> out;
  for (double m2 : {0.10, 0.15, 0.20}) {
    for (double m3 : {0.10, 0.25, 0.40}) {
      for (double tc : {15.0, 80.0, 240.0, 480.0}) {
        Sample s;
        s.vars = {m2, m3, tc};
        s.ir_mv = synthetic_ir(s.vars);
        out.push_back(s);
      }
    }
  }
  return out;
}

TEST(IrModel, FitsStructuredDataExactly) {
  const auto samples = sample_grid();
  const IrModel m = IrModel::fit(samples);
  EXPECT_LT(m.rmse(), 1e-6);
  EXPECT_GT(m.r_squared(), 0.999999);
  // Prediction at an unseen interior point.
  const DesignVars v{0.17, 0.3, 120.0};
  EXPECT_NEAR(m.predict(v), synthetic_ir(v), 1e-6);
}

TEST(IrModel, PaperQualityOnNoisyData) {
  // The paper reports RMSE < 0.135 and R^2 > 0.999 on real R-Mesh samples;
  // with small noise the fit must stay in that class.
  util::Rng rng(5);
  auto samples = sample_grid();
  for (auto& s : samples) s.ir_mv += (rng.next_double() - 0.5) * 0.1;
  const IrModel m = IrModel::fit(samples);
  EXPECT_LT(m.rmse(), 0.135);
  EXPECT_GT(m.r_squared(), 0.999);
}

TEST(IrModel, NotEnoughSamplesThrows) {
  std::vector<Sample> few(3);
  EXPECT_THROW(IrModel::fit(few), std::invalid_argument);
}

TEST(IrModel, PredictBeforeFitThrows) {
  IrModel m;
  EXPECT_THROW((void)m.predict(DesignVars{}), std::logic_error);
}

TEST(IrModel, HandlesFixedTcWithoutBlowingUp) {
  // Wide I/O pins TC at 160, making the TC features collinear with the
  // constant; the ridge term must keep the fit finite and accurate.
  std::vector<Sample> samples;
  for (double m2 : {0.10, 0.14, 0.17, 0.20}) {
    for (double m3 : {0.10, 0.20, 0.30, 0.40}) {
      Sample s;
      s.vars = {m2, m3, 160.0};
      s.ir_mv = synthetic_ir(s.vars);
      samples.push_back(s);
    }
  }
  const IrModel m = IrModel::fit(samples);
  EXPECT_LT(m.rmse(), 1e-3);
  const DesignVars v{0.12, 0.35, 160.0};
  EXPECT_NEAR(m.predict(v), synthetic_ir(v), 0.01);
}

TEST(Features, CountMatchesVector) {
  EXPECT_EQ(ir_features(DesignVars{}).size(), ir_feature_count());
  EXPECT_EQ(ir_feature_names().size(), ir_feature_count());
}

TEST(Features, ReciprocalStructure) {
  const auto f1 = ir_features({0.1, 0.2, 100.0});
  const auto f2 = ir_features({0.2, 0.2, 100.0});
  EXPECT_DOUBLE_EQ(f1[0], 1.0);
  EXPECT_DOUBLE_EQ(f1[1], 2.0 * f2[1]);  // 1/m2 halves when m2 doubles
}

}  // namespace
}  // namespace pdn3d::fit
