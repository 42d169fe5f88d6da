#include "src/util/regression.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace cvr {
namespace {

TEST(SlidingLinearRegressor, RecoversExactLine) {
  SlidingLinearRegressor reg(10);
  for (int i = 0; i < 10; ++i) reg.add(i, 2.0 * i + 1.0);
  EXPECT_NEAR(reg.slope(), 2.0, 1e-9);
  EXPECT_NEAR(reg.intercept(), 1.0, 1e-9);
  EXPECT_NEAR(reg.predict(20.0), 41.0, 1e-9);
}

TEST(SlidingLinearRegressor, EmptyPredictsZero) {
  SlidingLinearRegressor reg(5);
  EXPECT_DOUBLE_EQ(reg.predict(3.0), 0.0);
  EXPECT_FALSE(reg.ready());
}

TEST(SlidingLinearRegressor, SinglePointIsPersistence) {
  SlidingLinearRegressor reg(5);
  reg.add(0.0, 7.0);
  EXPECT_DOUBLE_EQ(reg.predict(100.0), 7.0);
}

TEST(SlidingLinearRegressor, WindowForgetsOldRegime) {
  SlidingLinearRegressor reg(5);
  // Old regime: slope 0 at level 0.
  for (int i = 0; i < 50; ++i) reg.add(i, 0.0);
  // New regime: slope 1; the window only sees the last 5 points.
  for (int i = 50; i < 55; ++i) reg.add(i, static_cast<double>(i));
  EXPECT_NEAR(reg.slope(), 1.0, 1e-9);
  EXPECT_NEAR(reg.predict(60.0), 60.0, 1e-9);
}

TEST(SlidingLinearRegressor, ConstantSignalHasZeroSlope) {
  SlidingLinearRegressor reg(8);
  for (int i = 0; i < 20; ++i) reg.add(i, 5.5);
  EXPECT_NEAR(reg.slope(), 0.0, 1e-9);
  EXPECT_NEAR(reg.predict(1000.0), 5.5, 1e-9);
}

TEST(SlidingLinearRegressor, DegenerateIdenticalXs) {
  SlidingLinearRegressor reg(5);
  reg.add(1.0, 2.0);
  reg.add(1.0, 4.0);
  // Vertical data: slope defined as 0, prediction = mean.
  EXPECT_DOUBLE_EQ(reg.slope(), 0.0);
  EXPECT_NEAR(reg.predict(1.0), 3.0, 1e-9);
}

TEST(SlidingLinearRegressor, NoisyLineRecoveredApproximately) {
  Rng rng(3);
  SlidingLinearRegressor reg(200);
  for (int i = 0; i < 200; ++i) {
    reg.add(i, 3.0 * i - 7.0 + rng.normal(0.0, 0.5));
  }
  EXPECT_NEAR(reg.slope(), 3.0, 0.05);
  EXPECT_NEAR(reg.intercept(), -7.0, 2.0);
}

TEST(SlidingLinearRegressor, ZeroWindowClampedToOne) {
  SlidingLinearRegressor reg(0);
  reg.add(0.0, 1.0);
  reg.add(1.0, 2.0);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(PolynomialRegressor, RecoversQuadratic) {
  PolynomialRegressor reg(2, 100);
  for (int i = -5; i <= 5; ++i) {
    const double x = i;
    reg.add(x, 2.0 * x * x - 3.0 * x + 1.0);
  }
  EXPECT_TRUE(reg.ready());
  EXPECT_NEAR(reg.predict(10.0), 171.0, 1e-6);
  const auto coeffs = reg.coefficients();
  ASSERT_EQ(coeffs.size(), 3u);
  EXPECT_NEAR(coeffs[0], 1.0, 1e-6);
  EXPECT_NEAR(coeffs[1], -3.0, 1e-6);
  EXPECT_NEAR(coeffs[2], 2.0, 1e-6);
}

TEST(PolynomialRegressor, UnderdeterminedFallsBackToMean) {
  PolynomialRegressor reg(2, 100);
  reg.add(1.0, 4.0);
  reg.add(2.0, 6.0);
  EXPECT_FALSE(reg.ready());
  EXPECT_NEAR(reg.predict(50.0), 5.0, 1e-9);
}

TEST(PolynomialRegressor, EmptyPredictsZero) {
  PolynomialRegressor reg(2, 10);
  EXPECT_DOUBLE_EQ(reg.predict(1.0), 0.0);
}

TEST(PolynomialRegressor, HistoryBoundForgetsOldData) {
  PolynomialRegressor reg(1, 10);
  for (int i = 0; i < 100; ++i) reg.add(i, 0.0);
  for (int i = 100; i < 110; ++i) reg.add(i, static_cast<double>(i));
  EXPECT_EQ(reg.size(), 10u);
  EXPECT_NEAR(reg.predict(120.0), 120.0, 1e-6);
}

TEST(PolynomialRegressor, DegreeZeroIsMean) {
  PolynomialRegressor reg(0, 100);
  reg.add(0.0, 2.0);
  reg.add(1.0, 4.0);
  reg.add(2.0, 6.0);
  EXPECT_NEAR(reg.predict(123.0), 4.0, 1e-9);
}

// A verbatim copy of the deque-backed PolynomialRegressor fit that the
// fixed sample ring replaced. The ring must reproduce it bit for bit:
// same samples, same products, same oldest-to-newest summation order.
class DequePolynomialReference {
 public:
  DequePolynomialReference(int degree, std::size_t max_history)
      : degree_(degree < 0 ? 0 : degree),
        max_history_(max_history == 0 ? 1 : max_history) {}

  void add(double x, double y) {
    xs_.push_back(x);
    ys_.push_back(y);
    if (xs_.size() > max_history_) {
      xs_.pop_front();
      ys_.pop_front();
    }
    dirty_ = true;
  }

  bool ready() const {
    return xs_.size() >= static_cast<std::size_t>(degree_) + 1;
  }

  double predict(double x) {
    fit();
    if (coeffs_.empty()) {
      if (ys_.empty()) return 0.0;
      double total = 0.0;
      for (double y : ys_) total += y;
      return total / static_cast<double>(ys_.size());
    }
    double result = 0.0;
    double power = 1.0;
    for (double c : coeffs_) {
      result += c * power;
      power *= x;
    }
    return result;
  }

  std::vector<double> coefficients() {
    fit();
    return coeffs_;
  }

 private:
  void fit() {
    if (!dirty_) return;
    dirty_ = false;
    coeffs_.clear();
    if (!ready()) return;
    const std::size_t dim = static_cast<std::size_t>(degree_) + 1;
    std::vector<double> ata(dim * dim, 0.0);
    std::vector<double> aty(dim, 0.0);
    for (std::size_t k = 0; k < xs_.size(); ++k) {
      double powers_i = 1.0;
      std::vector<double> pows(dim);
      for (std::size_t i = 0; i < dim; ++i) {
        pows[i] = powers_i;
        powers_i *= xs_[k];
      }
      for (std::size_t i = 0; i < dim; ++i) {
        aty[i] += pows[i] * ys_[k];
        for (std::size_t j = 0; j < dim; ++j) {
          ata[i * dim + j] += pows[i] * pows[j];
        }
      }
    }
    if (solve_linear_system(ata, aty, dim)) {
      coeffs_ = aty;
    }
  }

  int degree_;
  std::size_t max_history_;
  std::deque<double> xs_, ys_;
  std::vector<double> coeffs_;
  bool dirty_ = true;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct BitIdentityCase {
  int degree;
  std::size_t history;
};

class PolynomialRegressorBitIdentity
    : public ::testing::TestWithParam<BitIdentityCase> {
 protected:
  /// Feeds (x, y) to both fits, then compares the coefficients and a
  /// prediction bit for bit. Called after every sample, so every
  /// refit — underdetermined, filling, wrapped — is checked.
  void feed(double x, double y, double probe_x) {
    reg_.add(x, y);
    ref_.add(x, y);
    ASSERT_EQ(reg_.ready(), ref_.ready());
    const std::vector<double> got = reg_.coefficients();
    const std::vector<double> want = ref_.coefficients();
    ASSERT_EQ(got.size(), want.size()) << "after sample " << count_;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(bits(got[i]), bits(want[i]))
          << "coefficient " << i << " after sample " << count_;
    }
    ASSERT_EQ(bits(reg_.predict(probe_x)), bits(ref_.predict(probe_x)))
        << "prediction after sample " << count_;
    ++count_;
  }

  PolynomialRegressor reg_{GetParam().degree, GetParam().history};
  DequePolynomialReference ref_{GetParam().degree, GetParam().history};
  std::size_t count_ = 0;
};

TEST_P(PolynomialRegressorBitIdentity, NoisyDelaySamplesWrapTheHistory) {
  // Delay-vs-rate shaped data, 3.5 histories long so the ring wraps
  // more than three times.
  Rng rng(20221 + static_cast<std::uint64_t>(GetParam().degree));
  const std::size_t n = GetParam().history * 7 / 2;
  for (std::size_t k = 0; k < n; ++k) {
    const double rate = rng.uniform(0.5, 60.0);
    const double delay = 0.8 + 0.002 * rate * rate + rng.normal(0.0, 0.3);
    ASSERT_NO_FATAL_FAILURE(feed(rate, delay, rng.uniform(0.0, 70.0)));
  }
}

TEST_P(PolynomialRegressorBitIdentity, SingularWindowFallsBackToMean) {
  // Varied samples first, then a constant rate for longer than the
  // history: the window turns singular (for degree >= 1) and the fit
  // falls back to the mean of the retained y; then varied again.
  Rng rng(7 + static_cast<std::uint64_t>(GetParam().degree));
  const std::size_t h = GetParam().history;
  for (std::size_t k = 0; k < h; ++k) {
    ASSERT_NO_FATAL_FAILURE(
        feed(rng.uniform(1.0, 40.0), rng.uniform(0.0, 9.0), 12.5));
  }
  for (std::size_t k = 0; k < 2 * h; ++k) {
    ASSERT_NO_FATAL_FAILURE(feed(2.0, rng.uniform(0.0, 9.0), 12.5));
  }
  for (std::size_t k = 0; k < h; ++k) {
    ASSERT_NO_FATAL_FAILURE(
        feed(rng.uniform(1.0, 40.0), rng.uniform(0.0, 9.0), 12.5));
  }
}

TEST_P(PolynomialRegressorBitIdentity, ZeroRatesAreSingular) {
  // x = 0 leaves only the constant column: singular for degree >= 1.
  Rng rng(99);
  for (std::size_t k = 0; k < 3 * GetParam().history; ++k) {
    ASSERT_NO_FATAL_FAILURE(feed(0.0, rng.uniform(0.0, 5.0), 3.0));
  }
}

INSTANTIATE_TEST_SUITE_P(
    DegreesAndHistories, PolynomialRegressorBitIdentity,
    ::testing::Values(BitIdentityCase{0, 10}, BitIdentityCase{1, 10},
                      BitIdentityCase{2, 10}, BitIdentityCase{3, 10},
                      BitIdentityCase{5, 10}, BitIdentityCase{0, 256},
                      BitIdentityCase{1, 256}, BitIdentityCase{2, 256},
                      BitIdentityCase{3, 256}, BitIdentityCase{5, 256}),
    [](const ::testing::TestParamInfo<BitIdentityCase>& info) {
      return "Degree" + std::to_string(info.param.degree) + "History" +
             std::to_string(info.param.history);
    });

TEST(SolveLinearSystem, TwoByTwo) {
  std::vector<double> a = {2.0, 1.0, 1.0, 3.0};
  std::vector<double> b = {5.0, 10.0};
  ASSERT_TRUE(solve_linear_system(a, b, 2));
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(SolveLinearSystem, SingularReturnsFalse) {
  std::vector<double> a = {1.0, 2.0, 2.0, 4.0};
  std::vector<double> b = {1.0, 2.0};
  EXPECT_FALSE(solve_linear_system(a, b, 2));
}

TEST(SolveLinearSystem, NeedsPivoting) {
  // Leading zero forces a row swap.
  std::vector<double> a = {0.0, 1.0, 1.0, 0.0};
  std::vector<double> b = {2.0, 3.0};
  ASSERT_TRUE(solve_linear_system(a, b, 2));
  EXPECT_NEAR(b[0], 3.0, 1e-12);
  EXPECT_NEAR(b[1], 2.0, 1e-12);
}

// Property: a degree-d regressor interpolates any polynomial of degree
// <= d exactly when given >= d+1 distinct points.
class PolyExactness : public ::testing::TestWithParam<int> {};

TEST_P(PolyExactness, InterpolatesOwnDegree) {
  const int degree = GetParam();
  Rng rng(100 + static_cast<std::uint64_t>(degree));
  std::vector<double> coeffs;
  for (int i = 0; i <= degree; ++i) coeffs.push_back(rng.uniform(-2.0, 2.0));
  PolynomialRegressor reg(degree, 64);
  for (int i = 0; i <= degree + 5; ++i) {
    const double x = i * 0.7 - 2.0;
    double y = 0.0, p = 1.0;
    for (double c : coeffs) {
      y += c * p;
      p *= x;
    }
    reg.add(x, y);
  }
  for (double x : {-3.0, 0.0, 4.2}) {
    double y = 0.0, p = 1.0;
    for (double c : coeffs) {
      y += c * p;
      p *= x;
    }
    EXPECT_NEAR(reg.predict(x), y, 1e-5) << "degree " << degree;
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, PolyExactness, ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace cvr
