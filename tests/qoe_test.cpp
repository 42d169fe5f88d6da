#include "src/core/qoe.h"

#include <gtest/gtest.h>

#include "core_test_util.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace cvr::core {
namespace {

using testutil::make_crf_user;
using testutil::make_user;

TEST(UserSlotContext, FromRateFunctionBuildsTables) {
  const auto user = make_crf_user(60.0, 0.9, 2.0, 10.0);
  ASSERT_EQ(user.rate.size(), 6u);
  ASSERT_EQ(user.delay.size(), 6u);
  for (double success : user.success) EXPECT_DOUBLE_EQ(success, 0.9);
  EXPECT_DOUBLE_EQ(user.weight, 0.9);  // (10 - 1) / 10
  // Rates increasing, delays increasing (convexity of both).
  for (std::size_t i = 1; i < 6; ++i) {
    EXPECT_GT(user.rate[i], user.rate[i - 1]);
    EXPECT_GE(user.delay[i], user.delay[i - 1]);
  }
}

TEST(UserSlotContext, DelaySaturatesAboveBandwidth) {
  const auto user = make_crf_user(30.0);  // levels 4..6 exceed 30 Mbps
  EXPECT_LT(user.delay[0], net::kSaturatedDelay);
  EXPECT_EQ(user.delay[5], net::kSaturatedDelay);
}

TEST(HValue, FirstSlotHasNoVarianceTerm) {
  // t = 1 -> weight (t-1)/t = 0: h = delta q - alpha d.
  const auto user = make_user({10, 15, 22, 31, 44, 60}, {1, 2, 3, 4, 5, 6},
                              100.0, 0.8, 3.0, 1.0);
  const QoeParams params{0.1, 0.5};
  EXPECT_DOUBLE_EQ(h_value(user, 2, params), 0.8 * 2.0 - 0.1 * 2.0);
}

TEST(HValue, MatchesHandComputedFormula) {
  const double delta = 0.9, qbar = 2.5, slot = 5.0;
  const auto user = make_user({10, 15, 22, 31, 44, 60}, {1, 2, 3, 4, 5, 6},
                              100.0, delta, qbar, slot);
  const QoeParams params{0.02, 0.5};
  const QualityLevel q = 4;
  const double weight = (slot - 1.0) / slot;
  const double expected =
      delta * 4.0 - 0.02 * 4.0 -
      0.5 * (delta * weight * (4.0 - qbar) * (4.0 - qbar) +
             (1.0 - delta) * weight * qbar * qbar);
  EXPECT_NEAR(h_value(user, q, params), expected, 1e-12);
}

TEST(HValue, PerfectPredictionDropsMissTerm) {
  const auto user = make_user({10, 15, 22, 31, 44, 60}, {0, 0, 0, 0, 0, 0},
                              100.0, 1.0, 3.0, 10.0);
  const QoeParams params{0.0, 1.0};
  // With delta = 1: h(q) = q - (t-1)/t (q - qbar)^2.
  const double weight = 9.0 / 10.0;
  EXPECT_NEAR(h_value(user, 3, params), 3.0 - weight * 0.0, 1e-12);
  EXPECT_NEAR(h_value(user, 5, params), 5.0 - weight * 4.0, 1e-12);
}

TEST(HValue, ConcaveInQuality) {
  // h increments must be non-increasing (the property Theorem 1 needs).
  const auto user = make_crf_user(80.0, 0.85, 2.0, 50.0);
  const QoeParams params{0.02, 0.5};
  double prev_inc = 1e18;
  for (QualityLevel q = 1; q < kNumQualityLevels; ++q) {
    const double inc = h_increment(user, q, params);
    EXPECT_LE(inc, prev_inc + 1e-9) << "q=" << q;
    prev_inc = inc;
  }
}

TEST(HIsConcave, TrueForPublishedModel) {
  const QoeParams params{0.02, 0.5};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    cvr::Rng rng(seed);
    const auto user = make_crf_user(rng.uniform(20.0, 100.0),
                                    rng.uniform(0.5, 1.0),
                                    rng.uniform(0.0, 6.0),
                                    rng.uniform(1.0, 500.0));
    EXPECT_TRUE(h_is_concave(user, params)) << seed;
  }
}

TEST(HIsConcave, FrameLossCanBreakIt) {
  // A loss cliff between mid levels creates a convex kink in the
  // effective value — the Theorem-1 assumption no longer holds.
  auto user = make_crf_user(1000.0, 1.0, 0.0, 1.0);
  // delta = 1 times (1 - frame loss) {0, 0.6, 0.6, 0, 0, 0}; within
  // B_n = 1000.
  user.success = {1.0, 0.4, 0.4, 1.0, 1.0, 1.0};
  EXPECT_FALSE(h_is_concave(user, QoeParams{0.0, 0.0}));
}

TEST(HValue, InvalidLevelThrows) {
  const auto user = make_crf_user(60.0);
  const QoeParams params;
  EXPECT_THROW(h_value(user, 0, params), std::out_of_range);
  EXPECT_THROW(h_value(user, 7, params), std::out_of_range);
}

TEST(HValue, TablesAreStructurallyComplete) {
  // The rate/delay tables are fixed-size arrays, so an "incomplete
  // table" cannot be constructed and h_value needs no per-call size
  // validation — the old std::invalid_argument path is gone from the
  // hot loop by construction (see docs/performance.md).
  static_assert(std::tuple_size<decltype(UserSlotContext::rate)>::value ==
                static_cast<std::size_t>(kNumQualityLevels));
  static_assert(std::tuple_size<decltype(UserSlotContext::delay)>::value ==
                static_cast<std::size_t>(kNumQualityLevels));
  UserSlotContext user;  // default: all-zero tables, still sized L
  EXPECT_EQ(user.rate.size(), static_cast<std::size_t>(kNumQualityLevels));
  EXPECT_EQ(user.delay.size(), static_cast<std::size_t>(kNumQualityLevels));
}

TEST(HDensity, MatchesIncrementOverRateDelta) {
  const auto user = make_crf_user(80.0, 0.9, 1.0, 10.0);
  const QoeParams params{0.02, 0.5};
  for (QualityLevel q = 1; q < kNumQualityLevels; ++q) {
    const double expected = h_increment(user, q, params) /
                            (user.rate[q] - user.rate[q - 1]);
    EXPECT_NEAR(h_density(user, q, params), expected, 1e-12);
  }
}

TEST(HDensity, NonIncreasingInQuality) {
  // eta_{n,j} >= eta_{n,j+1} (Theorem 1's key step: concave objective
  // over convex rates).
  const auto user = make_crf_user(100.0, 0.9, 2.0, 100.0);
  const QoeParams params{0.02, 0.5};
  double prev = 1e18;
  for (QualityLevel q = 1; q < kNumQualityLevels; ++q) {
    const double d = h_density(user, q, params);
    EXPECT_LE(d, prev + 1e-9);
    prev = d;
  }
}

TEST(UserQoeAccumulator, EmptyIsZero) {
  UserQoeAccumulator acc;
  EXPECT_EQ(acc.slots(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean_viewed_quality(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.average_qoe(QoeParams{}), 0.0);
}

TEST(UserQoeAccumulator, MissesCountAsZeroQuality) {
  UserQoeAccumulator acc;
  acc.record(4, true, 1.0);
  acc.record(4, false, 1.0);
  EXPECT_DOUBLE_EQ(acc.mean_viewed_quality(), 2.0);
  // Samples {4, 0}: population variance 4.
  EXPECT_DOUBLE_EQ(acc.variance(), 4.0);
}

TEST(UserQoeAccumulator, VarianceMatchesDefinition) {
  // sigma_n^2(T) from Section II computed naively vs Welford.
  cvr::Rng rng(3);
  UserQoeAccumulator acc;
  std::vector<double> samples;
  for (int t = 0; t < 500; ++t) {
    const QualityLevel q = static_cast<QualityLevel>(rng.uniform_int(1, 6));
    const bool viewed = rng.bernoulli(0.9);
    acc.record(q, viewed, 0.5);
    samples.push_back(viewed ? q : 0.0);
  }
  cvr::RunningStat naive;
  for (double s : samples) naive.add(s);
  EXPECT_NEAR(acc.variance(), naive.population_variance(), 1e-9);
  EXPECT_NEAR(acc.mean_viewed_quality(), naive.mean(), 1e-12);
}

TEST(UserQoeAccumulator, AverageQoeComposition) {
  UserQoeAccumulator acc;
  acc.record(3, true, 2.0);
  acc.record(5, true, 4.0);
  const QoeParams params{0.1, 0.5};
  // mean q = 4, mean d = 3, variance = 1.
  EXPECT_NEAR(acc.average_qoe(params), 4.0 - 0.3 - 0.5, 1e-12);
}

TEST(UserQoeAccumulator, RejectsBadInput) {
  UserQoeAccumulator acc;
  EXPECT_THROW(acc.record(0, true, 1.0), std::out_of_range);
  EXPECT_THROW(acc.record(3, true, -1.0), std::invalid_argument);
}

// The Welford decomposition (eq. 4 / Appendix A): summing the per-slot
// penalty terms (t-1)(x_t - mean_{t-1})^2 / t equals T sigma^2(T).
class VarianceDecomposition : public ::testing::TestWithParam<int> {};

TEST_P(VarianceDecomposition, PerSlotTermsSumToTotalVariance) {
  cvr::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> xs;
  const int horizon = 50 + 17 * GetParam();
  double mean = 0.0;
  double decomposed = 0.0;
  for (int t = 1; t <= horizon; ++t) {
    const double x = rng.uniform(0.0, 6.0);
    xs.push_back(x);
    decomposed += (t - 1.0) * (x - mean) * (x - mean) / t;
    mean += (x - mean) / t;  // running mean update
  }
  cvr::RunningStat naive;
  for (double x : xs) naive.add(x);
  EXPECT_NEAR(decomposed, horizon * naive.population_variance(),
              1e-7 * horizon);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VarianceDecomposition, ::testing::Range(1, 9));

}  // namespace
}  // namespace cvr::core
