#include "src/net/wireless_channel.h"

#include <gtest/gtest.h>

#include <numeric>

#include "src/util/stats.h"

namespace cvr::net {
namespace {

std::vector<double> max_min_fair(const std::vector<double>& demands,
                                 double capacity) {
  std::vector<double> grant;
  std::vector<std::size_t> active;
  net::max_min_fair(demands, capacity, grant, active);
  return grant;
}

std::vector<double> serve(Router& router, const std::vector<double>& demands) {
  std::vector<double> grant;
  router.serve(demands, grant);
  return grant;
}

TEST(MaxMinFair, UnderloadedGrantsAll) {
  const auto grant = max_min_fair({10.0, 20.0, 5.0}, 100.0);
  EXPECT_DOUBLE_EQ(grant[0], 10.0);
  EXPECT_DOUBLE_EQ(grant[1], 20.0);
  EXPECT_DOUBLE_EQ(grant[2], 5.0);
}

TEST(MaxMinFair, EqualSplitWhenAllGreedy) {
  const auto grant = max_min_fair({50.0, 50.0, 50.0}, 60.0);
  for (double g : grant) EXPECT_NEAR(g, 20.0, 1e-9);
}

TEST(MaxMinFair, SmallDemandSatisfiedFirst) {
  // Classic max-min: {5, 50, 50} at capacity 60 -> {5, 27.5, 27.5}.
  const auto grant = max_min_fair({5.0, 50.0, 50.0}, 60.0);
  EXPECT_NEAR(grant[0], 5.0, 1e-9);
  EXPECT_NEAR(grant[1], 27.5, 1e-9);
  EXPECT_NEAR(grant[2], 27.5, 1e-9);
}

TEST(MaxMinFair, NeverExceedsDemandOrCapacity) {
  const std::vector<double> demands = {12.0, 0.0, 33.0, 7.0};
  const auto grant = max_min_fair(demands, 30.0);
  double total = 0.0;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    EXPECT_LE(grant[i], demands[i] + 1e-9);
    total += grant[i];
  }
  EXPECT_LE(total, 30.0 + 1e-9);
}

TEST(MaxMinFair, ZeroCapacityGrantsNothing) {
  const auto grant = max_min_fair({10.0, 10.0}, 0.0);
  EXPECT_DOUBLE_EQ(grant[0], 0.0);
  EXPECT_DOUBLE_EQ(grant[1], 0.0);
}

TEST(MaxMinFair, EmptyDemands) {
  EXPECT_TRUE(max_min_fair({}, 100.0).empty());
}

TEST(FadingProcess, MultiplierBounded) {
  WirelessChannelConfig config;
  FadingProcess fading(config, 1);
  for (int i = 0; i < 10000; ++i) {
    const double m = fading.step();
    EXPECT_GT(m, 0.0);
    EXPECT_LE(m, 1.3);
  }
}

TEST(FadingProcess, CentredNearOne) {
  WirelessChannelConfig config;
  FadingProcess fading(config, 2);
  cvr::RunningStat stat;
  for (int i = 0; i < 20000; ++i) stat.add(fading.step());
  EXPECT_NEAR(stat.mean(), 1.0, 0.05);
}

TEST(FadingProcess, Autocorrelated) {
  WirelessChannelConfig config;
  FadingProcess fading(config, 3);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(fading.step());
  double mean = std::accumulate(xs.begin(), xs.end(), 0.0) / xs.size();
  double cov = 0.0, var = 0.0;
  for (std::size_t i = 0; i + 1 < xs.size(); ++i) {
    cov += (xs[i] - mean) * (xs[i + 1] - mean);
    var += (xs[i] - mean) * (xs[i] - mean);
  }
  EXPECT_GT(cov / var, 0.7);
}

Router make_router(bool interference, std::uint64_t seed = 10) {
  WirelessChannelConfig config;
  config.interference = interference;
  return Router(400.0, {40.0, 50.0, 60.0}, config, seed);
}

TEST(Router, PerUserCapacityNearThrottle) {
  Router router = make_router(false);
  cvr::RunningStat stat0;
  for (int i = 0; i < 5000; ++i) {
    router.step();
    stat0.add(router.per_user_capacity(0));
  }
  EXPECT_NEAR(stat0.mean(), 40.0, 4.0);
  EXPECT_GT(stat0.population_variance(), 0.0);
}

TEST(Router, ServeRespectsPerUserAndAggregate) {
  Router router = make_router(false);
  for (int i = 0; i < 100; ++i) {
    router.step();
    const auto grant = serve(router, {100.0, 100.0, 100.0});
    double total = 0.0;
    for (std::size_t u = 0; u < 3; ++u) {
      EXPECT_LE(grant[u], router.per_user_capacity(u) + 1e-9);
      total += grant[u];
    }
    EXPECT_LE(total, router.aggregate_capacity() + 1e-9);
  }
}

TEST(Router, ServeGrantsSmallDemandsFully) {
  Router router = make_router(false);
  router.step();
  const auto grant = serve(router, {1.0, 2.0, 3.0});
  EXPECT_NEAR(grant[0], 1.0, 1e-9);
  EXPECT_NEAR(grant[1], 2.0, 1e-9);
  EXPECT_NEAR(grant[2], 3.0, 1e-9);
}

TEST(Router, ServeDemandCountMismatchThrows) {
  Router router = make_router(false);
  EXPECT_THROW(serve(router, {1.0}), std::invalid_argument);
}

TEST(Router, InterferenceIncreasesVariance) {
  // Fig. 8's driver: two-router interference mode must produce a more
  // volatile aggregate capacity.
  Router quiet = make_router(false, 21);
  Router noisy = make_router(true, 21);
  cvr::RunningStat q, n;
  for (int i = 0; i < 20000; ++i) {
    quiet.step();
    noisy.step();
    q.add(quiet.aggregate_capacity());
    n.add(noisy.aggregate_capacity());
  }
  EXPECT_GT(n.population_variance(), q.population_variance() * 10.0);
  EXPECT_LT(n.min(), 400.0 * 0.6);  // deep interference dips observed
}

TEST(Router, RejectsBadConstruction) {
  WirelessChannelConfig config;
  EXPECT_THROW(Router(0.0, {40.0}, config, 1), std::invalid_argument);
  EXPECT_THROW(Router(400.0, {}, config, 1), std::invalid_argument);
  EXPECT_THROW(Router(400.0, {0.0}, config, 1), std::invalid_argument);
}

TEST(Router, DeterministicGivenSeed) {
  Router a = make_router(true, 5);
  Router b = make_router(true, 5);
  for (int i = 0; i < 100; ++i) {
    a.step();
    b.step();
    EXPECT_DOUBLE_EQ(a.aggregate_capacity(), b.aggregate_capacity());
    EXPECT_DOUBLE_EQ(a.per_user_capacity(1), b.per_user_capacity(1));
  }
}

}  // namespace
}  // namespace cvr::net
