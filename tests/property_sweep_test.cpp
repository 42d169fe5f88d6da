// Broad parameterized property sweeps: the allocator-family invariants
// that must hold at EVERY point of the (alpha, beta, N, budget) grid,
// not just the configurations the figure benches exercise.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core_test_util.h"
#include "src/core/dv_greedy.h"
#include "src/core/fractional.h"
#include "src/core/lagrangian.h"
#include "src/core/optimal.h"
#include "src/core/pavq.h"
#include "src/util/rng.h"

namespace cvr::core {
namespace {

using testutil::make_crf_user;

// (alpha, beta, users, budget tightness)
using GridPoint = std::tuple<double, double, int, double>;

SlotProblem grid_problem(const GridPoint& point, std::uint64_t seed) {
  const auto [alpha, beta, users, tightness] = point;
  cvr::Rng rng(seed);
  SlotProblem problem;
  problem.params = QoeParams{alpha, beta};
  double total_min = 0.0;
  for (int n = 0; n < users; ++n) {
    problem.push_back(make_crf_user(
        rng.uniform(20.0, 100.0), rng.uniform(0.5, 1.0),
        rng.uniform(0.0, 6.0), rng.uniform(1.0, 300.0),
        rng.lognormal(0.0, 0.2)));
    total_min += problem.rate_of(problem.user_count() - 1, 1);
  }
  problem.server_bandwidth = total_min * tightness;
  return problem;
}

class AllocatorGrid : public ::testing::TestWithParam<GridPoint> {};

TEST_P(AllocatorGrid, DvGreedyInvariants) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const SlotProblem problem = grid_problem(GetParam(), seed);
    DvGreedyAllocator alloc;
    const Allocation a = alloc.allocate(problem);
    ASSERT_EQ(a.levels.size(), problem.user_count());
    EXPECT_TRUE(std::isfinite(a.objective));
    EXPECT_NEAR(a.objective, evaluate(problem, a.levels), 1e-9);
    // Feasibility (mandatory minimum excepted).
    bool all_ones = true;
    for (QualityLevel q : a.levels) {
      EXPECT_TRUE(content::is_valid_level(q));
      if (q != 1) all_ones = false;
    }
    if (!all_ones) {
      EXPECT_TRUE(server_feasible(problem, a.levels));
    }
  }
}

TEST_P(AllocatorGrid, GreedyNeverBeatsUpperBounds) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const SlotProblem problem = grid_problem(GetParam(), seed);
    DvGreedyAllocator alloc;
    const double value = alloc.allocate(problem).objective;
    EXPECT_LE(value, fractional_upper_bound(problem) + 1e-6) << seed;
    EXPECT_LE(value, lagrangian_dual_bound(problem) + 1e-6) << seed;
  }
}

TEST_P(AllocatorGrid, LagrangianMatchesGreedyClass) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const SlotProblem problem = grid_problem(GetParam(), seed);
    DvGreedyAllocator dv;
    LagrangianAllocator lagrangian;
    const double vd = dv.allocate(problem).objective;
    const double vl = lagrangian.allocate(problem).objective;
    // Both are near-optimal schemes: they agree within the value of the
    // single largest increment on the instance.
    double max_increment = 0.0;
    for (std::size_t n = 0; n < problem.user_count(); ++n) {
      const UserSlotContext user = problem.user(n);
      for (QualityLevel q = 1; q < kNumQualityLevels; ++q) {
        max_increment = std::max(
            max_increment, std::abs(h_increment(user, q, problem.params)));
      }
    }
    EXPECT_NEAR(vd, vl, max_increment + 1e-6) << seed;
  }
}

TEST_P(AllocatorGrid, DeterministicAcrossInstances) {
  const SlotProblem problem = grid_problem(GetParam(), 42);
  DvGreedyAllocator a, b;
  PavqAllocator pa, pb;
  EXPECT_EQ(a.allocate(problem).levels, b.allocate(problem).levels);
  EXPECT_EQ(pa.allocate(problem).levels, pb.allocate(problem).levels);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AllocatorGrid,
    ::testing::Combine(::testing::Values(0.0, 0.02, 0.5),   // alpha
                       ::testing::Values(0.0, 0.5, 5.0),    // beta
                       ::testing::Values(1, 4, 12),         // users
                       ::testing::Values(0.8, 1.5, 3.0)));  // tightness

// Exactness sweep: at every grid point with few users, the DV-greedy
// gain stays >= 1/2 of the exact optimum's gain (Theorem 1).
class TheoremGrid : public ::testing::TestWithParam<GridPoint> {};

TEST_P(TheoremGrid, HalfApproximationHolds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const SlotProblem problem = grid_problem(GetParam(), seed);
    DvGreedyAllocator greedy;
    BruteForceAllocator brute;
    const std::vector<QualityLevel> ones(problem.user_count(), 1);
    const double base = evaluate(problem, ones);
    const double opt_gain = brute.allocate(problem).objective - base;
    const double greedy_gain = greedy.allocate(problem).objective - base;
    EXPECT_GE(greedy_gain, 0.5 * opt_gain - 1e-9) << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TheoremGrid,
    ::testing::Combine(::testing::Values(0.02, 0.3),      // alpha
                       ::testing::Values(0.0, 1.0),       // beta
                       ::testing::Values(3, 5),           // users
                       ::testing::Values(1.2, 2.5)));     // tightness

}  // namespace
}  // namespace cvr::core
