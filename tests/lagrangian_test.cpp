#include "src/core/lagrangian.h"

#include <gtest/gtest.h>

#include "core_test_util.h"
#include "src/core/dv_greedy.h"
#include "src/core/fractional.h"
#include "src/core/optimal.h"

namespace cvr::core {
namespace {

using testutil::make_crf_user;
using testutil::random_problem;

TEST(Lagrangian, UnconstrainedMatchesPerUserArgmax) {
  SlotProblem problem;
  problem.params = QoeParams{0.1, 0.5};
  problem.push_back(make_crf_user(60.0, 0.9, 3.0, 10.0));
  problem.server_bandwidth = 1e6;
  LagrangianAllocator lagrangian;
  BruteForceAllocator brute;
  EXPECT_NEAR(lagrangian.allocate(problem).objective,
              brute.allocate(problem).objective, 1e-9);
}

TEST(Lagrangian, AlwaysFeasible) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SlotProblem problem = random_problem(seed, 10);
    LagrangianAllocator lagrangian;
    const Allocation a = lagrangian.allocate(problem);
    EXPECT_TRUE(server_feasible(problem, a.levels)) << seed;
    for (std::size_t n = 0; n < problem.user_count(); ++n) {
      if (a.levels[n] > 1) {
        EXPECT_TRUE(user_feasible(problem, n, a.levels[n])) << seed;
      }
    }
  }
}

TEST(Lagrangian, NearOptimalOnRandomInstances) {
  // Duality-gap bound: the primal crossing allocation loses at most one
  // quality increment worth of value vs the exact optimum. Verify the
  // realized gap is small in relative terms.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SlotProblem problem = random_problem(seed, 5);
    LagrangianAllocator lagrangian;
    BruteForceAllocator brute;
    const double exact = brute.allocate(problem).objective;
    const double primal = lagrangian.allocate(problem).objective;
    EXPECT_LE(primal, exact + 1e-9) << seed;
    const std::vector<QualityLevel> ones(5, 1);
    const double base = evaluate(problem, ones);
    if (exact - base > 1e-9) {
      EXPECT_GE(primal - base, 0.6 * (exact - base)) << seed;
    }
  }
}

TEST(Lagrangian, InfeasibleMinimumFallsBackToAllOnes) {
  SlotProblem problem;
  problem.params = QoeParams{0.0, 0.0};
  problem.push_back(make_crf_user(100.0));
  problem.push_back(make_crf_user(100.0));
  problem.server_bandwidth = 1.0;
  LagrangianAllocator lagrangian;
  EXPECT_EQ(lagrangian.allocate(problem).levels,
            (std::vector<QualityLevel>{1, 1}));
}

TEST(Lagrangian, EmptyProblem) {
  SlotProblem problem;
  LagrangianAllocator lagrangian;
  EXPECT_TRUE(lagrangian.allocate(problem).levels.empty());
}

TEST(LagrangianDualBound, UpperBoundsExactOptimum) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SlotProblem problem = random_problem(seed, 5);
    BruteForceAllocator brute;
    const double exact = brute.allocate(problem).objective;
    EXPECT_GE(lagrangian_dual_bound(problem), exact - 1e-6) << seed;
  }
}

TEST(LagrangianDualBound, ComparableToFractionalBound) {
  // Both bound OPT from above; neither dominates universally, but they
  // should agree within the largest single increment's value.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SlotProblem problem = random_problem(seed, 8);
    const double dual = lagrangian_dual_bound(problem);
    const double fractional = fractional_upper_bound(problem);
    EXPECT_NEAR(dual, fractional, 0.35 * std::abs(fractional) + 6.0) << seed;
  }
}

TEST(LagrangianDualBound, TightWhenBudgetAmple) {
  SlotProblem problem = random_problem(3, 4);
  problem.server_bandwidth = 1e6;
  BruteForceAllocator brute;
  EXPECT_NEAR(lagrangian_dual_bound(problem),
              brute.allocate(problem).objective, 1e-6);
}

TEST(Lagrangian, ComparableToDvGreedy) {
  // Two different approximation schemes for the same problem: across a
  // sweep neither should be systematically worthless relative to the
  // other (mean values within a few percent).
  double lagrangian_total = 0.0, dv_total = 0.0;
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    SlotProblem problem = random_problem(seed, 12);
    LagrangianAllocator lagrangian;
    DvGreedyAllocator dv;
    lagrangian_total += lagrangian.allocate(problem).objective;
    dv_total += dv.allocate(problem).objective;
  }
  EXPECT_NEAR(lagrangian_total, dv_total, 0.05 * std::abs(dv_total));
}

}  // namespace
}  // namespace cvr::core
