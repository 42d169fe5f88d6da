#include "src/core/optimal.h"

#include <gtest/gtest.h>

#include "core_test_util.h"
#include "src/core/dv_greedy.h"
#include "src/core/fractional.h"

namespace cvr::core {
namespace {

using testutil::make_crf_user;
using testutil::make_user;
using testutil::random_problem;

TEST(BruteForce, SingleUserPicksArgmax) {
  SlotProblem problem;
  problem.params = QoeParams{0.1, 0.5};
  problem.push_back(make_crf_user(60.0, 0.9, 3.0, 10.0));
  problem.server_bandwidth = 1000.0;
  BruteForceAllocator brute;
  const Allocation a = brute.allocate(problem);
  double best = -1e18;
  QualityLevel best_q = 1;
  for (QualityLevel q = 1; q <= kNumQualityLevels; ++q) {
    if (q > 1 && !user_feasible(problem, 0, q)) break;
    const double v = h_value(problem.user(0), q, problem.params);
    if (v > best) {
      best = v;
      best_q = q;
    }
  }
  EXPECT_EQ(a.levels[0], best_q);
  EXPECT_NEAR(a.objective, best, 1e-12);
}

TEST(BruteForce, RespectsConstraints) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SlotProblem problem = random_problem(seed, 5);
    BruteForceAllocator brute;
    const Allocation a = brute.allocate(problem);
    EXPECT_TRUE(server_feasible(problem, a.levels)) << seed;
    for (std::size_t n = 0; n < 5; ++n) {
      if (a.levels[n] > 1) {
        EXPECT_TRUE(user_feasible(problem, n, a.levels[n])) << seed;
      }
    }
  }
}

TEST(BruteForce, NeverBeatenByAnyFeasibleEnumeration) {
  // Cross-check the DFS against a dumb full enumeration on 3 users.
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    SlotProblem problem = random_problem(seed, 3);
    BruteForceAllocator brute;
    const double dfs_value = brute.allocate(problem).objective;

    double best = -1e18;
    std::vector<QualityLevel> q(3, 1);
    for (q[0] = 1; q[0] <= 6; ++q[0]) {
      for (q[1] = 1; q[1] <= 6; ++q[1]) {
        for (q[2] = 1; q[2] <= 6; ++q[2]) {
          bool ok = server_feasible(problem, q);
          for (int n = 0; n < 3 && ok; ++n) {
            if (q[static_cast<std::size_t>(n)] > 1 &&
                !user_feasible(problem, static_cast<std::size_t>(n),
                               q[static_cast<std::size_t>(n)])) {
              ok = false;
            }
          }
          if (ok) best = std::max(best, evaluate(problem, q));
        }
      }
    }
    EXPECT_NEAR(dfs_value, best, 1e-9) << seed;
  }
}

TEST(BruteForce, TooManyUsersThrows) {
  SlotProblem problem = random_problem(1, 9);
  BruteForceAllocator brute(8);
  EXPECT_THROW(brute.allocate(problem), std::invalid_argument);
}

TEST(BruteForce, EmptyProblem) {
  SlotProblem problem;
  BruteForceAllocator brute;
  EXPECT_TRUE(brute.allocate(problem).levels.empty());
}

TEST(BruteForce, InfeasibleMinimumFallsBackToAllOnes) {
  SlotProblem problem;
  problem.params = QoeParams{0.0, 0.0};
  problem.push_back(make_crf_user(100.0));
  problem.push_back(make_crf_user(100.0));
  problem.server_bandwidth = 1.0;
  BruteForceAllocator brute;
  EXPECT_EQ(brute.allocate(problem).levels,
            (std::vector<QualityLevel>{1, 1}));
}

TEST(DpAllocator, MatchesBruteForceOnFineGrid) {
  // With granularity far below any rate increment, DP == brute force.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SlotProblem problem = random_problem(seed, 5);
    BruteForceAllocator brute;
    DpAllocator dp(0.01);
    const double exact = brute.allocate(problem).objective;
    const double approx = dp.allocate(problem).objective;
    EXPECT_NEAR(approx, exact, std::abs(exact) * 1e-3 + 1e-6) << seed;
  }
}

TEST(DpAllocator, AlwaysFeasible) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SlotProblem problem = random_problem(seed, 12);
    DpAllocator dp(0.1);
    const Allocation a = dp.allocate(problem);
    EXPECT_TRUE(server_feasible(problem, a.levels)) << seed;
  }
}

TEST(DpAllocator, ScalesToManyUsers) {
  SlotProblem problem = random_problem(3, 30);
  DpAllocator dp(0.25);
  const Allocation a = dp.allocate(problem);
  EXPECT_EQ(a.levels.size(), 30u);
  EXPECT_TRUE(server_feasible(problem, a.levels));
}

TEST(DpAllocator, CoarseGridStillFeasibleJustWeaker) {
  SlotProblem problem = random_problem(7, 6);
  DpAllocator fine(0.05);
  DpAllocator coarse(2.0);
  const double vf = fine.allocate(problem).objective;
  const double vc = coarse.allocate(problem).objective;
  EXPECT_LE(vc, vf + 1e-9);
  EXPECT_TRUE(server_feasible(problem, coarse.allocate(problem).levels));
}

TEST(DpAllocator, RejectsBadGranularity) {
  EXPECT_THROW(DpAllocator{0.0}, std::invalid_argument);
  EXPECT_THROW(DpAllocator{-1.0}, std::invalid_argument);
}

TEST(DpAllocator, InfeasibleMinimumFallsBackToAllOnes) {
  SlotProblem problem;
  problem.params = QoeParams{0.0, 0.0};
  problem.push_back(make_crf_user(100.0));
  problem.server_bandwidth = 0.5;
  DpAllocator dp(0.1);
  EXPECT_EQ(dp.allocate(problem).levels, (std::vector<QualityLevel>{1}));
}

TEST(FractionalBound, UpperBoundsBruteForce) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SlotProblem problem = random_problem(seed, 5);
    BruteForceAllocator brute;
    const double exact = brute.allocate(problem).objective;
    const double bound = fractional_upper_bound(problem);
    EXPECT_GE(bound, exact - 1e-9) << seed;
  }
}

TEST(FractionalBound, TightWhenBudgetAmple) {
  // With a huge budget there is no fractional item: bound == optimum.
  SlotProblem problem = random_problem(4, 4);
  problem.server_bandwidth = 1e6;
  BruteForceAllocator brute;
  EXPECT_NEAR(fractional_upper_bound(problem),
              brute.allocate(problem).objective, 1e-9);
}

TEST(FractionalBound, EqualsAllOnesValueWhenNoBudget) {
  SlotProblem problem = random_problem(5, 4);
  problem.server_bandwidth = 0.0;
  const std::vector<QualityLevel> ones(4, 1);
  EXPECT_NEAR(fractional_upper_bound(problem), evaluate(problem, ones), 1e-9);
}

TEST(OptimalVsGreedy, OptimalNeverLoses) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SlotProblem problem = random_problem(seed, 5);
    BruteForceAllocator brute;
    DvGreedyAllocator greedy;
    EXPECT_GE(brute.allocate(problem).objective,
              greedy.allocate(problem).objective - 1e-9)
        << seed;
  }
}

}  // namespace
}  // namespace cvr::core
