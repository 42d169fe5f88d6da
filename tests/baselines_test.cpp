#include <gtest/gtest.h>

#include "core_test_util.h"
#include "src/core/firefly.h"
#include "src/core/pavq.h"

namespace cvr::core {
namespace {

using testutil::make_crf_user;
using testutil::make_user;
using testutil::random_problem;

// ---------- Firefly AQC ----------

TEST(Firefly, StartsAtMaxIndividuallyFeasibleWhenRoomy) {
  SlotProblem problem;
  problem.params = QoeParams{0.0, 0.0};
  problem.push_back(make_crf_user(35.0));   // max feasible level 3
  problem.push_back(make_crf_user(100.0));  // max feasible level 6
  problem.server_bandwidth = 1000.0;
  FireflyAllocator firefly;
  const Allocation a = firefly.allocate(problem);
  EXPECT_EQ(a.levels[0], 3);  // rate(3)=29.9<=35, rate(4)=43.3>35
  EXPECT_EQ(a.levels[1], 6);
}

TEST(Firefly, DegradesUntilAggregateFits) {
  SlotProblem problem;
  problem.params = QoeParams{0.0, 0.0};
  for (int i = 0; i < 4; ++i) problem.push_back(make_crf_user(100.0));
  problem.server_bandwidth = 150.0;
  FireflyAllocator firefly;
  const Allocation a = firefly.allocate(problem);
  EXPECT_TRUE(server_feasible(problem, a.levels));
}

TEST(Firefly, LruRotatesDegradationPressure) {
  // Same tight problem twice: the LRU queue must not keep degrading the
  // same user — allocations should differ across consecutive slots.
  SlotProblem problem;
  problem.params = QoeParams{0.0, 0.0};
  for (int i = 0; i < 3; ++i) problem.push_back(make_crf_user(100.0));
  problem.server_bandwidth = 120.0;
  FireflyAllocator firefly;
  const Allocation first = firefly.allocate(problem);
  const Allocation second = firefly.allocate(problem);
  EXPECT_TRUE(server_feasible(problem, first.levels));
  EXPECT_TRUE(server_feasible(problem, second.levels));
  EXPECT_NE(first.levels, second.levels);
}

TEST(Firefly, ResetClearsLruState) {
  SlotProblem problem;
  problem.params = QoeParams{0.0, 0.0};
  for (int i = 0; i < 3; ++i) problem.push_back(make_crf_user(100.0));
  problem.server_bandwidth = 120.0;
  FireflyAllocator firefly;
  const Allocation first = firefly.allocate(problem);
  firefly.reset();
  const Allocation after_reset = firefly.allocate(problem);
  EXPECT_EQ(first.levels, after_reset.levels);
}

TEST(Firefly, QoeObliviousIgnoresVariancePenalty) {
  // Even with a huge beta the Firefly allocation does not change — it is
  // a heuristic that never evaluates h (the paper's critique).
  SlotProblem lo = random_problem(5, 4, 0.02, 0.0);
  SlotProblem hi = lo;
  hi.params.beta = 100.0;
  FireflyAllocator a, b;
  EXPECT_EQ(a.allocate(lo).levels, b.allocate(hi).levels);
}

TEST(Firefly, AllOnesWhenEverythingTight) {
  SlotProblem problem;
  problem.params = QoeParams{0.0, 0.0};
  problem.push_back(make_crf_user(15.0));
  problem.push_back(make_crf_user(15.0));
  problem.server_bandwidth = 20.0;
  FireflyAllocator firefly;
  EXPECT_EQ(firefly.allocate(problem).levels,
            (std::vector<QualityLevel>{1, 1}));
}

TEST(Firefly, UserCountChangeResyncsLru) {
  FireflyAllocator firefly;
  SlotProblem small = random_problem(1, 2);
  firefly.allocate(small);
  SlotProblem big = random_problem(2, 5);
  const Allocation a = firefly.allocate(big);
  EXPECT_EQ(a.levels.size(), 5u);
}

// ---------- Modified PAVQ ----------

TEST(Pavq, PerUserOptimumWhenUnconstrained) {
  // With delta < 1 the PAVQ score still assumes perfect prediction: its
  // choice must equal the argmax of h with delta forced to 1.
  SlotProblem problem;
  problem.params = QoeParams{0.1, 0.5};
  problem.push_back(make_crf_user(100.0, 0.6, 2.0, 20.0));
  problem.server_bandwidth = 1000.0;
  PavqAllocator pavq;
  const Allocation a = pavq.allocate(problem);

  UserSlotContext perfect = problem.user(0);
  perfect.success.fill(1.0);
  double best = -1e18;
  QualityLevel best_q = 1;
  for (QualityLevel q = 1; q <= kNumQualityLevels; ++q) {
    if (q > 1 && !user_feasible(perfect, q)) break;
    const double v = h_value(perfect, q, problem.params);
    if (v > best) {
      best = v;
      best_q = q;
    }
  }
  EXPECT_EQ(a.levels[0], best_q);
}

TEST(Pavq, AverageUsageConvergesToBudget) {
  // PAVQ enforces the shared constraint on long-run average via its
  // dual price: after warm-up, mean usage must sit at or below B(t).
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SlotProblem problem = random_problem(seed, 8);
    PavqAllocator pavq;
    double warm_used = 0.0;
    int counted = 0;
    for (int t = 0; t < 600; ++t) {
      const Allocation a = pavq.allocate(problem);
      if (t >= 300) {
        warm_used += total_rate(problem, a.levels);
        ++counted;
      }
    }
    EXPECT_LE(warm_used / counted, problem.server_bandwidth * 1.10) << seed;
  }
}

TEST(Pavq, PriceRisesUnderOvercommitmentAndDecaysWhenIdle) {
  SlotProblem tight = random_problem(3, 8);
  tight.server_bandwidth *= 0.4;
  PavqAllocator pavq;
  pavq.allocate(tight);
  EXPECT_GT(pavq.price(), 0.0);
  // Roomy problem: price decays back toward zero.
  SlotProblem roomy = tight;
  roomy.server_bandwidth = 1e6;
  for (int t = 0; t < 10000; ++t) pavq.allocate(roomy);
  EXPECT_DOUBLE_EQ(pavq.price(), 0.0);
}

TEST(Pavq, PriceLagsAbruptCapacityDrop) {
  // The Fig. 8 failure mode in miniature: after the budget suddenly
  // halves, PAVQ keeps violating the new budget for several slots.
  SlotProblem problem = random_problem(4, 8);
  PavqAllocator pavq;
  for (int t = 0; t < 600; ++t) pavq.allocate(problem);
  SlotProblem dropped = problem;
  dropped.server_bandwidth = problem.server_bandwidth * 0.5;
  const Allocation first = pavq.allocate(dropped);
  EXPECT_GT(total_rate(dropped, first.levels), dropped.server_bandwidth);
}

TEST(Pavq, RespectsUserConstraint) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SlotProblem problem = random_problem(seed, 8);
    PavqAllocator pavq;
    const Allocation a = pavq.allocate(problem);
    for (std::size_t n = 0; n < 8; ++n) {
      if (a.levels[n] > 1) {
        EXPECT_TRUE(user_feasible(problem, n, a.levels[n])) << seed;
      }
    }
  }
}

TEST(Pavq, VarianceAnchorsAllocationNearRunningMean) {
  // Large beta pins the choice near qbar (the mean-variability
  // trade-off that defines PAVQ).
  SlotProblem problem;
  problem.params = QoeParams{0.0, 50.0};
  problem.push_back(make_crf_user(100.0, 1.0, 3.0, 100.0));
  problem.server_bandwidth = 1000.0;
  PavqAllocator pavq;
  EXPECT_EQ(pavq.allocate(problem).levels[0], 3);
}

TEST(Pavq, TightBudgetConvergesToFit) {
  SlotProblem problem;
  problem.params = QoeParams{0.0, 0.0};
  for (int i = 0; i < 4; ++i) problem.push_back(make_crf_user(100.0));
  problem.server_bandwidth = 100.0;
  PavqAllocator pavq;
  Allocation a;
  for (int t = 0; t < 2000; ++t) a = pavq.allocate(problem);
  EXPECT_LE(total_rate(problem, a.levels), problem.server_bandwidth * 1.25);
  for (QualityLevel q : a.levels) EXPECT_GE(q, 1);
}

TEST(Pavq, BudgetBelowMinimaDrivesAllOnesEventually) {
  SlotProblem problem;
  problem.params = QoeParams{0.0, 0.0};
  problem.push_back(make_crf_user(100.0));
  problem.push_back(make_crf_user(100.0));
  problem.server_bandwidth = 1.0;
  PavqAllocator pavq;
  Allocation a;
  for (int t = 0; t < 5000; ++t) a = pavq.allocate(problem);
  EXPECT_EQ(a.levels, (std::vector<QualityLevel>{1, 1}));
}

TEST(Pavq, ResetClearsPrice) {
  SlotProblem tight = random_problem(6, 6);
  tight.server_bandwidth *= 0.3;
  PavqAllocator pavq;
  for (int t = 0; t < 100; ++t) pavq.allocate(tight);
  EXPECT_GT(pavq.price(), 0.0);
  pavq.reset();
  EXPECT_DOUBLE_EQ(pavq.price(), 0.0);
}

TEST(Pavq, IgnoresDeltaUnlikeOurAllocator) {
  // Dropping delta from 1.0 to 0.5 changes h but must not change PAVQ's
  // allocation (it was designed before FoV prediction).
  SlotProblem base = random_problem(9, 5, 0.02, 0.5);
  SlotProblem degraded = base;
  for (std::size_t n = 0; n < degraded.user_count(); ++n) {
    UserSlotContext user = degraded.user(n);
    user.success.fill(0.5);
    degraded.set_user(n, user);
  }
  PavqAllocator a, b;
  EXPECT_EQ(a.allocate(base).levels, b.allocate(degraded).levels);
}

TEST(Pavq, ObjectiveFieldMatchesEvaluate) {
  SlotProblem problem = random_problem(3, 6);
  PavqAllocator pavq;
  const Allocation a = pavq.allocate(problem);
  EXPECT_NEAR(a.objective, evaluate(problem, a.levels), 1e-9);
}

}  // namespace
}  // namespace cvr::core
