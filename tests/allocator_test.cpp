#include "src/core/allocator.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core_test_util.h"
#include "src/core/simd.h"

namespace cvr::core {
namespace {

using testutil::make_crf_user;
using testutil::make_grid_user;

SlotProblem two_user_problem() {
  SlotProblem problem;
  problem.params = QoeParams{0.0, 0.0};
  problem.push_back(make_grid_user(50.0));
  problem.push_back(make_grid_user(25.0));
  problem.server_bandwidth = 40.0;
  return problem;
}

TEST(SlotProblemLanes, PushBackAcrossTheStrideKeepsEveryLane) {
  SlotProblem problem;
  std::vector<UserSlotContext> users;
  for (std::size_t n = 0; n < 9; ++n) {
    UserSlotContext user = make_crf_user(30.0 + static_cast<double>(n),
                                         0.5 + 0.05 * static_cast<double>(n),
                                         1.5, 3.0 + static_cast<double>(n));
    user.success[2] *= 0.75;  // a per-level (loss-aware) entry
    users.push_back(user);
    problem.push_back(user);
    ASSERT_EQ(problem.user_count(), n + 1);
    ASSERT_EQ(problem.stride(), simd::padded(n + 1));
    for (std::size_t i = 0; i <= n; ++i) {
      const UserSlotContext lane = problem.user(i);
      EXPECT_EQ(lane.success, users[i].success) << n << " " << i;
      EXPECT_EQ(lane.weight, users[i].weight);
      EXPECT_EQ(lane.qbar, users[i].qbar);
      EXPECT_EQ(lane.user_bandwidth, users[i].user_bandwidth);
      EXPECT_EQ(lane.rate, users[i].rate);
      EXPECT_EQ(lane.delay, users[i].delay);
    }
  }
  problem.erase(4);
  users.erase(users.begin() + 4);
  ASSERT_EQ(problem.stride(), 8u);
  for (std::size_t i = 0; i < users.size(); ++i) {
    EXPECT_EQ(problem.user(i).rate, users[i].rate);
    EXPECT_EQ(problem.user(i).success, users[i].success);
  }
  EXPECT_THROW(problem.user(8), std::out_of_range);
}

TEST(SlotProblemLanes, ResizeRewritesEveryPadLane) {
  SlotProblem problem;
  problem.resize(7);
  for (std::size_t n = 0; n < 7; ++n) problem.set_user(n, make_grid_user(99.0));
  problem.resize(5);  // lanes 5..7 become pads again
  for (std::size_t i = 5; i < problem.stride(); ++i) {
    EXPECT_EQ(problem.weight[i], 0.0);
    EXPECT_EQ(problem.qbar[i], 0.0);
    EXPECT_EQ(problem.user_bandwidth[i], 0.0);
    for (QualityLevel q = 1; q <= kNumQualityLevels; ++q) {
      EXPECT_EQ(problem.success[problem.at(i, q)], 1.0);
      EXPECT_EQ(problem.rate[problem.at(i, q)], static_cast<double>(q));
      EXPECT_EQ(problem.delay[problem.at(i, q)], 0.0);
    }
  }
}

TEST(Evaluate, SumsPerUserH) {
  const SlotProblem problem = two_user_problem();
  // alpha = beta = 0, delta = 1 -> h(q) = q.
  EXPECT_DOUBLE_EQ(evaluate(problem, {3, 5}), 8.0);
  EXPECT_DOUBLE_EQ(evaluate(problem, {1, 1}), 2.0);
}

TEST(Evaluate, SizeMismatchThrows) {
  const SlotProblem problem = two_user_problem();
  EXPECT_THROW(evaluate(problem, {1}), std::invalid_argument);
}

TEST(TotalRate, SumsSelectedRates) {
  const SlotProblem problem = two_user_problem();
  EXPECT_DOUBLE_EQ(total_rate(problem, {1, 1}), 20.0);
  EXPECT_DOUBLE_EQ(total_rate(problem, {2, 3}), 15.0 + 22.0);
}

TEST(ServerFeasible, ChecksConstraint6) {
  const SlotProblem problem = two_user_problem();
  EXPECT_TRUE(server_feasible(problem, {1, 1}));       // 20 <= 40
  EXPECT_TRUE(server_feasible(problem, {2, 3}));       // 37 <= 40
  EXPECT_FALSE(server_feasible(problem, {3, 3}));      // 44 > 40
}

TEST(UserFeasible, ChecksConstraint7) {
  const auto user = make_grid_user(25.0);
  EXPECT_TRUE(user_feasible(user, 1));
  EXPECT_TRUE(user_feasible(user, 3));   // 22 <= 25
  EXPECT_FALSE(user_feasible(user, 4));  // 31 > 25
}

TEST(UserFeasible, BoundaryWithinEpsilon) {
  const auto user = make_grid_user(22.0);
  EXPECT_TRUE(user_feasible(user, 3));  // exactly at the cap
}

TEST(AllocationFeasible, MirrorsAllocatorContract) {
  const SlotProblem problem = two_user_problem();
  EXPECT_TRUE(allocation_feasible(problem, {1, 1}));
  EXPECT_TRUE(allocation_feasible(problem, {2, 3}));   // 37 <= 40, caps ok
  EXPECT_FALSE(allocation_feasible(problem, {3, 3}));  // 44 > 40
  EXPECT_FALSE(allocation_feasible(problem, {2, 4}));  // user 2's cap is 25
  EXPECT_FALSE(allocation_feasible(problem, {1}));     // wrong arity
  EXPECT_FALSE(allocation_feasible(problem, {0, 1}));  // invalid level
}

TEST(AllocationFeasible, AllOnesAlwaysAccepted) {
  // The mandatory minimum is allowed even when it violates the budget —
  // exactly the Allocator base-class contract.
  SlotProblem problem = two_user_problem();
  problem.server_bandwidth = 5.0;  // below the all-ones rate of 20
  EXPECT_TRUE(allocation_feasible(problem, {1, 1}));
  EXPECT_FALSE(allocation_feasible(problem, {1, 2}));
}

TEST(AllocationFeasible, BudgetBoundaryWithinEpsilon) {
  SlotProblem problem = two_user_problem();
  problem.server_bandwidth = 37.0;  // exactly the {2, 3} rate
  EXPECT_TRUE(allocation_feasible(problem, {2, 3}));
  problem.server_bandwidth = 37.0 - 1e-10;  // inside kFeasibilityEpsilon
  EXPECT_TRUE(allocation_feasible(problem, {2, 3}));
  problem.server_bandwidth = 37.0 - 1e-6;  // outside
  EXPECT_FALSE(allocation_feasible(problem, {2, 3}));
}

}  // namespace
}  // namespace cvr::core
