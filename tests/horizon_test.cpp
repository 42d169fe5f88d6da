#include "src/core/horizon.h"

#include <gtest/gtest.h>

#include "core_test_util.h"
#include "src/core/dv_greedy.h"
#include "src/core/optimal.h"

namespace cvr::core {
namespace {

using testutil::make_crf_user;

HorizonProblem make_problem(std::size_t horizon, std::size_t users,
                            double bandwidth = 100.0,
                            double server_budget = 200.0,
                            QoeParams params = QoeParams{0.02, 0.5}) {
  HorizonProblem problem;
  problem.params = params;
  for (std::size_t t = 0; t < horizon; ++t) {
    SlotProblem slot;
    slot.params = params;
    slot.server_bandwidth = server_budget;
    for (std::size_t n = 0; n < users; ++n) {
      slot.push_back(make_crf_user(bandwidth, 1.0, 0.0, 1.0));
    }
    problem.slots.push_back(std::move(slot));
  }
  return problem;
}

TEST(HorizonQoe, MatchesHandComputation) {
  // One user, two slots, levels {2, 4}, alpha = 0, beta = 1:
  // mean = 3, variance = 1, QoE = T * (mean - beta * var) = 2 * 2.
  HorizonProblem problem = make_problem(2, 1, 1000.0, 1000.0, {0.0, 1.0});
  const double qoe = horizon_qoe(problem, {{2}, {4}});
  EXPECT_NEAR(qoe, 2.0 * (3.0 - 1.0), 1e-12);
}

TEST(HorizonQoe, ShapeMismatchThrows) {
  HorizonProblem problem = make_problem(2, 1);
  EXPECT_THROW(horizon_qoe(problem, {{2}}), std::invalid_argument);
  EXPECT_THROW(horizon_qoe(problem, {{2, 3}, {1, 1}}), std::invalid_argument);
}

TEST(HorizonOptimal, ConstantIsBestWithoutConstraints) {
  // beta > 0, ample bandwidth, alpha = 0: the optimum is flat at the top
  // level (any variance only hurts).
  HorizonProblem problem = make_problem(3, 1, 1000.0, 1000.0, {0.0, 0.5});
  std::vector<std::vector<QualityLevel>> best;
  const double value = horizon_optimal(problem, &best);
  for (const auto& slot_levels : best) {
    EXPECT_EQ(slot_levels[0], 6);
  }
  EXPECT_NEAR(value, 3.0 * 6.0, 1e-12);
}

TEST(HorizonOptimal, RespectsPerSlotConstraints) {
  // Slot 2 has a tight server budget: the optimum cannot exceed the
  // feasible level there.
  HorizonProblem problem = make_problem(3, 1, 1000.0, 1000.0, {0.0, 0.0});
  problem.slots[1].server_bandwidth = 25.0;  // only levels 1-2 fit
  std::vector<std::vector<QualityLevel>> best;
  horizon_optimal(problem, &best);
  EXPECT_LE(best[1][0], 2);
  EXPECT_EQ(best[0][0], 6);
  EXPECT_EQ(best[2][0], 6);
}

TEST(HorizonOptimal, TooLargeThrows) {
  HorizonProblem problem = make_problem(10, 4);
  EXPECT_THROW(horizon_optimal(problem), std::invalid_argument);
}

TEST(HorizonSequential, NeverBeatsOptimal) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    HorizonProblem problem = make_problem(3, 2, 40.0 + 7.0 * seed,
                                          60.0 + 11.0 * seed);
    DvGreedyAllocator greedy;
    const double sequential = horizon_sequential(problem, greedy);
    const double optimal = horizon_optimal(problem);
    EXPECT_LE(sequential, optimal + 1e-9) << seed;
  }
}

TEST(HorizonSequential, CloseToOptimalEvenAtTinyT) {
  // The decomposition's practical quality: even where the horizon
  // coupling is strongest (small T), the per-slot DV-greedy stays within
  // a modest factor of the exhaustive optimum.
  HorizonProblem problem = make_problem(4, 1, 60.0, 60.0);
  DvGreedyAllocator greedy;
  const double sequential = horizon_sequential(problem, greedy);
  const double optimal = horizon_optimal(problem);
  ASSERT_GT(optimal, 0.0);
  EXPECT_GE(sequential, 0.75 * optimal);
}

TEST(HorizonSequential, GapPerSlotShrinksWithHorizon) {
  // Eq. (8): (1/T)(QoE_hat - QoE*) -> 0. Compare the average per-slot
  // gap at T = 2 vs T = 6 for a single user.
  DvGreedyAllocator greedy;
  auto gap_per_slot = [&](std::size_t horizon) {
    HorizonProblem problem = make_problem(horizon, 1, 45.0, 45.0);
    const double optimal = horizon_optimal(problem, nullptr, 5e7);
    const double sequential = horizon_sequential(problem, greedy);
    return (optimal - sequential) / static_cast<double>(horizon);
  };
  const double early = gap_per_slot(2);
  const double late = gap_per_slot(6);
  EXPECT_LE(late, early + 1e-9);
}

TEST(HorizonSequential, PerSlotOptimalAlsoValid) {
  HorizonProblem problem = make_problem(3, 2, 50.0, 80.0);
  BruteForceAllocator per_slot_exact;
  const double sequential = horizon_sequential(problem, per_slot_exact);
  const double optimal = horizon_optimal(problem);
  EXPECT_LE(sequential, optimal + 1e-9);
  EXPECT_GE(sequential, 0.7 * optimal);
}

TEST(Horizon, EmptyOrInconsistentThrows) {
  HorizonProblem empty;
  DvGreedyAllocator greedy;
  EXPECT_THROW(horizon_sequential(empty, greedy), std::invalid_argument);
  HorizonProblem ragged = make_problem(2, 2);
  ragged.slots[1].erase(ragged.slots[1].user_count() - 1);
  EXPECT_THROW(horizon_sequential(ragged, greedy), std::invalid_argument);
}

}  // namespace
}  // namespace cvr::core
