// Allocator conformance battery, run over EVERY registry entry: the
// contract any policy must satisfy to plug into the simulators. A new
// allocator gets this entire suite for free by registering its name.
#include <gtest/gtest.h>

#include <cmath>

#include "core_test_util.h"
#include "src/core/registry.h"

namespace cvr::core {
namespace {

using testutil::random_problem;

class AllocatorConformance : public ::testing::TestWithParam<std::string> {
 protected:
  // Exact solvers are exponential/pseudo-polynomial: keep N small.
  std::size_t users_for(const std::string& name) const {
    return (name == "optimal") ? 5 : 8;
  }
};

TEST_P(AllocatorConformance, ReturnsValidLevelsForEveryUser) {
  auto allocator = make_allocator(GetParam());
  ASSERT_NE(allocator, nullptr);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const SlotProblem problem = random_problem(seed, users_for(GetParam()));
    const Allocation a = allocator->allocate(problem);
    ASSERT_EQ(a.levels.size(), problem.user_count());
    for (QualityLevel q : a.levels) {
      EXPECT_TRUE(content::is_valid_level(q)) << GetParam();
    }
    EXPECT_TRUE(std::isfinite(a.objective)) << GetParam();
  }
}

TEST_P(AllocatorConformance, ObjectiveMatchesEvaluate) {
  auto allocator = make_allocator(GetParam());
  const SlotProblem problem = random_problem(3, users_for(GetParam()));
  const Allocation a = allocator->allocate(problem);
  EXPECT_NEAR(a.objective, evaluate(problem, a.levels), 1e-9) << GetParam();
}

TEST_P(AllocatorConformance, RespectsUserConstraintAboveMinimum) {
  auto allocator = make_allocator(GetParam());
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const SlotProblem problem = random_problem(seed, users_for(GetParam()));
    const Allocation a = allocator->allocate(problem);
    for (std::size_t n = 0; n < problem.user_count(); ++n) {
      if (a.levels[n] > 1) {
        EXPECT_TRUE(user_feasible(problem, n, a.levels[n]))
            << GetParam() << " seed " << seed;
      }
    }
  }
}

TEST_P(AllocatorConformance, FreshInstancesAgree) {
  // Same inputs, fresh state -> same outputs (determinism).
  const SlotProblem problem = random_problem(9, users_for(GetParam()));
  auto a = make_allocator(GetParam());
  auto b = make_allocator(GetParam());
  EXPECT_EQ(a->allocate(problem).levels, b->allocate(problem).levels)
      << GetParam();
}

TEST_P(AllocatorConformance, ResetRestoresInitialBehaviour) {
  const SlotProblem problem = random_problem(11, users_for(GetParam()));
  auto allocator = make_allocator(GetParam());
  const auto first = allocator->allocate(problem).levels;
  for (int i = 0; i < 25; ++i) allocator->allocate(problem);
  allocator->reset();
  EXPECT_EQ(allocator->allocate(problem).levels, first) << GetParam();
}

TEST_P(AllocatorConformance, ConvergesToMandatoryMinimumUnderStarvation) {
  // Budget below even the all-ones minimum: every policy must settle at
  // the mandatory minimum. Stateless policies do so immediately; PAVQ's
  // dual price needs slots to climb, so we give every allocator the
  // same (generous) convergence budget and judge the steady state.
  auto allocator = make_allocator(GetParam());
  SlotProblem problem = random_problem(13, 1);
  problem.server_bandwidth = 1.0;  // below even the minimum
  Allocation a;
  for (int t = 0; t < 20000; ++t) a = allocator->allocate(problem);
  ASSERT_EQ(a.levels.size(), 1u);
  EXPECT_EQ(a.levels[0], 1) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Registry, AllocatorConformance,
                         ::testing::ValuesIn(allocator_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace cvr::core
