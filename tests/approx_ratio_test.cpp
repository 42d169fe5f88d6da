// Theorem 1 verification: the Density/Value-Greedy allocation achieves
// at least 1/2 of the optimum of the per-slot problem (5)-(7), across a
// broad sweep of random instances and adversarial-ish shapes.
//
// Caveat on negative objectives: the 1/2 guarantee is stated for the
// knapsack-style setting where the optimum is non-negative (level-1
// values can be negative only through the constant miss-variance term,
// which is identical across allocations). We therefore compare the
// *gain over the all-ones base allocation*, which is the quantity the
// greedy argument in the paper's proof actually bounds.
#include <gtest/gtest.h>

#include "core_test_util.h"
#include "src/core/dv_greedy.h"
#include "src/core/fractional.h"
#include "src/core/optimal.h"

namespace cvr::core {
namespace {

using testutil::paper_case_density_fails;
using testutil::paper_case_value_fails;
using testutil::random_problem;

double base_value(const SlotProblem& problem) {
  return evaluate(problem,
                  std::vector<QualityLevel>(problem.user_count(), 1));
}

class ApproxRatioSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ApproxRatioSweep, AtLeastHalfOfOptimalGain) {
  SlotProblem problem = random_problem(GetParam(), 5);
  BruteForceAllocator brute;
  DvGreedyAllocator greedy;
  const double base = base_value(problem);
  const double opt_gain = brute.allocate(problem).objective - base;
  const double greedy_gain = greedy.allocate(problem).objective - base;
  ASSERT_GE(opt_gain, -1e-9);
  EXPECT_GE(greedy_gain, 0.5 * opt_gain - 1e-9) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproxRatioSweep,
                         ::testing::Range<std::uint64_t>(1, 61));

class ApproxRatioVsDp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ApproxRatioVsDp, HoldsAtLargerScaleAgainstDp) {
  SlotProblem problem = random_problem(1000 + GetParam(), 20);
  DpAllocator dp(0.05);
  DvGreedyAllocator greedy;
  const double base = base_value(problem);
  const double opt_gain = dp.allocate(problem).objective - base;
  const double greedy_gain = greedy.allocate(problem).objective - base;
  EXPECT_GE(greedy_gain, 0.5 * opt_gain - 1e-6) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproxRatioVsDp,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(ApproxRatio, FractionalBoundCertificate) {
  // V_dv >= (V_p - base)/2 + base certifies the theorem without an exact
  // solver (V_p >= OPT); check it on bigger instances.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SlotProblem problem = random_problem(5000 + seed, 40);
    DvGreedyAllocator greedy;
    const double base = base_value(problem);
    const double bound_gain = fractional_upper_bound(problem) - base;
    const double greedy_gain = greedy.allocate(problem).objective - base;
    EXPECT_GE(greedy_gain, 0.5 * bound_gain - 1e-6) << seed;
  }
}

TEST(ApproxRatio, PaperCounterexamplesStayAboveHalf) {
  // The two Section-III cases are exactly the instances where a single
  // greedy collapses; combined must stay >= OPT/2 (it is optimal here).
  for (SlotProblem problem :
       {paper_case_density_fails(), paper_case_value_fails()}) {
    BruteForceAllocator brute;
    DvGreedyAllocator greedy;
    EXPECT_NEAR(greedy.allocate(problem).objective,
                brute.allocate(problem).objective, 1e-9);
  }
}

TEST(ApproxRatio, WorstObservedRatioReported) {
  // Track the worst gain ratio across a wide sweep; it must never dip
  // below 1/2 and in practice sits far above (the paper observes
  // near-optimal behaviour in simulation).
  double worst = 1.0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SlotProblem problem = random_problem(90000 + seed, 5);
    BruteForceAllocator brute;
    DvGreedyAllocator greedy;
    const double base = base_value(problem);
    const double opt_gain = brute.allocate(problem).objective - base;
    if (opt_gain < 1e-9) continue;
    const double ratio =
        (greedy.allocate(problem).objective - base) / opt_gain;
    worst = std::min(worst, ratio);
  }
  EXPECT_GE(worst, 0.5);
  EXPECT_GE(worst, 0.8);  // empirically near-optimal, as in Fig. 2
}

}  // namespace
}  // namespace cvr::core
