#include "src/core/dv_greedy.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "core_test_util.h"
#include "src/util/rng.h"
#include "src/core/optimal.h"

namespace cvr::core {
namespace {

using testutil::make_crf_user;
using testutil::paper_case_density_fails;
using testutil::paper_case_value_fails;
using testutil::random_problem;

TEST(DvGreedy, DensityOnlyFailsOnPaperCase1) {
  SlotProblem problem = paper_case_density_fails();
  DvGreedyAllocator density(DvGreedyAllocator::Mode::kDensityOnly);
  const Allocation a = density.allocate(problem);
  // Density greedy raises user A first (density 2 > 1.6), then cannot
  // afford user B's 2.5 increment.
  EXPECT_EQ(a.levels, (std::vector<QualityLevel>{2, 1}));
}

TEST(DvGreedy, ValueRescuesPaperCase1) {
  SlotProblem problem = paper_case_density_fails();
  DvGreedyAllocator value(DvGreedyAllocator::Mode::kValueOnly);
  const Allocation v = value.allocate(problem);
  EXPECT_EQ(v.levels, (std::vector<QualityLevel>{1, 2}));

  DvGreedyAllocator combined;
  const Allocation c = combined.allocate(problem);
  EXPECT_EQ(c.levels, (std::vector<QualityLevel>{1, 2}));
  EXPECT_GT(c.objective, value.allocate(problem).objective - 1e-12);
}

TEST(DvGreedy, ValueOnlyFailsOnPaperCase2) {
  SlotProblem problem = paper_case_value_fails();
  DvGreedyAllocator value(DvGreedyAllocator::Mode::kValueOnly);
  const Allocation v = value.allocate(problem);
  // Value greedy takes the big-value increment (3 at rate 2) and starves
  // the other four (each needs 0.5 but only 0 remains).
  EXPECT_EQ(v.levels, (std::vector<QualityLevel>{1, 1, 1, 1, 2}));
}

TEST(DvGreedy, DensityRescuesPaperCase2) {
  SlotProblem problem = paper_case_value_fails();
  DvGreedyAllocator density(DvGreedyAllocator::Mode::kDensityOnly);
  const Allocation d = density.allocate(problem);
  EXPECT_EQ(d.levels, (std::vector<QualityLevel>{2, 2, 2, 2, 1}));

  DvGreedyAllocator combined;
  const Allocation c = combined.allocate(problem);
  EXPECT_EQ(c.levels, (std::vector<QualityLevel>{2, 2, 2, 2, 1}));
}

TEST(DvGreedy, CombinedPicksBetterOfTwoPasses) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SlotProblem problem = random_problem(seed, 6);
    DvGreedyAllocator density(DvGreedyAllocator::Mode::kDensityOnly);
    DvGreedyAllocator value(DvGreedyAllocator::Mode::kValueOnly);
    DvGreedyAllocator combined;
    const double vd = density.allocate(problem).objective;
    const double vv = value.allocate(problem).objective;
    const double vc = combined.allocate(problem).objective;
    EXPECT_NEAR(vc, std::max(vd, vv), 1e-9) << "seed " << seed;
  }
}

TEST(DvGreedy, RespectsServerConstraint) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SlotProblem problem = random_problem(seed, 8);
    DvGreedyAllocator alloc;
    const Allocation a = alloc.allocate(problem);
    EXPECT_TRUE(server_feasible(problem, a.levels)) << "seed " << seed;
  }
}

TEST(DvGreedy, RespectsUserConstraintAboveMinimum) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SlotProblem problem = random_problem(seed, 8);
    DvGreedyAllocator alloc;
    const Allocation a = alloc.allocate(problem);
    for (std::size_t n = 0; n < problem.users.size(); ++n) {
      if (a.levels[n] > 1) {
        EXPECT_TRUE(user_feasible(problem.users[n], a.levels[n]))
            << "seed " << seed << " user " << n;
      }
    }
  }
}

TEST(DvGreedy, LevelsAlwaysValid) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SlotProblem problem = random_problem(seed, 5);
    DvGreedyAllocator alloc;
    const Allocation a = alloc.allocate(problem);
    ASSERT_EQ(a.levels.size(), 5u);
    for (QualityLevel q : a.levels) {
      EXPECT_TRUE(content::is_valid_level(q));
    }
  }
}

TEST(DvGreedy, AmpleBandwidthMaxesWhenBeneficial) {
  // One user, huge bandwidth, no penalties: take level 6.
  SlotProblem problem;
  problem.params = QoeParams{0.0, 0.0};
  problem.users.push_back(make_crf_user(1000.0, 1.0, 0.0, 1.0));
  problem.server_bandwidth = 1000.0;
  DvGreedyAllocator alloc;
  EXPECT_EQ(alloc.allocate(problem).levels,
            (std::vector<QualityLevel>{6}));
}

TEST(DvGreedy, NegativeMarginalStopsEarly) {
  // Strong variance anchor at qbar = 1 with big beta: raising quality
  // hurts, stay at level 1 despite ample bandwidth.
  SlotProblem problem;
  problem.params = QoeParams{0.0, 10.0};
  problem.users.push_back(make_crf_user(1000.0, 1.0, 1.0, 100.0));
  problem.server_bandwidth = 1000.0;
  DvGreedyAllocator alloc;
  EXPECT_EQ(alloc.allocate(problem).levels,
            (std::vector<QualityLevel>{1}));
}

TEST(DvGreedy, TightBudgetKeepsAllOnes) {
  SlotProblem problem;
  problem.params = QoeParams{0.0, 0.0};
  problem.users.push_back(make_crf_user(100.0));
  problem.users.push_back(make_crf_user(100.0));
  problem.server_bandwidth = 2.0 * 14.2;  // exactly the minima
  DvGreedyAllocator alloc;
  EXPECT_EQ(alloc.allocate(problem).levels,
            (std::vector<QualityLevel>{1, 1}));
}

TEST(DvGreedy, EvenInfeasibleMinimumReturnsAllOnes) {
  SlotProblem problem;
  problem.params = QoeParams{0.0, 0.0};
  problem.users.push_back(make_crf_user(100.0));
  problem.users.push_back(make_crf_user(100.0));
  problem.server_bandwidth = 5.0;  // below the minima
  DvGreedyAllocator alloc;
  EXPECT_EQ(alloc.allocate(problem).levels,
            (std::vector<QualityLevel>{1, 1}));
}

TEST(DvGreedy, EmptyProblem) {
  SlotProblem problem;
  problem.server_bandwidth = 100.0;
  DvGreedyAllocator alloc;
  const Allocation a = alloc.allocate(problem);
  EXPECT_TRUE(a.levels.empty());
  EXPECT_DOUBLE_EQ(a.objective, 0.0);
}

TEST(DvGreedy, ObjectiveFieldMatchesEvaluate) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SlotProblem problem = random_problem(seed, 4);
    DvGreedyAllocator alloc;
    const Allocation a = alloc.allocate(problem);
    EXPECT_NEAR(a.objective, evaluate(problem, a.levels), 1e-9);
  }
}

TEST(DvGreedy, NamesDistinguishModes) {
  EXPECT_EQ(DvGreedyAllocator{}.name(), "dv-greedy");
  EXPECT_EQ(DvGreedyAllocator{DvGreedyAllocator::Mode::kDensityOnly}.name(),
            "density-greedy");
  EXPECT_EQ(DvGreedyAllocator{DvGreedyAllocator::Mode::kValueOnly}.name(),
            "value-greedy");
}

TEST(DvGreedy, DeterministicAcrossCalls) {
  SlotProblem problem = random_problem(77, 10);
  DvGreedyAllocator alloc;
  const Allocation a = alloc.allocate(problem);
  const Allocation b = alloc.allocate(problem);
  EXPECT_EQ(a.levels, b.levels);
}

TEST(DvGreedy, NeverBelowItsAllOnesStart) {
  // The ascent starts from the mandatory minimum and only accepts
  // non-negative-marginal moves: the returned objective can never fall
  // below the all-ones value. (Note: the objective is NOT monotone in
  // delta in general — the (1-delta) qbar^2 miss-variance term moves the
  // other way — so this start-dominance is the strongest clean
  // invariant.)
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const SlotProblem problem = random_problem(seed, 6);
    const double base =
        evaluate(problem, std::vector<QualityLevel>(6, 1));
    for (auto strategy : {DvGreedyAllocator::Strategy::kScan,
                          DvGreedyAllocator::Strategy::kHeap}) {
      DvGreedyAllocator alloc(DvGreedyAllocator::Mode::kCombined, strategy);
      EXPECT_GE(alloc.allocate(problem).objective, base - 1e-9) << seed;
    }
  }
}

TEST(DvGreedyHeap, IdenticalToScanOnRandomInstances) {
  // The lazy-heap argmax must reproduce the scan's ascent EXACTLY —
  // same levels, not merely same objective — including tie-breaks.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const SlotProblem problem = random_problem(seed, 1 + seed % 25);
    for (auto mode : {DvGreedyAllocator::Mode::kDensityOnly,
                      DvGreedyAllocator::Mode::kValueOnly,
                      DvGreedyAllocator::Mode::kCombined}) {
      DvGreedyAllocator scan(mode, DvGreedyAllocator::Strategy::kScan);
      DvGreedyAllocator heap(mode, DvGreedyAllocator::Strategy::kHeap);
      EXPECT_EQ(scan.allocate(problem).levels, heap.allocate(problem).levels)
          << "seed " << seed;
    }
  }
}

TEST(DvGreedyHeap, IdenticalOnPaperCounterexamples) {
  for (SlotProblem problem :
       {paper_case_density_fails(), paper_case_value_fails()}) {
    DvGreedyAllocator scan(DvGreedyAllocator::Mode::kCombined,
                           DvGreedyAllocator::Strategy::kScan);
    DvGreedyAllocator heap(DvGreedyAllocator::Mode::kCombined,
                           DvGreedyAllocator::Strategy::kHeap);
    EXPECT_EQ(scan.allocate(problem).levels, heap.allocate(problem).levels);
  }
}

TEST(DvGreedyHeap, IdenticalOnNonConcaveLossAwareProblems) {
  // frame_loss tables can break h's concavity; the lazy-heap argument
  // does not rely on it (every active user always has exactly one fresh
  // entry in the heap), so equivalence must survive.
  for (std::uint64_t seed = 200; seed <= 215; ++seed) {
    SlotProblem problem = random_problem(seed, 6);
    cvr::Rng rng(seed);
    for (auto& user : problem.users) {
      user.frame_loss.resize(6);
      for (double& loss : user.frame_loss) loss = rng.uniform(0.0, 0.7);
    }
    DvGreedyAllocator scan(DvGreedyAllocator::Mode::kCombined,
                           DvGreedyAllocator::Strategy::kScan);
    DvGreedyAllocator heap(DvGreedyAllocator::Mode::kCombined,
                           DvGreedyAllocator::Strategy::kHeap);
    EXPECT_EQ(scan.allocate(problem).levels, heap.allocate(problem).levels)
        << seed;
  }
}

TEST(DvGreedyHeap, IdenticalUnderTightBudgets) {
  for (std::uint64_t seed = 100; seed <= 120; ++seed) {
    SlotProblem problem = random_problem(seed, 10);
    problem.server_bandwidth *= 0.5;  // lots of mid-ascent rejections
    DvGreedyAllocator scan(DvGreedyAllocator::Mode::kCombined,
                           DvGreedyAllocator::Strategy::kScan);
    DvGreedyAllocator heap(DvGreedyAllocator::Mode::kCombined,
                           DvGreedyAllocator::Strategy::kHeap);
    EXPECT_EQ(scan.allocate(problem).levels, heap.allocate(problem).levels)
        << seed;
  }
}

// --- Service scale ----------------------------------------------------
// The open-loop load service solves slots of ~1400 users, most of them
// degrade-pinned or still ramping: their B_n is clamped to f(cap), so
// the heap never admits them. These instances pin that shortcut against
// the paper-literal scan at that scale (the property generator stops at
// N <= 12).

/// N users shaped like a LoadServer slot: delays from the true B_n,
/// then `pinned_fraction` clamped to B_n = f(1), a further ~15% to a
/// ramp cap f(2..5), the rest free. The server budget sits 15% above
/// the all-ones minimum, so it binds.
SlotProblem service_scale_problem(std::uint64_t seed, std::size_t n_users,
                                  double pinned_fraction) {
  cvr::Rng rng(seed);
  SlotProblem problem;
  problem.params = QoeParams{0.1, 0.5};
  double mandatory = 0.0;
  for (std::size_t n = 0; n < n_users; ++n) {
    UserSlotContext user = make_crf_user(
        rng.uniform(48.0, 72.0), rng.uniform(0.75, 0.98),
        rng.uniform(1.0, 5.0), rng.uniform(1.0, 600.0),
        std::exp(rng.normal(0.0, 0.1)));
    const double draw = rng.uniform();
    if (draw < pinned_fraction) {
      user.user_bandwidth = user.rate[0];
    } else if (draw < pinned_fraction + 0.15) {
      const auto cap = static_cast<std::size_t>(rng.uniform_int(2, 5));
      user.user_bandwidth = std::min(user.user_bandwidth, user.rate[cap - 1]);
    }
    mandatory += user.rate[0];
    problem.users.push_back(user);
  }
  problem.server_bandwidth = 1.15 * mandatory;
  return problem;
}

void expect_heap_matches_scan(const SlotProblem& problem) {
  using Strategy = DvGreedyAllocator::Strategy;
  for (auto mode : {DvGreedyAllocator::Mode::kDensityOnly,
                    DvGreedyAllocator::Mode::kValueOnly,
                    DvGreedyAllocator::Mode::kCombined}) {
    DvGreedyAllocator scan(mode, Strategy::kScan);
    DvGreedyAllocator heap(mode, Strategy::kHeap);
    const Allocation a = scan.allocate(problem);
    const Allocation b = heap.allocate(problem);
    EXPECT_EQ(a.levels, b.levels);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.objective),
              std::bit_cast<std::uint64_t>(b.objective));
  }
}

TEST(DvGreedyServiceScale, HeapMatchesScanWithMostUsersCapped) {
  const SlotProblem problem = service_scale_problem(13, 2000, 0.7);
  // The budget binds: the free ascent would spend more than B.
  SlotProblem roomy = problem;
  roomy.server_bandwidth = 1e12;
  EXPECT_GT(total_rate(roomy, DvGreedyAllocator{}.allocate(roomy).levels),
            problem.server_bandwidth);
  expect_heap_matches_scan(problem);
}

TEST(DvGreedyServiceScale, AllCappedInstanceStaysAllOnes) {
  // Every user pinned at B_n = f(1): the heap starts empty.
  const SlotProblem problem = service_scale_problem(14, 2000, 1.0);
  const std::vector<QualityLevel> ones(problem.user_count(), 1);
  EXPECT_EQ(DvGreedyAllocator{}.allocate(problem).levels, ones);
  expect_heap_matches_scan(problem);
}

// Monotonicity sweep: more server bandwidth never lowers the objective.
class BandwidthMonotone : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BandwidthMonotone, ObjectiveNonDecreasingInBudget) {
  SlotProblem problem = random_problem(GetParam(), 6);
  DvGreedyAllocator alloc;
  double prev = -1e18;
  for (double budget_scale : {0.8, 1.0, 1.3, 1.8, 2.5}) {
    SlotProblem p = problem;
    p.server_bandwidth = problem.server_bandwidth * budget_scale;
    const double v = alloc.allocate(p).objective;
    EXPECT_GE(v, prev - 1e-9);
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BandwidthMonotone,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace cvr::core
