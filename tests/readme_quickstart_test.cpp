// Guards the README's quickstart snippets: if this stops compiling or
// behaving, the front-page documentation is lying.
#include <gtest/gtest.h>

#include "src/cvr.h"

namespace {

TEST(ReadmeQuickstart, CoreSnippetWorksVerbatim) {
  // --- begin README snippet ---
  cvr::content::CrfRateFunction f;          // convex CRF rate curve (Fig. 1a)
  cvr::core::SlotProblem problem;
  problem.params = {/*alpha=*/0.1, /*beta=*/0.5};
  problem.server_bandwidth = 100.0;         // B(t), Mbps
  problem.push_back(cvr::core::UserSlotContext::from_rate_function(
      f, /*B_n=*/45.0, /*delta=*/0.9, /*qbar=*/3.0, /*slot=*/120.0));

  cvr::core::DvGreedyAllocator allocator;   // Algorithm 1
  auto allocation = allocator.allocate(problem);
  // --- end README snippet ---

  ASSERT_EQ(allocation.levels.size(), 1u);
  EXPECT_GE(allocation.levels[0], 1);
  EXPECT_LE(allocation.levels[0], 6);
  EXPECT_TRUE(std::isfinite(allocation.objective));
}

TEST(ReadmeQuickstart, EnsembleSnippetWorksVerbatim) {
  // --- begin README snippet (report path redirected to tmp) ---
  cvr::experiments::EnsembleSpec spec;
  spec.algorithms = {"dv", "pavq", "firefly", "lagrangian"};
  // (README shows a report_prefix; omitted here to keep the test clean.)
  spec.users = 2;
  spec.slots = 150;
  spec.repeats = 1;
  auto arms = cvr::experiments::run_ensemble(spec);
  // --- end README snippet ---
  ASSERT_EQ(arms.size(), 4u);
  for (const auto& arm : arms) {
    EXPECT_FALSE(arm.outcomes.empty());
  }
}

TEST(ReadmeQuickstart, QuickstartNumbersMatchDocumentedBehaviour) {
  // README claims DV-greedy matches the exact optimum on the quickstart
  // shape problem; pin it.
  cvr::content::CrfRateFunction f;
  cvr::core::SlotProblem problem;
  problem.params = {0.1, 0.5};
  problem.server_bandwidth = 100.0;
  for (double bandwidth : {80.0, 45.0, 25.0}) {
    problem.push_back(cvr::core::UserSlotContext::from_rate_function(
        f, bandwidth, 0.9, 3.0, 120.0));
  }
  cvr::core::DvGreedyAllocator greedy;
  cvr::core::BruteForceAllocator exact;
  EXPECT_NEAR(greedy.allocate(problem).objective,
              exact.allocate(problem).objective, 1e-9);
}

}  // namespace
