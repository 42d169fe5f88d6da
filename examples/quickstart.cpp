// Quickstart: build one slot of the allocation problem by hand and run
// Algorithm 1 (the Density/Value-Greedy allocator) on it.
//
//   $ ./quickstart
//
// Three users share a 100 Mbps edge server; each has its own link
// bandwidth, prediction accuracy, and viewing history. The allocator
// picks a quality level (1..6) per user maximising the per-slot QoE
// surrogate h_n under the rate constraints of eqs. (6)-(7).
#include <cstdio>

#include "src/content/rate_function.h"
#include "src/core/dv_greedy.h"
#include "src/core/optimal.h"

int main() {
  using namespace cvr;

  // The paper-calibrated convex rate function: ~36 Mbps at medium level.
  const content::CrfRateFunction rate_function;

  core::SlotProblem problem;
  problem.params = core::QoeParams{/*alpha=*/0.1, /*beta=*/0.5};
  problem.server_bandwidth = 100.0;  // B(t), Mbps

  struct UserSpec {
    const char* name;
    double bandwidth;  // B_n(t)
    double delta;      // prediction-success estimate
    double qbar;       // mean viewed quality so far
  };
  const UserSpec specs[] = {
      {"alice (stable link)", 80.0, 0.95, 4.0},
      {"bob (mid link)", 45.0, 0.90, 3.0},
      {"carol (weak link)", 25.0, 0.75, 1.5},
  };
  for (const auto& spec : specs) {
    problem.push_back(core::UserSlotContext::from_rate_function(
        rate_function, spec.bandwidth, spec.delta, spec.qbar, /*slot=*/120.0));
  }

  core::DvGreedyAllocator allocator;
  const core::Allocation allocation = allocator.allocate(problem);

  std::printf("server budget: %.0f Mbps\n\n", problem.server_bandwidth);
  double used = 0.0;
  for (std::size_t n = 0; n < problem.user_count(); ++n) {
    const auto q = allocation.levels[n];
    const double rate = problem.rate_of(n, q);
    used += rate;
    std::printf("%-20s -> level %d (CRF %2d, %5.1f Mbps, est. delay %.2f ms)\n",
                specs[n].name, q, content::crf_for_level(q), rate,
                problem.delay_of(n, q));
  }
  std::printf("\ntotal rate: %.1f / %.0f Mbps, objective sum h_n = %.3f\n",
              used, problem.server_bandwidth, allocation.objective);

  // Cross-check against the exact per-slot optimum (cheap at N = 3).
  core::BruteForceAllocator exact;
  std::printf("exact optimum objective:              %.3f\n",
              exact.allocate(problem).objective);
  return 0;
}
