// Ablation — why Algorithm 1 runs BOTH greedy passes (Section III's two
// counterexample families): density-only and value-only each collapse on
// an adversarial family; the combined rule inherits the better of the
// two everywhere. We sweep random instances plus scaled versions of the
// paper's counterexamples and report per-variant win rates and worst
// ratios against the exact optimum.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "src/content/rate_function.h"
#include "src/core/dv_greedy.h"
#include "src/core/optimal.h"
#include "src/util/rng.h"

namespace {

using namespace cvr;
using namespace cvr::core;

SlotProblem random_problem(std::uint64_t seed, std::size_t users) {
  Rng rng(seed);
  SlotProblem problem;
  problem.params = QoeParams{rng.uniform(0.0, 0.1), rng.uniform(0.0, 1.0)};
  double total_min = 0.0;
  for (std::size_t n = 0; n < users; ++n) {
    const content::CrfRateFunction f(14.2, 1.45, rng.lognormal(0.0, 0.35));
    problem.push_back(UserSlotContext::from_rate_function(
        f, rng.uniform(20.0, 100.0), rng.uniform(0.5, 1.0),
        rng.uniform(0.0, 6.0), rng.uniform(1.0, 500.0)));
    total_min += problem.rate_of(problem.user_count() - 1, 1);
  }
  problem.server_bandwidth = total_min * rng.uniform(1.0, 2.5);
  return problem;
}

UserSlotContext table_user(const std::vector<double>& rates, double bandwidth,
                           double value_per_level) {
  UserSlotContext user;
  std::copy(rates.begin(), rates.end(), user.rate.begin());
  user.delay.fill(0.0);
  user.user_bandwidth = bandwidth;
  user.set_history(value_per_level, 0.0, 1.0);
  return user;
}

/// Section III case where density-greedy fails (scaled by `s`).
SlotProblem density_trap(double s) {
  SlotProblem problem;
  problem.params = QoeParams{0.0, 0.0};
  problem.push_back(
      table_user({0.1 * s, 0.6 * s, 100, 200, 300, 400}, 1.0 * s, 1.0));
  problem.push_back(
      table_user({0.1 * s, 2.6 * s, 100, 200, 300, 400}, 3.0 * s, 4.0));
  problem.server_bandwidth = 2.7 * s;
  return problem;
}

/// Section III case where value-greedy fails (scaled by `s`).
SlotProblem value_trap(double s) {
  SlotProblem problem;
  problem.params = QoeParams{0.0, 0.0};
  for (int i = 0; i < 4; ++i) {
    problem.push_back(
        table_user({0.1 * s, 0.6 * s, 100, 200, 300, 400}, 1.0 * s, 2.0));
  }
  problem.push_back(
      table_user({0.1 * s, 2.1 * s, 100, 200, 300, 400}, 3.0 * s, 3.0));
  problem.server_bandwidth = 2.5 * s;
  return problem;
}

struct VariantStats {
  double worst_ratio = 1.0;
  double ratio_sum = 0.0;
  std::size_t optimal_hits = 0;
};

}  // namespace

int main() {
  bench::print_header(
      "Ablation — density-only vs value-only vs combined (Algorithm 1)");

  DvGreedyAllocator density(DvGreedyAllocator::Mode::kDensityOnly);
  DvGreedyAllocator value(DvGreedyAllocator::Mode::kValueOnly);
  DvGreedyAllocator combined(DvGreedyAllocator::Mode::kCombined);
  BruteForceAllocator brute(8);
  DvGreedyAllocator* variants[] = {&density, &value, &combined};
  VariantStats stats[3];

  constexpr std::size_t kInstances = 3000;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < kInstances; ++i) {
    const SlotProblem problem = random_problem(31337 + i, 5);
    const double base = evaluate(problem, std::vector<QualityLevel>(5, 1));
    const double opt = brute.allocate(problem).objective - base;
    if (opt < 1e-9) continue;
    ++counted;
    for (int v = 0; v < 3; ++v) {
      const double gain = variants[v]->allocate(problem).objective - base;
      const double ratio = gain / opt;
      stats[v].worst_ratio = std::min(stats[v].worst_ratio, ratio);
      stats[v].ratio_sum += ratio;
      if (ratio > 1.0 - 1e-9) ++stats[v].optimal_hits;
    }
  }

  const char* names[] = {"density-only", "value-only", "combined"};
  std::printf("random instances (N=5, %zu counted):\n", counted);
  std::printf("  %-14s %12s %12s %12s\n", "variant", "worst ratio",
              "mean ratio", "optimal %");
  for (int v = 0; v < 3; ++v) {
    std::printf("  %-14s %12.4f %12.4f %11.1f%%\n", names[v],
                stats[v].worst_ratio,
                stats[v].ratio_sum / static_cast<double>(counted),
                100.0 * static_cast<double>(stats[v].optimal_hits) /
                    static_cast<double>(counted));
  }

  std::printf("\nSection III counterexample families (ratio to optimum):\n");
  std::printf("  %-22s %12s %12s %12s\n", "family", "density", "value",
              "combined");
  for (double s : {1.0, 5.0, 25.0}) {
    for (int family = 0; family < 2; ++family) {
      const SlotProblem problem = family == 0 ? density_trap(s) : value_trap(s);
      const double base = evaluate(
          problem, std::vector<QualityLevel>(problem.user_count(), 1));
      const double opt = brute.allocate(problem).objective - base;
      std::printf("  %-15s (x%4.0f)", family == 0 ? "density-trap" : "value-trap", s);
      for (auto* variant : variants) {
        std::printf(" %12.4f",
                    (variant->allocate(problem).objective - base) / opt);
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\npaper shape: each single-pass greedy drops to ~%s of optimal on its\n"
      "trap family; the combined Algorithm 1 is optimal on both\n",
      "1/4..1/2");
  return 0;
}
