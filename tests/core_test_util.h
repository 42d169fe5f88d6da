// Shared helpers for the core allocator tests: hand-built and random
// SlotProblem instances.
#pragma once

#include <algorithm>
#include <vector>

#include "src/content/rate_function.h"
#include "src/core/allocator.h"
#include "src/util/rng.h"

namespace cvr::core::testutil {

/// A user context with explicit per-level rate/delay tables (exactly
/// kNumQualityLevels entries each — the tables are fixed-size arrays).
inline UserSlotContext make_user(const std::vector<double>& rates,
                                 const std::vector<double>& delays,
                                 double user_bandwidth, double delta = 1.0,
                                 double qbar = 0.0, double slot = 1.0) {
  UserSlotContext user;
  std::copy(rates.begin(), rates.end(), user.rate.begin());
  std::copy(delays.begin(), delays.end(), user.delay.begin());
  user.user_bandwidth = user_bandwidth;
  user.set_history(delta, qbar, slot);
  return user;
}

/// The linear-h workhorse of the allocator unit tests: rate table
/// {10, 15, 22, 31, 44, 60}, zero delays, so h(q) = delta * q whenever
/// alpha = beta = 0.
inline UserSlotContext make_grid_user(double user_bandwidth,
                                      double delta = 1.0) {
  return make_user({10, 15, 22, 31, 44, 60}, {0, 0, 0, 0, 0, 0},
                   user_bandwidth, delta);
}

/// A user built from the paper-calibrated CRF rate function and the
/// analytic M/M/1 delay, like the Section-IV simulator does.
inline UserSlotContext make_crf_user(double user_bandwidth, double delta = 1.0,
                                     double qbar = 0.0, double slot = 1.0,
                                     double scale = 1.0) {
  const content::CrfRateFunction f(14.2, 1.45, scale);
  return UserSlotContext::from_rate_function(f, user_bandwidth, delta, qbar,
                                             slot);
}

// --- The two counterexample families from Section III. ---
//
// The paper's examples use abstract h tables; we encode them with
// two-level "rate functions" padded to six levels whose upper levels
// are priced out by the per-user bandwidth so only levels 1-2 matter.
// delta encodes the h values: h(q) = delta * q. Shared by
// dv_greedy_test.cpp (which checks the failing single-pass allocations)
// and approx_ratio_test.cpp (which checks combined stays >= OPT/2).

/// Case 1 (density-greedy fails): user A's increment has density
/// 1/0.5 = 2, user B's has density 4/2.5 = 1.6, but only user B's
/// increment fits the residual budget (2.5 of 2.7 after minima).
inline SlotProblem paper_case_density_fails() {
  SlotProblem problem;
  problem.params = QoeParams{0.0, 0.0};
  problem.push_back(make_user({0.1, 0.6, 100, 200, 300, 400},
                                    {0, 0, 0, 0, 0, 0}, 1.0, 1.0));
  problem.push_back(make_user({0.1, 2.6, 100, 200, 300, 400},
                                    {0, 0, 0, 0, 0, 0}, 3.0, 4.0));
  problem.server_bandwidth = 2.7;  // minima 0.2 + residual 2.5
  return problem;
}

/// Case 2 (value-greedy fails): four users with h-increment 2 at rate
/// 0.5 each, one user with h-increment 3 at rate 2; residual budget 2.
inline SlotProblem paper_case_value_fails() {
  SlotProblem problem;
  problem.params = QoeParams{0.0, 0.0};
  for (int i = 0; i < 4; ++i) {
    problem.push_back(make_user({0.1, 0.6, 100, 200, 300, 400},
                                      {0, 0, 0, 0, 0, 0}, 1.0, 2.0));
  }
  problem.push_back(make_user({0.1, 2.1, 100, 200, 300, 400},
                                    {0, 0, 0, 0, 0, 0}, 3.0, 3.0));
  problem.server_bandwidth = 0.5 + 2.0;  // minima 0.5 + residual 2
  return problem;
}

/// Random feasible-ish problem for property sweeps. Deterministic in
/// `seed`. Mix of deltas, qbars, slots, per-content scales, bandwidths.
inline SlotProblem random_problem(std::uint64_t seed, std::size_t users,
                                  double alpha = 0.02, double beta = 0.5) {
  cvr::Rng rng(seed);
  SlotProblem problem;
  problem.params = QoeParams{alpha, beta};
  double total_min_rate = 0.0;
  for (std::size_t n = 0; n < users; ++n) {
    const double scale = rng.lognormal(0.0, 0.25);
    const double bandwidth = rng.uniform(20.0, 100.0);
    const double delta = rng.uniform(0.6, 1.0);
    const double qbar = rng.uniform(0.0, 6.0);
    const double slot = rng.uniform(1.0, 500.0);
    problem.push_back(make_crf_user(bandwidth, delta, qbar, slot, scale));
    total_min_rate += problem.rate_of(n, 1);
  }
  // Server budget between "tight" and "roomy".
  problem.server_bandwidth = total_min_rate * rng.uniform(1.0, 3.5);
  return problem;
}

}  // namespace cvr::core::testutil
