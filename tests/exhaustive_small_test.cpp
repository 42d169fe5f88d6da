// Exhaustive small-instance consistency: for every problem on a coarse
// grid (N <= 3 users, levels effectively capped at 4, budgets sitting
// exactly on and epsilon-inside allocation boundaries), enumerate ALL
// allocations directly and check that
//
//   * the test's own enumeration agrees with BruteForceAllocator,
//   * the scan and heap greedy ascents are bit-identical,
//   * every solver's result satisfies allocation_feasible() — the
//     kFeasibilityEpsilon contract shared across the allocator stack,
//   * the combined greedy keeps Theorem 1's half-of-optimal-gain bound.
//
// Unlike the seeded sweeps this leaves nothing to chance: every user
// combination x budget on the grid is visited.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core_test_util.h"
#include "src/content/hevc_process.h"
#include "src/core/dv_greedy.h"
#include "src/core/optimal.h"
#include "src/net/wifi_channel.h"

namespace cvr::core {
namespace {

using testutil::make_user;

// Four user shapes; levels 5-6 are priced out by rate tables (100, 200
// against bandwidth <= 4), so the effective level space is 1..4.
std::vector<UserSlotContext> user_variants() {
  return {
      // All four levels affordable; cap exactly on the level-4 rate.
      make_user({0.5, 1.0, 1.5, 2.0, 100, 200}, {0, 0, 0, 0, 0, 0}, 2.0, 1.0),
      // Cap at level 2, steeper h.
      make_user({0.5, 1.0, 1.5, 2.0, 100, 200}, {0, 0, 0, 0, 0, 0}, 1.0, 2.0),
      // Coarser rates, cap exactly on the level-3 rate.
      make_user({1.0, 2.0, 3.0, 4.0, 100, 200}, {0, 0, 0, 0, 0, 0}, 3.0, 1.0),
      // Cap epsilon-INSIDE the level-3 rate: 1.5 - 1e-10 still admits
      // level 3 under kFeasibilityEpsilon, for every solver alike.
      make_user({0.5, 1.0, 1.5, 2.0, 100, 200}, {0, 0, 0, 0, 0, 0},
                1.5 - 1e-10, 3.0),
  };
}

QualityLevel max_affordable_level(const UserSlotContext& user) {
  QualityLevel best = 1;
  for (QualityLevel q = 2; q <= kNumQualityLevels; ++q) {
    if (user_feasible(user, q)) best = q;
  }
  return best;
}

/// Reference optimum by direct enumeration of every level vector,
/// using the same allocation_feasible() oracle as the solvers.
double enumerate_optimum(const SlotProblem& problem) {
  const std::size_t n = problem.user_count();
  std::vector<QualityLevel> levels(n, 1);
  double best = evaluate(problem, levels);  // all-ones is always allowed
  while (true) {
    std::size_t i = 0;
    while (i < n && levels[i] == kNumQualityLevels) {
      levels[i] = 1;
      ++i;
    }
    if (i == n) break;
    ++levels[i];
    if (allocation_feasible(problem, levels)) {
      best = std::max(best, evaluate(problem, levels));
    }
  }
  return best;
}

/// Budgets that hit allocation boundaries exactly, sit epsilon inside
/// them, and leave headroom.
std::vector<double> budget_grid(const SlotProblem& problem) {
  double min_sum = 0.0, max_sum = 0.0, mid_sum = 0.0;
  for (std::size_t n = 0; n < problem.user_count(); ++n) {
    const UserSlotContext user = problem.user(n);
    const QualityLevel cap = max_affordable_level(user);
    min_sum += user.rate[0];
    max_sum += user.rate[static_cast<std::size_t>(cap - 1)];
    const QualityLevel mid = std::min<QualityLevel>(2, cap);
    mid_sum += user.rate[static_cast<std::size_t>(mid - 1)];
  }
  return {min_sum,
          mid_sum,                // exactly on a mixed-allocation rate
          max_sum,                // exactly on the everything-maxed rate
          max_sum - 1e-10,        // within kFeasibilityEpsilon
          max_sum - 0.25,         // strictly between grid points
          (min_sum + max_sum) / 2.0,
          min_sum * 0.5};         // even all-ones over budget
}

TEST(ExhaustiveSmall, AllSolversConsistentOnTheFullGrid) {
  const std::vector<UserSlotContext> variants = user_variants();
  const std::size_t v = variants.size();
  std::size_t problems_checked = 0;

  for (std::size_t n_users = 1; n_users <= 3; ++n_users) {
    // Odometer over variant choices for each user.
    std::vector<std::size_t> pick(n_users, 0);
    while (true) {
      SlotProblem problem;
      problem.params = QoeParams{0.0, 0.0};
      for (std::size_t u = 0; u < n_users; ++u) {
        problem.push_back(variants[pick[u]]);
      }
      for (double budget : budget_grid(problem)) {
        problem.server_bandwidth = budget;
        ++problems_checked;

        const double reference = enumerate_optimum(problem);
        BruteForceAllocator brute;
        const Allocation exact = brute.allocate(problem);
        EXPECT_NEAR(exact.objective, reference, 1e-12)
            << "brute force disagrees with direct enumeration";
        EXPECT_TRUE(allocation_feasible(problem, exact.levels));

        for (auto mode : {DvGreedyAllocator::Mode::kDensityOnly,
                          DvGreedyAllocator::Mode::kValueOnly,
                          DvGreedyAllocator::Mode::kCombined}) {
          DvGreedyAllocator scan(mode, DvGreedyAllocator::Strategy::kScan);
          DvGreedyAllocator heap(mode, DvGreedyAllocator::Strategy::kHeap);
          const Allocation s = scan.allocate(problem);
          const Allocation h = heap.allocate(problem);
          EXPECT_EQ(s.levels, h.levels) << "scan/heap diverge";
          EXPECT_EQ(s.objective, h.objective);
          EXPECT_TRUE(allocation_feasible(problem, s.levels));
          EXPECT_LE(s.objective, reference + 1e-9);
        }

        // Theorem 1 on the gain over the all-ones base.
        DvGreedyAllocator combined;
        const double base = evaluate(
            problem, std::vector<QualityLevel>(problem.user_count(), 1));
        const double opt_gain = reference - base;
        const double greedy_gain =
            combined.allocate(problem).objective - base;
        EXPECT_GE(opt_gain, -1e-12);
        EXPECT_GE(greedy_gain, 0.5 * opt_gain - 1e-9);

        // The DP (rates rounded up to its grid) must stay feasible and
        // can never beat the true optimum.
        DpAllocator dp(0.25);
        const Allocation dp_result = dp.allocate(problem);
        EXPECT_TRUE(allocation_feasible(problem, dp_result.levels));
        EXPECT_LE(dp_result.objective, reference + 1e-9);
      }

      std::size_t i = 0;
      while (i < n_users && pick[i] == v - 1) {
        pick[i] = 0;
        ++i;
      }
      if (i == n_users) break;
      ++pick[i];
    }
  }
  // 4 + 16 + 64 variant combinations x 7 budgets each.
  EXPECT_EQ(problems_checked, (4u + 16u + 64u) * 7u);
}

// --- Workload-pack contention grid ------------------------------------
//
// Same philosophy as the allocator grid above: visit EVERY cell of a
// coarse parameter grid (stations 1..4 x MCS {5, 7} x GoP {1, 8, 32})
// and compare the library's closed forms against brute-force reference
// implementations written independently here (explicit sums and loops,
// no shared helpers).

/// Brute-force airtime share: uniform split of the post-overhead air.
double brute_force_share(const net::WifiContentionConfig& config,
                         std::size_t stations) {
  const double overhead =
      std::min(config.max_overhead,
               config.contention_overhead *
                   static_cast<double>(stations - 1));
  return (1.0 - overhead) / static_cast<double>(stations);
}

/// Brute-force MAC efficiency: expected transmissions by explicit
/// summation over the retry chain instead of the closed form.
double brute_force_efficiency(const net::WifiContentionConfig& config,
                              int mcs) {
  const double p = std::min(
      0.5, config.base_error_rate * std::pow(config.error_growth, mcs));
  double delivery = 0.0;
  double expected_tx = 0.0;
  for (std::size_t attempt = 0; attempt <= config.max_retries; ++attempt) {
    delivery += std::pow(p, attempt) * (1.0 - p);
    expected_tx += std::pow(p, attempt);
  }
  const double airtime =
      expected_tx * (1.0 + config.retry_airtime_overhead * (expected_tx - 1.0));
  return delivery / airtime;
}

/// Brute-force structural HEVC multiplier straight from the mean-1
/// constraint: solve I = R * P and I + (G-1) * P = G directly.
double brute_force_structural(const content::HevcProcessConfig& config,
                              std::size_t frame_in_gop) {
  const double g = static_cast<double>(config.gop_length);
  const double p = g / (config.i_frame_ratio + g - 1.0);
  return frame_in_gop == 0 ? config.i_frame_ratio * p : p;
}

TEST(ExhaustiveSmall, ContentionGridMatchesBruteForce) {
  std::size_t cells_checked = 0;
  for (std::size_t stations = 1; stations <= 4; ++stations) {
    for (int mcs : {5, 7}) {
      for (std::size_t gop : {1u, 8u, 32u}) {
        net::WifiContentionConfig wifi;
        wifi.enabled = true;
        wifi.mcs_pool = {mcs};  // uniform pool: every station at `mcs`
        wifi.collision_prob_per_station = 0.0;  // isolate the closed forms
        content::HevcProcessConfig hevc;
        hevc.enabled = true;
        hevc.gop_length = gop;
        hevc.size_sigma = 0.0;  // isolate the structural pattern
        ++cells_checked;

        // Airtime shares against the brute-force split.
        const auto shares = net::wifi_airtime_shares(wifi, stations);
        ASSERT_EQ(stations, shares.size());
        for (double s : shares) {
          EXPECT_DOUBLE_EQ(brute_force_share(wifi, stations), s);
        }

        // MAC efficiency closed form against the explicit retry sum.
        EXPECT_NEAR(brute_force_efficiency(wifi, mcs),
                    net::wifi_mac_efficiency(wifi, mcs), 1e-12);

        // A collision-free channel must sit exactly on the clear-air
        // capacities for every station, every slot.
        const double clear = brute_force_share(wifi, stations) *
                             net::wifi_phy_rate_mbps(mcs) *
                             net::wifi_mac_efficiency(wifi, mcs);
        net::WifiContentionChannel channel(wifi, stations, 7);
        for (int t = 0; t < 8; ++t) {
          channel.step();
          double sum = 0.0;
          for (std::size_t s = 0; s < stations; ++s) {
            EXPECT_DOUBLE_EQ(clear, channel.station_capacity_mbps(s));
            sum += channel.station_capacity_mbps(s);
          }
          EXPECT_DOUBLE_EQ(sum, channel.aggregate_capacity_mbps());
        }

        // Jitter-free HEVC must replay the brute-force structural
        // pattern over three full GoPs, and each GoP must sum to G.
        content::HevcFrameProcess process(hevc, 7);
        double gop_sum = 0.0;
        for (std::size_t t = 0; t < 3 * gop; ++t) {
          const double m = process.step();
          EXPECT_DOUBLE_EQ(brute_force_structural(hevc, t % gop), m);
          gop_sum += m;
          if ((t + 1) % gop == 0) {
            EXPECT_NEAR(static_cast<double>(gop), gop_sum, 1e-9);
            gop_sum = 0.0;
          }
        }
      }
    }
  }
  EXPECT_EQ(cells_checked, 4u * 2u * 3u);
}

}  // namespace
}  // namespace cvr::core
