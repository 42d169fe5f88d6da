#include "src/core/optimal.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/core/htable.h"

namespace cvr::core {

namespace {

/// Precomputed per-user tables for the exact solvers; the h column is
/// read from the shared per-slot HTable (bit-identical to h_value).
struct Tables {
  // h[n][q-1], rate[n][q-1]; max_level[n] = highest level within B_n
  // (at least 1: the mandatory minimum).
  std::vector<std::array<double, kNumQualityLevels>> h;
  std::vector<std::array<double, kNumQualityLevels>> rate;
  std::vector<QualityLevel> max_level;
};

Tables build_tables(const SlotProblem& problem) {
  Tables t;
  const std::size_t n_users = problem.user_count();
  HTableSet htables;
  htables.build(problem);
  t.h.resize(n_users);
  t.rate.resize(n_users);
  t.max_level.resize(n_users, 1);
  for (std::size_t n = 0; n < n_users; ++n) {
    for (QualityLevel q = 1; q <= kNumQualityLevels; ++q) {
      t.h[n][q - 1] = htables[n].value(q);
      t.rate[n][q - 1] = problem.rate_of(n, q);
      if (q > 1 && user_feasible(problem, n, q)) t.max_level[n] = q;
    }
  }
  return t;
}

}  // namespace

Allocation BruteForceAllocator::allocate(const SlotProblem& problem) {
  const std::size_t n_users = problem.user_count();
  if (n_users > max_users_) {
    throw std::invalid_argument(
        "BruteForceAllocator: too many users for exhaustive search");
  }
  Allocation best;
  if (n_users == 0) return best;

  const Tables tables = build_tables(problem);

  // Suffix sums of minimum rates for budget pruning and of maximum
  // attainable h for value pruning.
  std::vector<double> min_rate_suffix(n_users + 1, 0.0);
  std::vector<double> max_h_suffix(n_users + 1, 0.0);
  for (std::size_t n = n_users; n-- > 0;) {
    min_rate_suffix[n] = min_rate_suffix[n + 1] + tables.rate[n][0];
    double best_h = tables.h[n][0];
    for (QualityLevel q = 2; q <= tables.max_level[n]; ++q) {
      best_h = std::max(best_h, tables.h[n][q - 1]);
    }
    max_h_suffix[n] = max_h_suffix[n + 1] + best_h;
  }

  std::vector<QualityLevel> q(n_users, 1);
  std::vector<QualityLevel> best_q(n_users, 1);
  double best_value = -std::numeric_limits<double>::infinity();

  // Recursive DFS with budget + bound pruning.
  auto dfs = [&](auto&& self, std::size_t depth, double used,
                 double value) -> void {
    if (value + max_h_suffix[depth] <= best_value) return;  // bound prune
    if (depth == n_users) {
      best_value = value;
      best_q = q;
      return;
    }
    for (QualityLevel level = 1; level <= tables.max_level[depth]; ++level) {
      const double r = tables.rate[depth][level - 1];
      // Level 1 is the mandatory minimum and always admitted; higher
      // levels must leave room for the remaining users' minima.
      if (level > 1 &&
          used + r + min_rate_suffix[depth + 1] >
              problem.server_bandwidth + kFeasibilityEpsilon) {
        break;  // rates increase with level
      }
      q[depth] = level;
      self(self, depth + 1, used + r, value + tables.h[depth][level - 1]);
    }
    q[depth] = 1;
  };
  dfs(dfs, 0, 0.0, 0.0);

  Allocation result;
  result.levels = std::move(best_q);
  result.objective = best_value;
  return result;
}

DpAllocator::DpAllocator(double granularity_mbps)
    : granularity_(granularity_mbps) {
  if (granularity_mbps <= 0.0) {
    throw std::invalid_argument("DpAllocator: non-positive granularity");
  }
}

Allocation DpAllocator::allocate(const SlotProblem& problem) {
  const std::size_t n_users = problem.user_count();
  Allocation result;
  if (n_users == 0) return result;

  const Tables tables = build_tables(problem);

  // Budget in grid units; rates are rounded up so results stay feasible.
  const auto units = [&](double mbps) {
    return static_cast<long>(std::ceil(mbps / granularity_ - 1e-9));
  };
  const long budget = static_cast<long>(
      std::floor(problem.server_bandwidth / granularity_ + 1e-9));

  long min_needed = 0;
  for (std::size_t n = 0; n < n_users; ++n) min_needed += units(tables.rate[n][0]);
  if (min_needed > budget) {
    // Even the mandatory minimum overflows: fall back to all-ones
    // (Allocator feasibility contract).
    result.levels.assign(n_users, 1);
    result.objective = evaluate(problem, result.levels);
    return result;
  }

  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  const std::size_t width = static_cast<std::size_t>(budget) + 1;
  std::vector<double> dp(width, kNegInf);
  dp[0] = 0.0;
  std::vector<QualityLevel> choice(n_users * width, 0);

  std::vector<double> next(width, kNegInf);
  for (std::size_t n = 0; n < n_users; ++n) {
    std::fill(next.begin(), next.end(), kNegInf);
    for (QualityLevel q = 1; q <= tables.max_level[n]; ++q) {
      const long cost = units(tables.rate[n][q - 1]);
      if (cost > budget) break;
      const double value = tables.h[n][q - 1];
      for (long b = budget; b >= cost; --b) {
        const auto prev = static_cast<std::size_t>(b - cost);
        if (dp[prev] == kNegInf) continue;
        const double candidate = dp[prev] + value;
        const auto bi = static_cast<std::size_t>(b);
        if (candidate > next[bi]) {
          next[bi] = candidate;
          choice[n * width + bi] = q;
        }
      }
    }
    dp.swap(next);
  }

  std::size_t best_b = 0;
  double best_value = kNegInf;
  for (std::size_t b = 0; b < width; ++b) {
    if (dp[b] > best_value) {
      best_value = dp[b];
      best_b = b;
    }
  }
  if (best_value == kNegInf) {
    result.levels.assign(n_users, 1);
    result.objective = evaluate(problem, result.levels);
    return result;
  }

  result.levels.assign(n_users, 1);
  std::size_t b = best_b;
  for (std::size_t n = n_users; n-- > 0;) {
    const QualityLevel q = choice[n * width + b];
    result.levels[n] = q;
    b -= static_cast<std::size_t>(units(tables.rate[n][q - 1]));
  }
  result.objective = evaluate(problem, result.levels);
  return result;
}

}  // namespace cvr::core
