#include "src/core/lagrangian.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/core/htable.h"

namespace cvr::core {

namespace {

/// Per-user argmax of h(q) - lambda f(q), subject to (7). Ties break
/// toward the *lower* level so that usage(lambda) is right-continuous
/// and bisection lands on a feasible allocation. Reads h from the
/// per-slot table instead of recomputing it per candidate lambda.
QualityLevel best_level(const SlotProblem& problem, std::size_t n,
                        const HTable& table, double lambda) {
  QualityLevel best_q = 1;
  double best = table.value(1) - lambda * problem.rate_of(n, 1);
  for (QualityLevel q = 2; q <= kNumQualityLevels; ++q) {
    if (!user_feasible(problem, n, q)) break;  // rates increase with q
    const double v = table.value(q) - lambda * problem.rate_of(n, q);
    if (v > best + 1e-12) {
      best = v;
      best_q = q;
    }
  }
  return best_q;
}

double usage(const SlotProblem& problem, const HTableSet& tables,
             double lambda, std::vector<QualityLevel>& levels) {
  double total = 0.0;
  for (std::size_t n = 0; n < problem.user_count(); ++n) {
    levels[n] = best_level(problem, n, tables[n], lambda);
    total += problem.rate_of(n, levels[n]);
  }
  return total;
}

/// Largest marginal density over all users/levels: above this lambda
/// every user sits at level 1.
double lambda_ceiling(const SlotProblem& problem, const HTableSet& tables) {
  double ceiling = 0.0;
  for (std::size_t n = 0; n < problem.user_count(); ++n) {
    for (QualityLevel q = 1; q < kNumQualityLevels; ++q) {
      const double dr = problem.rate_of(n, q + 1) - problem.rate_of(n, q);
      if (dr <= 0.0) continue;
      ceiling = std::max(ceiling, std::abs(tables[n].increment(q)) / dr);
    }
  }
  return ceiling + 1.0;
}

}  // namespace

LagrangianAllocator::LagrangianAllocator(int iterations)
    : iterations_(std::max(1, iterations)) {}

Allocation LagrangianAllocator::allocate(const SlotProblem& problem) {
  Allocation result;
  const std::size_t n_users = problem.user_count();
  if (n_users == 0) return result;

  HTableSet tables;
  tables.build(problem);

  std::vector<QualityLevel> levels(n_users, 1);
  // lambda = 0: unconstrained optimum. Feasible? Done.
  if (usage(problem, tables, 0.0, levels) <=
      problem.server_bandwidth + kFeasibilityEpsilon) {
    result.levels = std::move(levels);
    result.objective = tables.evaluate(result.levels);
    return result;
  }

  double lo = 0.0;                              // infeasible side
  double hi = lambda_ceiling(problem, tables);  // all-ones side
  std::vector<QualityLevel> hi_levels(n_users, 1);
  if (usage(problem, tables, hi, hi_levels) >
      problem.server_bandwidth + kFeasibilityEpsilon) {
    // Even the all-ones minimum violates (6): mandatory-minimum fallback.
    result.levels.assign(n_users, 1);
    result.objective = tables.evaluate(result.levels);
    return result;
  }

  std::vector<QualityLevel> feasible = hi_levels;
  for (int i = 0; i < iterations_; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (usage(problem, tables, mid, levels) <=
        problem.server_bandwidth + kFeasibilityEpsilon) {
      feasible = levels;
      hi = mid;
    } else {
      lo = mid;
    }
  }

  // Greedy fill: the crossing lambda can drop several users' levels at
  // once (the dual's step discontinuity), leaving budget on the table.
  // Spend it on the best positive-density increments that still fit —
  // the standard Lagrangian-plus-fill refinement.
  double used = total_rate(problem, feasible);
  bool improved = true;
  while (improved) {
    improved = false;
    double best_density = 0.0;
    std::size_t best = n_users;
    for (std::size_t n = 0; n < n_users; ++n) {
      if (feasible[n] >= kNumQualityLevels) continue;
      if (!user_feasible(problem, n, feasible[n] + 1)) continue;
      const double dr = problem.rate_of(n, feasible[n] + 1) -
                        problem.rate_of(n, feasible[n]);
      if (used + dr > problem.server_bandwidth + kFeasibilityEpsilon) continue;
      const double density = tables[n].density(feasible[n]);
      if (density > best_density) {
        best_density = density;
        best = n;
      }
    }
    if (best != n_users && best_density > 0.0) {
      used += problem.rate_of(best, feasible[best] + 1) -
              problem.rate_of(best, feasible[best]);
      feasible[best] += 1;
      improved = true;
    }
  }

  result.levels = std::move(feasible);
  result.objective = tables.evaluate(result.levels);
  return result;
}

double lagrangian_dual_bound(const SlotProblem& problem, int iterations) {
  const std::size_t n_users = problem.user_count();
  if (n_users == 0) return 0.0;

  HTableSet tables;
  tables.build(problem);

  // Strictly infeasible instance (even all-ones overflows B): the dual
  // of the strict problem is -infinity, but the library's convention
  // admits the mandatory minimum — whose value is then the only
  // admissible outcome, hence also the bound.
  double min_rate = 0.0;
  for (std::size_t n = 0; n < n_users; ++n) min_rate += problem.rate_of(n, 1);
  if (min_rate > problem.server_bandwidth + kFeasibilityEpsilon) {
    return tables.evaluate(std::vector<QualityLevel>(n_users, 1));
  }

  auto dual = [&](double lambda) {
    double total = lambda * problem.server_bandwidth;
    for (std::size_t n = 0; n < n_users; ++n) {
      double best = -std::numeric_limits<double>::infinity();
      for (QualityLevel q = 1; q <= kNumQualityLevels; ++q) {
        if (q > 1 && !user_feasible(problem, n, q)) break;
        best = std::max(best,
                        tables[n].value(q) - lambda * problem.rate_of(n, q));
      }
      total += best;
    }
    return total;
  };

  // g is convex in lambda: golden-section search over [0, ceiling].
  constexpr double kGolden = 0.6180339887498949;
  double lo = 0.0;
  double hi = lambda_ceiling(problem, tables);
  double x1 = hi - kGolden * (hi - lo);
  double x2 = lo + kGolden * (hi - lo);
  double f1 = dual(x1);
  double f2 = dual(x2);
  for (int i = 0; i < iterations; ++i) {
    if (f1 <= f2) {
      hi = x2;
      x2 = x1;
      f2 = f1;
      x1 = hi - kGolden * (hi - lo);
      f1 = dual(x1);
    } else {
      lo = x1;
      x1 = x2;
      f1 = f2;
      x2 = lo + kGolden * (hi - lo);
      f2 = dual(x2);
    }
  }
  return std::min({dual(lo), f1, f2, dual(hi)});
}

}  // namespace cvr::core
