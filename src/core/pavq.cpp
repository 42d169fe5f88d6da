#include "src/core/pavq.h"

#include <algorithm>

namespace cvr::core {

double PavqAllocator::score(const SmoothedInputs& inputs, double weight,
                            double qbar, QualityLevel q,
                            const QoeParams& params) {
  // PAVQ's mean-variability utility with the paper's delay modification
  // folded into mu_i^P as the user's *average measured delay*: the
  // original formulation has no delay term, so the retrofit prices delay
  // per user, not per level. The penalty is therefore flat in q — PAVQ
  // cannot see that the delay curve steepens near the capacity knee,
  // which is what Figs. 7/8 punish. delta is forced to 1 (PAVQ predates
  // FoV prediction).
  double mean_delay = 0.0;
  for (double d : inputs.delay) mean_delay += d;
  mean_delay /= static_cast<double>(inputs.delay.size());
  const double dq = static_cast<double>(q) - qbar;
  return static_cast<double>(q) - params.alpha * mean_delay -
         params.beta * weight * dq * dq;
}

const PavqAllocator::SmoothedInputs& PavqAllocator::smooth(
    const SlotProblem& problem, std::size_t n) {
  if (smoothed_.size() <= n) smoothed_.resize(n + 1);
  SmoothedInputs& s = smoothed_[n];
  if (!s.primed) {
    s.bandwidth = problem.user_bandwidth[n];
    for (std::size_t i = 0; i < s.delay.size(); ++i) {
      s.delay[i] = problem.delay_of(n, static_cast<QualityLevel>(i + 1));
    }
    s.primed = true;
  } else {
    s.bandwidth += smoothing_alpha_ * (problem.user_bandwidth[n] - s.bandwidth);
    for (std::size_t i = 0; i < s.delay.size(); ++i) {
      s.delay[i] += smoothing_alpha_ *
                    (problem.delay_of(n, static_cast<QualityLevel>(i + 1)) -
                     s.delay[i]);
    }
  }
  return s;
}

Allocation PavqAllocator::allocate(const SlotProblem& problem) {
  Allocation result;
  allocate_into(problem, result);
  return result;
}

void PavqAllocator::allocate_into(const SlotProblem& problem, Allocation& out) {
  const std::size_t n_users = problem.user_count();
  std::vector<QualityLevel>& q = out.levels;
  q.assign(n_users, 1);

  // Per-user maximisation of the price-adjusted score under B_n only
  // (evaluated on the long-run-average view of the network); the shared
  // constraint (6) is delegated to the dual price.
  for (std::size_t n = 0; n < n_users; ++n) {
    const SmoothedInputs& inputs = smooth(problem, n);
    const double weight = problem.weight[n];
    const double qbar = problem.qbar[n];
    double best = score(inputs, weight, qbar, 1, problem.params) -
                  price_ * problem.rate_of(n, 1);
    for (QualityLevel level = 2; level <= kNumQualityLevels; ++level) {
      // Constraint (7) on the smoothed B_n; rates increase.
      if (problem.rate_of(n, level) > inputs.bandwidth + kFeasibilityEpsilon) {
        break;
      }
      const double s = score(inputs, weight, qbar, level, problem.params) -
                       price_ * problem.rate_of(n, level);
      if (s > best) {
        best = s;
        q[n] = level;
      }
    }
  }

  // Subgradient price update toward the budget.
  const double used = total_rate(problem, q);
  price_ = std::max(0.0, price_ + kappa_ * (used - problem.server_bandwidth));

  out.objective = evaluate(problem, q);
}

}  // namespace cvr::core
