#include "src/core/fractional.h"

#include <algorithm>

#include "src/core/htable.h"

namespace cvr::core {

double fractional_upper_bound(const SlotProblem& problem) {
  const std::size_t n_users = problem.user_count();
  HTableSet tables;
  tables.build(problem);
  std::vector<QualityLevel> q(n_users, 1);
  double value = tables.evaluate(q);
  double remaining = problem.server_bandwidth - total_rate(problem, q);
  if (remaining <= 0.0) return value;

  std::vector<bool> active(n_users, true);
  std::size_t active_count = n_users;
  while (active_count > 0 && remaining > 1e-12) {
    double best_density = 0.0;
    std::size_t best = n_users;
    for (std::size_t n = 0; n < n_users; ++n) {
      if (!active[n]) continue;
      if (q[n] >= kNumQualityLevels ||
          !user_feasible(problem, n, q[n] + 1)) {
        active[n] = false;
        --active_count;
        continue;
      }
      const double density = tables[n].density(q[n]);
      if (best == n_users || density > best_density) {
        best_density = density;
        best = n;
      }
    }
    if (best == n_users || best_density <= 0.0) break;

    const double dv = tables[best].increment(q[best]);
    const double dr =
        problem.rate_of(best, q[best] + 1) - problem.rate_of(best, q[best]);
    if (dr <= remaining) {
      value += dv;
      remaining -= dr;
      q[best] += 1;
    } else {
      // Fractional final increment: proportional share of the value.
      value += dv * remaining / dr;
      remaining = 0.0;
    }
  }
  return value;
}

}  // namespace cvr::core
