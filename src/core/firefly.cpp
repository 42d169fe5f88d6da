#include "src/core/firefly.h"

#include <algorithm>

namespace cvr::core {

void FireflyAllocator::sync_lru(std::size_t users) {
  if (lru_.size() == users) return;
  lru_.clear();
  for (std::size_t n = 0; n < users; ++n) lru_.push_back(n);
}

Allocation FireflyAllocator::allocate(const SlotProblem& problem) {
  Allocation result;
  allocate_into(problem, result);
  return result;
}

void FireflyAllocator::allocate_into(const SlotProblem& problem,
                                     Allocation& out) {
  const std::size_t n_users = problem.user_count();
  sync_lru(n_users);

  // Start each user at the highest level feasible on its own link.
  std::vector<QualityLevel>& q = out.levels;
  q.assign(n_users, 1);
  for (std::size_t n = 0; n < n_users; ++n) {
    for (QualityLevel level = kNumQualityLevels; level >= 1; --level) {
      if (user_feasible(problem, n, level)) {
        q[n] = level;
        break;
      }
    }
  }

  // Degrade by LRU until the aggregate fits B(t) (or everyone is at 1).
  double used = total_rate(problem, q);
  bool any_degradable = true;
  while (used > problem.server_bandwidth + kFeasibilityEpsilon && any_degradable) {
    any_degradable = false;
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      const std::size_t n = *it;
      if (q[n] > 1) {
        used -= problem.rate_of(n, q[n]) - problem.rate_of(n, q[n] - 1);
        q[n] -= 1;
        // Degraded user becomes most-recently-touched: pressure rotates.
        lru_.splice(lru_.end(), lru_, it);
        any_degradable = true;
        break;
      }
    }
  }

  out.objective = evaluate(problem, q);
}

}  // namespace cvr::core
