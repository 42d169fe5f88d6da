#include "src/core/horizon.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace cvr::core {

namespace {

void check_shape(const HorizonProblem& problem) {
  if (problem.slots.empty()) {
    throw std::invalid_argument("HorizonProblem: empty horizon");
  }
  const std::size_t users = problem.slots.front().user_count();
  if (users == 0) {
    throw std::invalid_argument("HorizonProblem: no users");
  }
  for (const auto& slot : problem.slots) {
    if (slot.user_count() != users) {
      throw std::invalid_argument("HorizonProblem: user count varies");
    }
  }
}

/// Feasibility of one slot's levels under (2)-(3), with the library's
/// mandatory-minimum convention (all-ones always admitted).
bool slot_feasible(const SlotProblem& slot,
                   const std::vector<QualityLevel>& levels) {
  double total = 0.0;
  for (std::size_t n = 0; n < levels.size(); ++n) {
    if (levels[n] > 1 && !user_feasible(slot, n, levels[n])) return false;
    total += slot.rate_of(n, levels[n]);
  }
  bool all_ones = true;
  for (QualityLevel q : levels) {
    if (q != 1) {
      all_ones = false;
      break;
    }
  }
  return all_ones || total <= slot.server_bandwidth + kFeasibilityEpsilon;
}

}  // namespace

double horizon_qoe(const HorizonProblem& problem,
                   const std::vector<std::vector<QualityLevel>>& trajectory) {
  check_shape(problem);
  const std::size_t horizon = problem.horizon();
  const std::size_t users = problem.user_count();
  if (trajectory.size() != horizon) {
    throw std::invalid_argument("horizon_qoe: trajectory length mismatch");
  }
  double total = 0.0;
  for (std::size_t n = 0; n < users; ++n) {
    UserQoeAccumulator acc;
    for (std::size_t t = 0; t < horizon; ++t) {
      if (trajectory[t].size() != users) {
        throw std::invalid_argument("horizon_qoe: trajectory width mismatch");
      }
      const QualityLevel q = trajectory[t][n];
      acc.record(q, /*viewed=*/true, problem.slots[t].delay_of(n, q));
    }
    total += acc.average_qoe(problem.params) * static_cast<double>(horizon);
  }
  return total;
}

double horizon_optimal(const HorizonProblem& problem,
                       std::vector<std::vector<QualityLevel>>* best,
                       double max_combinations) {
  check_shape(problem);
  const std::size_t horizon = problem.horizon();
  const std::size_t users = problem.user_count();
  const double combos =
      std::pow(static_cast<double>(kNumQualityLevels),
               static_cast<double>(horizon * users));
  if (combos > max_combinations) {
    throw std::invalid_argument(
        "horizon_optimal: instance too large for exhaustive search");
  }

  std::vector<std::vector<QualityLevel>> trajectory(
      horizon, std::vector<QualityLevel>(users, 1));
  std::vector<std::vector<QualityLevel>> best_trajectory = trajectory;
  double best_value = -std::numeric_limits<double>::infinity();

  // Odometer enumeration over all (t, n) level choices, skipping
  // trajectories with an infeasible slot.
  const std::size_t digits = horizon * users;
  while (true) {
    bool feasible = true;
    for (std::size_t t = 0; t < horizon && feasible; ++t) {
      feasible = slot_feasible(problem.slots[t], trajectory[t]);
    }
    if (feasible) {
      const double value = horizon_qoe(problem, trajectory);
      if (value > best_value) {
        best_value = value;
        best_trajectory = trajectory;
      }
    }
    // Increment the odometer.
    std::size_t digit = 0;
    for (; digit < digits; ++digit) {
      QualityLevel& q = trajectory[digit / users][digit % users];
      if (q < kNumQualityLevels) {
        ++q;
        break;
      }
      q = 1;
    }
    if (digit == digits) break;
  }

  if (best != nullptr) *best = best_trajectory;
  return best_value;
}

double horizon_sequential(const HorizonProblem& problem,
                          Allocator& allocator) {
  check_shape(problem);
  const std::size_t horizon = problem.horizon();
  const std::size_t users = problem.user_count();
  allocator.reset();

  std::vector<UserQoeAccumulator> accumulators(users);
  // The working slot and allocation live outside the loop so their
  // storage is recycled — the per-slot hot path stays allocation-free
  // once capacities have stabilised (arena-style reuse, see
  // src/core/slot_arena.h).
  SlotProblem slot;
  Allocation allocation;
  for (std::size_t t = 0; t < horizon; ++t) {
    slot = problem.slots[t];
    // delta = 1 at every level, the exact running qbar, slot t + 1.
    const double weight = welford_weight(static_cast<double>(t + 1));
    for (std::size_t n = 0; n < users; ++n) {
      for (QualityLevel q = 1; q <= kNumQualityLevels; ++q) {
        slot.success[slot.at(n, q)] = 1.0;
      }
      slot.qbar[n] = accumulators[n].mean_viewed_quality();
      slot.weight[n] = weight;
    }
    allocator.allocate_into(slot, allocation);
    for (std::size_t n = 0; n < users; ++n) {
      const QualityLevel q = allocation.levels[n];
      accumulators[n].record(q, true, slot.delay_of(n, q));
    }
  }
  double total = 0.0;
  for (const auto& acc : accumulators) {
    total += acc.average_qoe(problem.params) * static_cast<double>(horizon);
  }
  return total;
}

}  // namespace cvr::core
