// Horizon-coupled evaluation: the original problem (1)-(3) before the
// Section-III decomposition.
//
// The variance term couples quality decisions across the whole horizon,
// which is exactly why the paper's per-slot algorithm needs eq. (8):
// "the average gap between the cumulative QoE by solving (5) over a
// finite time horizon T and the QoE by directly solving (1) converges to
// zero as T -> infinity". These helpers make that claim testable:
//
//   * horizon_optimal()    — exhaustive search over all L^(N*T) quality
//     trajectories (tiny instances only), maximising the exact QoE(T) of
//     Section II under constraints (2)-(3);
//   * horizon_sequential() — run any per-slot Allocator forward with the
//     exact Welford bookkeeping and report its realized QoE(T).
//
// Both use the deterministic delta = 1 setting (the setting of the
// paper's eq. (8) argument). The `decomposition_gap` bench sweeps T and
// shows the per-slot gap shrinking, and tests pin the inequality
// sequential <= optimal plus the shrinking trend.
#pragma once

#include <vector>

#include "src/core/allocator.h"

namespace cvr::core {

/// The horizon problem: one SlotProblem per slot t = 1..T. Users must
/// be consistent across slots (same count); the `qbar` and `weight`
/// lanes are ignored (the evaluators maintain them), and `success` is
/// forced to 1 (delta = 1).
struct HorizonProblem {
  std::vector<SlotProblem> slots;
  QoeParams params;

  std::size_t horizon() const { return slots.size(); }
  std::size_t user_count() const {
    return slots.empty() ? 0 : slots.front().user_count();
  }
};

/// Exact total QoE(T) = sum_n QoE_n(T) of a full trajectory
/// (trajectory[t][n] = level of user n in slot t), computed from the
/// Section-II definition. Throws on shape mismatches.
double horizon_qoe(const HorizonProblem& problem,
                   const std::vector<std::vector<QualityLevel>>& trajectory);

/// Exhaustive optimum of (1)-(3). Cost L^(N*T): guarded by
/// `max_combinations` (throws std::invalid_argument beyond it).
/// Returns the optimal QoE; fills `best` when non-null.
double horizon_optimal(const HorizonProblem& problem,
                       std::vector<std::vector<QualityLevel>>* best = nullptr,
                       double max_combinations = 5e7);

/// Runs `allocator` slot by slot (fresh reset), feeding it the exact
/// running qbar, and returns the realized QoE(T).
double horizon_sequential(const HorizonProblem& problem,
                          Allocator& allocator);

}  // namespace cvr::core
