#include "src/core/dv_greedy.h"

#include <algorithm>
#include <vector>

namespace cvr::core {

namespace {
/// True iff the user can be raised from q to q+1 without breaking its
/// own B_n — the heap's admission test for a candidate entry.
bool raisable(const UserSlotContext& user, QualityLevel q) {
  return q < kNumQualityLevels && user_feasible(user, q + 1);
}

/// Algorithm 1's start Q = {1,...,1}: writes all-ones into `q` and
/// returns its server rate.
double seed_all_ones(const SlotProblem& problem, std::vector<QualityLevel>& q) {
  q.assign(problem.user_count(), 1);
  double used_rate = 0.0;
  for (const UserSlotContext& user : problem.users) used_rate += user.rate[0];
  return used_rate;
}
}  // namespace

std::string_view DvGreedyAllocator::name() const {
  switch (mode_) {
    case Mode::kDensityOnly:
      return "density-greedy";
    case Mode::kValueOnly:
      return "value-greedy";
    case Mode::kCombined:
      return "dv-greedy";
  }
  return "dv-greedy";
}

void DvGreedyAllocator::greedy_pass(const SlotProblem& problem, Rank rank,
                                    std::vector<QualityLevel>& q) {
  const std::size_t n_users = problem.user_count();
  double used_rate = seed_all_ones(problem, q);

  // The set I of Algorithm 1: users that may still be raised.
  in_set_.assign(n_users, 0);
  for (std::size_t n = 0; n < n_users; ++n) {
    in_set_[n] = q[n] < kNumQualityLevels;
  }

  // quality_verification(q_n, I) from Algorithm 1, applied *after* a
  // tentative increment: drop the user at the ceiling; revert and drop
  // the user whose increment broke a rate constraint.
  while (true) {
    // argmax over I of the marginal score at q_n -> q_n + 1; the first
    // strict maximum wins, so ties go to the smallest index.
    double best_score = 0.0;
    std::size_t best = n_users;
    for (std::size_t n = 0; n < n_users; ++n) {
      if (!in_set_[n]) continue;
      const double score = rank_score(tables_[n], q[n], rank);
      if (best == n_users || score > best_score) {
        best_score = score;
        best = n;
      }
    }
    // I is empty, or "if eta_{n*} < 0 then I = {}".
    if (best == n_users || best_score < 0.0) break;

    const auto& user = problem.users[best];
    const double inc = user.rate[static_cast<std::size_t>(q[best])] -
                       user.rate[static_cast<std::size_t>(q[best] - 1)];
    q[best] += 1;
    used_rate += inc;
    if (!user_feasible(user, q[best]) ||
        used_rate > problem.server_bandwidth + kFeasibilityEpsilon) {
      q[best] -= 1;
      used_rate -= inc;
      in_set_[best] = 0;
    } else if (q[best] == kNumQualityLevels) {
      in_set_[best] = 0;
    }
  }
}

void DvGreedyAllocator::greedy_pass_heap(const SlotProblem& problem, Rank rank,
                                         std::vector<QualityLevel>& q) {
  const std::size_t n_users = problem.user_count();
  double used_rate = seed_all_ones(problem, q);

  // Only users whose next level passes their own B_n (constraint (7))
  // ever hold an entry. The scan pops such a user only to revert and
  // retire it, leaving the levels unchanged, or, at a negative score,
  // to stop the pass — which the next entry in heap order, scoring no
  // higher, does too (docs/performance.md, "The service slot at
  // N ≈ 1400", has the full argument). Degrade-pinned and ramp-capped
  // sessions sit at B_n = f(cap), so at service scale most users never
  // enter the heap.
  //
  // Every user holds at most one entry, always scored at its current
  // level: an entry is pushed at the fill or right after its user's
  // previous entry was popped and applied, so no entry ever goes stale.
  // Ties break toward the smaller index, matching the scan's
  // first-strict-max; (score, user) keys are unique, so the pop order —
  // and therefore the ascent — does not depend on the heap's layout.
  // A manual push_heap/pop_heap over a recycled vector.
  const auto worse = [](const HeapEntry& a, const HeapEntry& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.user > b.user;
  };
  heap_.clear();
  for (std::size_t n = 0; n < n_users; ++n) {
    if (raisable(problem.users[n], q[n])) {
      heap_.push_back({rank_score(tables_[n], q[n], rank), n});
    }
  }
  std::make_heap(heap_.begin(), heap_.end(), worse);

  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), worse);
    const HeapEntry top = heap_.back();
    heap_.pop_back();
    if (top.score < 0.0) break;  // max score negative: stop all

    // Constraint (7) for q+1 held when the entry was pushed; only the
    // server budget (6) can still reject the increment.
    const std::size_t n = top.user;
    const auto& user = problem.users[n];
    const double inc = user.rate[static_cast<std::size_t>(q[n])] -
                       user.rate[static_cast<std::size_t>(q[n] - 1)];
    q[n] += 1;
    used_rate += inc;
    if (used_rate > problem.server_bandwidth + kFeasibilityEpsilon) {
      q[n] -= 1;
      used_rate -= inc;
      continue;  // retired: the user holds no entry any more
    }
    if (raisable(user, q[n])) {
      heap_.push_back({rank_score(tables_[n], q[n], rank), n});
      std::push_heap(heap_.begin(), heap_.end(), worse);
    }
  }
}

Allocation DvGreedyAllocator::allocate(const SlotProblem& problem) {
  Allocation result;
  allocate_into(problem, result);
  return result;
}

void DvGreedyAllocator::allocate_into(const SlotProblem& problem,
                                      Allocation& out) {
  out.levels.clear();
  out.objective = 0.0;
  if (problem.user_count() == 0) return;

  tables_.build(problem);
  const auto run_pass = [&](Rank rank, std::vector<QualityLevel>& dst) {
    if (strategy_ == Strategy::kHeap) {
      greedy_pass_heap(problem, rank, dst);
    } else {
      greedy_pass(problem, rank, dst);
    }
  };

  bool have_result = false;
  if (mode_ == Mode::kDensityOnly || mode_ == Mode::kCombined) {
    run_pass(Rank::kDensity, density_levels_);
    out.levels.assign(density_levels_.begin(), density_levels_.end());
    out.objective = tables_.evaluate(density_levels_);
    have_result = true;
  }
  if (mode_ == Mode::kValueOnly || mode_ == Mode::kCombined) {
    run_pass(Rank::kValue, value_levels_);
    const double vv = tables_.evaluate(value_levels_);
    if (!have_result || vv > out.objective) {
      out.levels.assign(value_levels_.begin(), value_levels_.end());
      out.objective = vv;
    }
  }
}

}  // namespace cvr::core
