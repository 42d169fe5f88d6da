#include "src/core/dv_greedy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace cvr::core {

namespace {
/// True iff the user can be raised from q to q+1 without breaking its
/// own B_n — the heap's admission test for a candidate entry.
bool raisable(const UserSlotContext& user, QualityLevel q) {
  return q < kNumQualityLevels && user_feasible(user, q + 1);
}

/// f(q+1) - f(q): the server rate of raising the user from q to q+1.
double rate_step(const UserSlotContext& user, QualityLevel q) {
  return user.rate[static_cast<std::size_t>(q)] -
         user.rate[static_cast<std::size_t>(q - 1)];
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
  const double limit = problem.server_bandwidth + kFeasibilityEpsilon;
  double used_rate = seed_all_ones(problem, q);

  // The set I of Algorithm 1: users that may still be raised.
  in_set_.assign(n_users, 0);
  for (std::size_t n = 0; n < n_users; ++n) {
    in_set_[n] = q[n] < kNumQualityLevels;
  }

  // quality_verification(q_n, I) from Algorithm 1, applied to the
  // tentative increment: drop the user whose increment would break a
  // rate constraint, and the user that reaches the ceiling. The
  // tentative rate is committed only on success, so a rejected step
  // leaves used_rate exactly as it was.
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
    const double next = used_rate + rate_step(user, q[best]);
    if (!user_feasible(user, q[best] + 1) || next > limit) {
      in_set_[best] = 0;
      continue;
    }
    used_rate = next;
    q[best] += 1;
    if (q[best] == kNumQualityLevels) in_set_[best] = 0;
  }
}

void DvGreedyAllocator::sift_down(HeapEntry* heap, std::size_t size,
                                  std::size_t hole, HeapEntry entry) {
  for (std::size_t child = 2 * hole + 1; child < size;
       child = 2 * hole + 1) {
    if (child + 1 < size) child += ranks_below(heap[child], heap[child + 1]);
    if (!ranks_below(entry, heap[child])) break;
    heap[hole] = heap[child];
    hole = child;
  }
  heap[hole] = entry;
}

void DvGreedyAllocator::greedy_pass_heap(const SlotProblem& problem, Rank rank,
                                         std::vector<QualityLevel>& q) {
  const std::size_t n_users = problem.user_count();
  const double limit = problem.server_bandwidth + kFeasibilityEpsilon;
  double used_rate = seed_all_ones(problem, q);

  // Only users whose next level passes their own B_n (constraint (7))
  // ever hold an entry. The scan picks any other user only to retire
  // it, leaving the levels unchanged, or, at a negative score, to stop
  // the pass — which the next entry in heap order, scoring no higher,
  // does too (docs/performance.md, "The service slot at N ≈ 1400", has
  // the full argument). Degrade-pinned and ramp-capped sessions sit at
  // B_n = f(cap), so at service scale most users never enter the heap.
  //
  // min_inc is the smallest rate step, over all levels, of the users
  // pushed here — the only users that ever hold an entry. A NaN step
  // switches the budget cut-off below off: `used_rate + NaN > limit` is
  // false, so the ascent would apply that step.
  heap_.clear();
  double min_inc = std::numeric_limits<double>::infinity();
  for (std::size_t n = 0; n < n_users; ++n) {
    const auto& user = problem.users[n];
    if (!raisable(user, q[n])) continue;
    heap_.push_back({rank_score(tables_[n], q[n], rank), n});
    for (QualityLevel l = 1; l < kNumQualityLevels; ++l) {
      const double step = rate_step(user, l);
      min_inc = std::isnan(step) ? -std::numeric_limits<double>::infinity()
                                 : std::min(min_inc, step);
    }
  }

  // Every user holds at most one entry, always scored at its current
  // level: an applied increment overwrites its user's entry at the root
  // with the next level's score and sifts it down once; a retire, or a
  // user that is no longer raisable, pops the root. Ties break toward
  // the smaller index, matching the scan's first-strict-max; (score,
  // user) keys are unique, so the order in which the root is taken —
  // and therefore the ascent — does not depend on the heap's layout.
  HeapEntry* const heap = heap_.data();
  std::size_t size = heap_.size();
  std::make_heap(heap_.begin(), heap_.end(), ranks_below);
  const auto pop_root = [&] {
    --size;
    sift_down(heap, size, 0, heap[size]);
  };

  // The budget cut-off: once even the smallest step overruns B, every
  // entry left would retire (rounding is monotone, so
  // used_rate + inc >= used_rate + min_inc), and the levels are final.
  while (size > 0 && !(used_rate + min_inc > limit)) {
    const HeapEntry top = heap[0];
    if (top.score < 0.0) break;  // max score negative: stop all

    // Constraint (7) for q+1 held when the entry was made; only the
    // server budget (6) can still reject the increment.
    const std::size_t n = top.user;
    const auto& user = problem.users[n];
    const double next = used_rate + rate_step(user, q[n]);
    if (next > limit) {
      pop_root();  // retired: the user holds no entry any more
      continue;
    }
    used_rate = next;
    q[n] += 1;
    if (raisable(user, q[n])) {
      sift_down(heap, size, 0, {rank_score(tables_[n], q[n], rank), n});
    } else {
      pop_root();
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
