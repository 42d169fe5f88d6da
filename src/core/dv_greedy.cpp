#include "src/core/dv_greedy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace cvr::core {

namespace {
/// True iff user n can be raised from q to q+1 without breaking its
/// own B_n — the heap's admission test for a candidate entry.
bool raisable(const SlotProblem& problem, std::size_t n, QualityLevel q) {
  return q < kNumQualityLevels && user_feasible(problem, n, q + 1);
}

/// f(q+1) - f(q): the server rate of raising user n from q to q+1.
double rate_step(const SlotProblem& problem, std::size_t n, QualityLevel q) {
  return problem.rate_of(n, q + 1) - problem.rate_of(n, q);
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
  q.assign(n_users, 1);
  double used_rate = base_rate_;

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

    const double next = used_rate + rate_step(problem, best, q[best]);
    if (!user_feasible(problem, best, q[best] + 1) || next > limit) {
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

void DvGreedyAllocator::find_candidates(const SlotProblem& problem) {
  // Only users whose level 2 passes their own B_n (constraint (7)) ever
  // hold an entry. The scan picks any other user only to retire it,
  // leaving the levels unchanged, or, at a negative score, to stop the
  // pass — which the next entry in heap order, scoring no higher, does
  // too (docs/performance.md, "The service slot at N ≈ 1400", has the
  // full argument). Degrade-pinned and ramp-capped sessions sit at
  // B_n = f(cap), so at service scale most users never enter the heap.
  //
  // min_inc is the smallest rate step, over all levels, of those users
  // — the only users that ever hold an entry. A NaN step switches the
  // budget cut-off off: `used_rate + NaN > limit` is false, so the
  // ascent would apply that step. Neither the candidates nor min_inc
  // depends on the rank, so both passes share them.
  const std::size_t n_users = problem.user_count();
  candidates_.clear();
  min_inc_ = std::numeric_limits<double>::infinity();
  for (std::size_t n = 0; n < n_users; ++n) {
    if (!raisable(problem, n, 1)) continue;
    candidates_.push_back(n);
    for (QualityLevel l = 1; l < kNumQualityLevels; ++l) {
      const double step = rate_step(problem, n, l);
      min_inc_ = std::isnan(step) ? -std::numeric_limits<double>::infinity()
                                  : std::min(min_inc_, step);
    }
  }
}

void DvGreedyAllocator::greedy_pass_heap(const SlotProblem& problem, Rank rank,
                                         std::vector<QualityLevel>& q) {
  const double limit = problem.server_bandwidth + kFeasibilityEpsilon;
  const double min_inc = min_inc_;
  q.assign(problem.user_count(), 1);
  double used_rate = base_rate_;

  heap_.clear();
  for (const std::size_t n : candidates_) {
    heap_.push_back({rank_score(tables_[n], 1, rank), n});
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
    const double next = used_rate + rate_step(problem, n, q[n]);
    if (next > limit) {
      pop_root();  // retired: the user holds no entry any more
      continue;
    }
    used_rate = next;
    q[n] += 1;
    if (raisable(problem, n, q[n])) {
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
  // Algorithm 1's start Q = {1,...,1} and its server rate, shared by
  // both passes (summed in user order, as each pass did).
  base_rate_ = 0.0;
  for (std::size_t n = 0; n < problem.user_count(); ++n) {
    base_rate_ += problem.rate[n];
  }
  if (strategy_ == Strategy::kHeap) find_candidates(problem);
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
