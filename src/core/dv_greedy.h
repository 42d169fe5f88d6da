// Algorithm 1: the Density/Value-Greedy quality-level allocator.
//
// Section III. Two greedy ascents from the all-ones allocation:
//   * density pass — repeatedly raise by one level the user with the
//     largest eta_n = (h(q+1) - h(q)) / (f(q+1) - f(q));
//   * value pass — same but ranked by v_n = h(q+1) - h(q);
// each pass stops a user when it hits level L, violates its own B_n, or
// would violate the server's B(t) (quality_verification), and stops
// entirely when the best marginal is negative. The better of the two
// allocations is returned.
//
// Theorem 1: the result is at least 1/2 of the optimum of (5)-(7); the
// bench `theorem1_approx_ratio` verifies this against an exact solver.
// The bound assumes the ascent starts from all-ones — see the
// warm-start ablation note below.
//
// Complexity: the paper's plain argmax scan is O(N^2 L) per pass —
// negligible at the paper's N <= 30 but quadratic pain at hundreds of
// users. Because an increment changes only the chosen user's own
// marginal (h_n depends only on user n's state), a max-heap holding one
// entry per raisable user gives the EXACT same ascent in
// O(N + (K + I) log K), where K is the number of users whose next level
// fits their own B_n (the only ones the heap ever holds — degrade-pinned
// and ramp-capped sessions stay out) and I the number of increments;
// `Strategy::kHeap` is the default. The scan stays the paper's plain
// forward argmax over I — the readable reference the tests pin the
// heap against, bitwise-identical allocations between the two.
//
// Both strategies read their marginal scores from a per-slot HTable
// (src/core/htable.h) precomputed in O(N L) by the SoA/SIMD kernel —
// no h_value is recomputed inside the ascent, and the steady-state
// path performs zero heap allocations (scratch and table storage
// recycle their capacity).
#pragma once

#include <vector>

#include "src/core/allocator.h"
#include "src/core/htable.h"

namespace cvr::core {

class DvGreedyAllocator final : public Allocator {
 public:
  /// Which passes to run — the ablation bench compares the variants.
  enum class Mode { kDensityOnly, kValueOnly, kCombined };

  /// Argmax implementation; identical results, different complexity.
  ///
  /// Tie-break contract: when several users share the best marginal
  /// score, the ascent raises the user with the SMALLEST index. kScan
  /// keeps the first strict maximum of a plain forward scan over I;
  /// kHeap's comparator orders equal scores by index,
  /// and each user holds at most one entry, always scored at its
  /// current level. This contract is what makes the two
  /// strategies bit-identical — same levels, same objective — which the
  /// property `core.dv_scan_heap_identical` pins across 10k tie-heavy
  /// instances (duplicated users, quantized rates, boundary-exact
  /// budgets). kHeap is the default: O(N + (K + I) log K) vs the scan's
  /// O(N^2 L), with the scan kept as the paper-literal reference
  /// implementation (registry name "dv-scan"), deliberately plain.
  enum class Strategy { kScan, kHeap };

  /// Users-per-slot at or above which a pool attached via
  /// set_thread_pool() is actually used; below it the serial path is
  /// always cheaper than the fan-out.
  static constexpr std::size_t kDefaultParallelMinUsers = 1024;

  /// @param warm_start Enables the warm-start ABLATION (registry name
  ///   "dv-warm"): each slot's ascent is seeded from the previous
  ///   slot's allocation (repaired to feasibility) instead of from
  ///   all-ones. Theorem 1's ½-gain proof conditions on the all-ones
  ///   start, so the formal bound is FORFEITED in this mode — the
  ///   result is still feasible and, on a repeated identical problem,
  ///   never worse than the cold objective (both pinned by
  ///   tests/dv_greedy_test.cpp); docs/vectorization.md discusses when
  ///   the trade is worth it.
  explicit DvGreedyAllocator(Mode mode = Mode::kCombined,
                             Strategy strategy = Strategy::kHeap,
                             bool warm_start = false)
      : mode_(mode), strategy_(strategy), warm_start_(warm_start) {}

  std::string_view name() const override;

  Allocation allocate(const SlotProblem& problem) override;

  /// Allocation-free steady state: the h-tables, pass scratch, heap
  /// storage, and `out.levels` all recycle their capacity across calls
  /// (pinned by tests/slot_arena_test.cpp's counting allocator).
  /// The within-slot parallel path (pool attached AND user count >=
  /// the parallel threshold) is exempt: it allocates futures per slot.
  void allocate_into(const SlotProblem& problem, Allocation& out) override;

  /// Borrows `pool` for within-slot parallelism: the SoA table build
  /// and the heap candidate fill partition the users into disjoint
  /// lane-aligned ranges, so results stay bit-identical to the serial
  /// path (TSan CI leg + tests/simd_test.cpp). Engaged only when
  /// user_count >= the threshold below.
  void set_thread_pool(cvr::ThreadPool* pool) override { pool_ = pool; }

  /// Test hook: lowers the parallel engagement threshold so the
  /// parallel path is exercised at unit-test problem sizes.
  void set_parallel_min_users(std::size_t n) { parallel_min_users_ = n; }

  /// Clears warm-start memory (cross-slot state); the next slot seeds
  /// cold from all-ones.
  void reset() override { prev_levels_.clear(); }

 private:
  enum class Rank { kDensity, kValue };

  /// The one rank-dispatch point both strategies share: the marginal
  /// score of raising this user from q to q+1, read from the table.
  /// Static dispatch — `rank` is a compile-time-known branch in every
  /// caller's loop, and both arms are single strided loads from the
  /// SoA planes (density = increment / rate-step, both precomputed).
  static double rank_score(const HTable& table, QualityLevel q, Rank rank) {
    return rank == Rank::kDensity ? table.density(q) : table.increment(q);
  }

  /// Writes the pass's starting levels into `q` and returns the used
  /// server rate. Cold: all-ones. Warm (warm_start_ AND the previous
  /// slot had the same user count): the previous allocation clamped to
  /// per-user feasibility, then repaired to the server budget by
  /// peeling the lowest-ranked increments (ties to the smallest index).
  double seed_levels(const SlotProblem& problem, Rank rank,
                     std::vector<QualityLevel>& q);

  /// One greedy ascent over tables_; writes the resulting levels.
  void greedy_pass(const SlotProblem& problem, Rank rank,
                   std::vector<QualityLevel>& q);
  void greedy_pass_heap(const SlotProblem& problem, Rank rank,
                        std::vector<QualityLevel>& q);

  Mode mode_;
  Strategy strategy_;
  bool warm_start_;
  cvr::ThreadPool* pool_ = nullptr;
  std::size_t parallel_min_users_ = kDefaultParallelMinUsers;

  // Per-slot scratch, recycled across allocate calls. An allocator
  // instance is single-threaded by contract (the ensemble runner gives
  // each parallel cell a fresh instance); an attached pool is used
  // only for fork-join spans inside one allocate call.
  struct HeapEntry {
    double score;
    std::size_t user;
  };
  HTableSet tables_;
  std::vector<QualityLevel> density_levels_;
  std::vector<QualityLevel> value_levels_;
  std::vector<QualityLevel> prev_levels_;  ///< Warm-start seed.
  std::vector<unsigned char> in_set_;  ///< Scan: 1 while user is in I.
  std::vector<HeapEntry> heap_;
};

}  // namespace cvr::core
