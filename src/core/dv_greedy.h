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
// The bound assumes the ascent starts from all-ones, which both passes
// always do.
//
// Complexity: the paper's plain argmax scan is O(N^2 L) per pass —
// negligible at the paper's N <= 30 but quadratic pain at hundreds of
// users. Because an increment changes only the chosen user's own
// marginal (h_n depends only on user n's state), a max-heap holding one
// entry per raisable user gives the EXACT same ascent in
// O(N + K L + (K + I) log K), where K is the number of users whose next
// level fits their own B_n (the only ones the heap ever holds —
// degrade-pinned and ramp-capped sessions stay out) and I the number of
// increments; `Strategy::kHeap` is the default. The heap is worked at
// its root: an applied increment replaces the root with the user's
// next-level entry and sifts it down once (a branch-free child pick),
// and only a retire pops. The O(K L) term finds the smallest rate step
// of those K users, which lets the pass stop as soon as even that step
// would overrun B — every entry left would only retire. The scan stays
// the paper's plain forward argmax over I — the readable reference the
// tests pin the heap against, bitwise-identical allocations between
// the two.
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
  /// kHeap's order ranks equal scores by index, and each user holds at
  /// most one entry, always scored at its current level. Both commit a
  /// step's rate only when it fits, so a rejected step leaves the
  /// running total exactly as it was. This contract is what makes the
  /// two strategies bit-identical — same levels, same objective — which
  /// the property `core.dv_scan_heap_identical` pins across 10k
  /// tie-heavy instances (duplicated users, quantized rates,
  /// boundary-exact budgets, NaN rate steps). kHeap is the default:
  /// O(N + K L + (K + I) log K) vs the scan's O(N^2 L), with the scan
  /// kept as the paper-literal reference implementation (registry name
  /// "dv-scan"), deliberately plain.
  enum class Strategy { kScan, kHeap };

  explicit DvGreedyAllocator(Mode mode = Mode::kCombined,
                             Strategy strategy = Strategy::kHeap)
      : mode_(mode), strategy_(strategy) {}

  std::string_view name() const override;

  Allocation allocate(const SlotProblem& problem) override;

  /// Allocation-free steady state: the h-tables, pass scratch, heap
  /// storage, and `out.levels` all recycle their capacity across calls
  /// (pinned by tests/slot_arena_test.cpp's counting allocator).
  void allocate_into(const SlotProblem& problem, Allocation& out) override;

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

  struct HeapEntry {
    double score;
    std::size_t user;
  };

  /// The heap order: `a` ranks below `b` when its score is lower, or
  /// equal with a larger index (ties go to the smaller index, as in the
  /// scan). Branch-free; a NaN score ranks neither below nor above.
  static bool ranks_below(const HeapEntry& a, const HeapEntry& b) {
    return (a.score < b.score) | ((a.score == b.score) & (a.user > b.user));
  }

  /// Writes `entry` into the hole at `hole` of the max-heap
  /// heap[0, size) and sifts it down until no child ranks above it.
  static void sift_down(HeapEntry* heap, std::size_t size, std::size_t hole,
                        HeapEntry entry);

  /// The heap's per-slot inputs, shared by both passes: the users
  /// raisable at level 1 (candidates_) and their smallest rate step
  /// (min_inc_).
  void find_candidates(const SlotProblem& problem);

  /// One greedy ascent over tables_; writes the resulting levels.
  void greedy_pass(const SlotProblem& problem, Rank rank,
                   std::vector<QualityLevel>& q);
  void greedy_pass_heap(const SlotProblem& problem, Rank rank,
                        std::vector<QualityLevel>& q);

  Mode mode_;
  Strategy strategy_;

  // Per-slot scratch, recycled across allocate calls. An allocator
  // instance is single-threaded by contract (the ensemble runner gives
  // each parallel cell a fresh instance).
  HTableSet tables_;
  std::vector<QualityLevel> density_levels_;
  std::vector<QualityLevel> value_levels_;
  std::vector<unsigned char> in_set_;  ///< Scan: 1 while user is in I.
  std::vector<HeapEntry> heap_;
  std::vector<std::size_t> candidates_;  ///< Heap: raisable at level 1.
  double min_inc_ = 0.0;    ///< Heap: smallest rate step of candidates_.
  double base_rate_ = 0.0;  ///< Server rate of the all-ones start.
};

}  // namespace cvr::core
