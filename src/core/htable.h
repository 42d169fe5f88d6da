// Precomputed per-user h-tables for the per-slot hot path, stored in
// structure-of-arrays layout and built by a SIMD kernel.
//
// Every allocator in the stack ranks candidate upgrades by h-derived
// scores: Algorithm 1's two greedy passes compare marginal densities
// eta_n(q) and marginal values v_n(q) across users on every iteration,
// the Lagrangian solver sweeps h - lambda*rate per candidate lambda, and
// the exact solvers tabulate h outright. Recomputing h_value() inside
// those loops costs O(iterations * L) redundant evaluations per slot —
// and an h_increment() is *two* full h_value() calls.
//
// HTableSet precomputes h_n(q) for all L = kNumQualityLevels levels
// once per slot and derives increments and densities by subtraction:
//
//   value(q)     = h_n(q)                       (levels 1..L)
//   increment(q) = value(q+1) - value(q)        (steps  1..L-1)
//   density(q)   = increment(q) / (rate[q] - rate[q-1])
//
// These are exactly the doubles h_value / h_increment / h_density
// produce — same inputs, same expression, same association order — so
// routing an allocator through the table is bit-identical to the direct
// path (certified by the core.htable_matches_direct proptest property
// and the existing differential oracles).
//
// Memory layout (see docs/vectorization.md): the per-user inputs are
// first gathered from the AoS SlotProblem into a SlotProblemSoA —
// level-major planes of `stride` doubles, `stride` = user count padded
// to simd::kLanes — and the kernel then evaluates h for four users per
// AVX2 instruction (scalar fallback element-for-element identical; see
// src/core/simd.h for the dispatch rules). `HTable` survives as a thin
// strided VIEW into the set's planes, so dv-greedy (scan and heap),
// fractional, lagrangian and the exact solvers consume the table
// exactly as before the SoA rework.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "src/core/allocator.h"
#include "src/core/qoe.h"
#include "src/core/simd.h"

namespace cvr {
class ThreadPool;
}

namespace cvr::core {

/// @brief Structure-of-arrays image of one slot's user contexts.
///
/// Each member is a plane (or a vector of level-major planes) of
/// `stride` doubles, where `stride` is the user count rounded up to
/// simd::kLanes. Lane `i` of plane `q-1` holds user `i`'s input for
/// level `q`; pad lanes `[n, stride)` carry inert values (success 1,
/// weight 0, strictly increasing rates) so the vector kernels can
/// process full vectors without masking — pad outputs are well-defined
/// finite numbers that nothing ever reads back.
///
/// `success` is the *effective* viewing probability
/// `UserSlotContext::effective_delta(q)` — the one h input that varies
/// per level — and `weight` is the Welford factor `(t-1)/t` (0 for the
/// first slot), hoisted out of the per-level expression because it is
/// level-invariant. Both are computed in gather() with exactly the
/// arithmetic h_value_unchecked uses, preserving bit-identity.
struct SlotProblemSoA {
  std::size_t users = 0;   ///< Real user count n.
  std::size_t stride = 0;  ///< n padded to simd::kLanes.
  std::vector<double> success;  ///< [L][stride]: effective_delta(q).
  std::vector<double> weight;   ///< [stride]: (t-1)/t, or 0 when t<=1.
  std::vector<double> qbar;     ///< [stride]: running viewed-quality mean.
  std::vector<double> rate;     ///< [L][stride]: f(q), Mbps.
  std::vector<double> delay;    ///< [L][stride]: E[d(f(q))], ms.

  /// @brief Sizes the planes for `problem` and writes the pad lanes.
  ///
  /// Capacity is retained across calls (steady-state rebuilds perform
  /// zero heap allocations once the user count stabilises — pinned by
  /// the ZeroAllocation tests). Must run before gather_range().
  void prepare(const SlotProblem& problem);

  /// @brief Gathers users [begin, end) into their lanes. Ranges are
  /// disjoint-write, so the parallel build fans this out safely.
  /// @throws std::out_of_range when a user's Section-VIII frame_loss
  ///   table is shorter than the level it is asked for (the same throw
  ///   effective_delta() performs on the direct path).
  void gather_range(const SlotProblem& problem, std::size_t begin,
                    std::size_t end);

  /// @brief prepare() + full-range gather.
  void gather(const SlotProblem& problem);

  /// @brief Fused gather + dirty tracking for user `i` (incremental
  /// rebuilds, docs/performance.md). Recomputes every input of lane `i`
  /// with exactly the gather_range() arithmetic, compares each new
  /// double *bitwise* against the plane's previous content, and stores
  /// it. Returns true iff any bit changed — the planes themselves are
  /// the fingerprint, so there is no hash to collide and a clean lane
  /// is clean by construction.
  /// @pre prepare() ran for an identical user count (planes sized).
  /// @throws std::out_of_range like gather_range() (short frame_loss).
  bool gather_user_tracked(const SlotProblem& problem, std::size_t i);
};

/// @brief One user's h-table for one slot: a thin strided view into
/// the owning HTableSet's SoA planes.
///
/// Copying an HTable copies three pointers and a stride; the view is
/// valid until the owning set's next build() (or its destruction) —
/// the same lifetime rule as SlotArena::acquire() references, and for
/// the same reason: the storage is recycled, not reallocated.
class HTable {
 public:
  HTable() = default;

  /// @brief h_n(q).
  /// @pre 1 <= q <= kNumQualityLevels (assert-only: the validated-at-
  ///   build contract means per-call checks would be redundant; see
  ///   HTableSet::build).
  double value(QualityLevel q) const {
    assert(h_ != nullptr && content::is_valid_level(q));
    return h_[static_cast<std::size_t>(q - 1) * stride_];
  }

  /// @brief Marginal value v_n(q) = h(q+1) - h(q).
  /// @pre 1 <= q < kNumQualityLevels.
  double increment(QualityLevel q) const {
    assert(increment_ != nullptr && q >= 1 && q < kNumQualityLevels);
    return increment_[static_cast<std::size_t>(q - 1) * stride_];
  }

  /// @brief Marginal density eta_n(q) = v_n(q) / (f(q+1) - f(q)).
  /// @pre 1 <= q < kNumQualityLevels.
  double density(QualityLevel q) const {
    assert(density_ != nullptr && q >= 1 && q < kNumQualityLevels);
    return density_[static_cast<std::size_t>(q - 1) * stride_];
  }

 private:
  friend class HTableSet;
  HTable(const double* h, const double* increment, const double* density,
         std::size_t stride)
      : h_(h), increment_(increment), density_(density), stride_(stride) {}

  const double* h_ = nullptr;
  const double* increment_ = nullptr;
  const double* density_ = nullptr;
  std::size_t stride_ = 0;
};

/// @brief The per-slot table set: SoA planes of h / increment / density
/// for every user, rebuilt once per slot, viewed per user via
/// operator[].
///
/// Storage is recycled across build() calls — steady-state rebuilds
/// perform zero heap allocations once the user count has stabilised
/// (enforced by the counting-operator-new tests in
/// tests/slot_arena_test.cpp).
class HTableSet {
 public:
  /// @brief Rebuilds every user's table from `problem`.
  ///
  /// Gathers the SoA image, runs the h kernel selected by
  /// simd::active_backend() (AVX2 when compiled in and the CPU has it,
  /// scalar otherwise — bit-identical either way), derives increments
  /// and densities, then validates the rate planes.
  ///
  /// Incremental rebuilds (docs/performance.md): when the previous
  /// build() on this set succeeded with the same user count and
  /// bitwise-equal QoeParams, the gather runs in fused compare+store
  /// mode and the kernel + rate validation only touch the
  /// simd::kLanes-granular lane blocks whose inputs changed. Clean
  /// lanes keep their previous outputs, which are bit-identical to a
  /// recompute because every output is a pure function of its own
  /// lane's inputs (pinned by core.htable_incremental_matches_full).
  /// Any user-count change, params change, or prior failed build falls
  /// back to the full rebuild. Membership churn needs no special case:
  /// a swapped-in user changes its lane's inputs and dirties the block.
  ///
  /// Error contract (validated-at-build): a rate table that is not
  /// strictly increasing throws std::logic_error *here*, once per
  /// slot — hoisting h_density's per-call throw out of the ascent
  /// loops. After a successful build the accessors are assert-only;
  /// on throw the set's contents are unspecified and the next build()
  /// starts fresh.
  /// @throws std::logic_error on a non-increasing rate table (the
  ///   h_density contract; NaN rate steps are NOT flagged, matching
  ///   h_density's `dr <= 0` comparison exactly).
  /// @throws std::out_of_range via SlotProblemSoA::gather on a short
  ///   frame_loss table.
  void build(const SlotProblem& problem) { build(problem, nullptr, 0); }

  /// @brief build() with optional within-slot parallelism.
  ///
  /// When `pool` is non-null and the user count is at least
  /// `parallel_min_users`, the gather + kernel work is partitioned
  /// into lane-aligned user ranges executed on the pool. Every range
  /// writes a disjoint slice of the planes and each output element is
  /// a pure function of its own lane's inputs, so the result is
  /// bit-identical to the serial build regardless of scheduling
  /// (pinned by tests/simd_test.cpp and the TSan CI leg). Exceptions
  /// from worker ranges rethrow here, lowest range first.
  void build(const SlotProblem& problem, cvr::ThreadPool* pool,
             std::size_t parallel_min_users);

  /// @brief The view of user `n`'s table; valid until the next build().
  HTable operator[](std::size_t n) const {
    assert(n < users_);
    return HTable(h_.data() + n, increment_.data() + n, density_.data() + n,
                  stride_);
  }

  std::size_t size() const { return users_; }

  /// @brief sum_n value(levels[n]) — bit-identical to core::evaluate()
  /// (same per-user doubles summed in the same order).
  /// @throws std::invalid_argument on a level-count mismatch, like
  ///   evaluate().
  double evaluate(const std::vector<QualityLevel>& levels) const;

 private:
  /// Full-rebuild body (gather + kernel over every lane + validation).
  void build_full(const SlotProblem& problem, cvr::ThreadPool* pool,
                  std::size_t parallel_min_users);
  /// Dirty-block body; pre: the incremental preconditions hold.
  void build_incremental(const SlotProblem& problem, cvr::ThreadPool* pool,
                         std::size_t parallel_min_users);
  /// Runs the backend-selected kernel on lanes [begin, end).
  void run_kernel(const QoeParams& params, std::size_t begin, std::size_t end);
  /// Throws std::logic_error on a non-increasing rate step in lanes
  /// [begin, min(end, users_)).
  void validate_rates(std::size_t begin, std::size_t end) const;

  SlotProblemSoA soa_;
  std::size_t users_ = 0;
  std::size_t stride_ = 0;
  std::vector<double> h_;          ///< [L][stride].
  std::vector<double> increment_;  ///< [L-1][stride].
  std::vector<double> density_;    ///< [L-1][stride].
  /// Incremental-rebuild state: whether the last build() completed
  /// (false while building, so a throw forces the next build full),
  /// the params it used, and the per-lane-block dirty flags (recycled).
  bool valid_ = false;
  QoeParams params_{};
  std::vector<unsigned char> dirty_;  ///< [stride / simd::kLanes].
};

namespace detail {

/// The scalar h kernel: evaluates h / increment / density planes for
/// users (lanes) [begin, end). One expression, one association order —
/// the same sequence of IEEE operations the AVX2 kernel performs
/// lane-parallel, and the same h_value_unchecked performs on the
/// direct path. `begin`/`end` need no alignment.
void build_htables_scalar(const SlotProblemSoA& soa, const QoeParams& params,
                          std::size_t begin, std::size_t end, double* h,
                          double* increment, double* density);

#if defined(CVR_HAVE_AVX2)
/// The AVX2 h kernel (htable_avx2.cpp, compiled with -mavx2).
/// @pre begin and end are multiples of simd::kLanes (plane stride is
///   padded, so full-vector loads/stores never leave the planes).
void build_htables_avx2(const SlotProblemSoA& soa, const QoeParams& params,
                        std::size_t begin, std::size_t end, double* h,
                        double* increment, double* density);
#endif

}  // namespace detail

}  // namespace cvr::core
