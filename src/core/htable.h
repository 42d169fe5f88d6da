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
// Memory layout (see docs/vectorization.md): the SlotProblem IS the
// kernel input — level-major lane planes of `stride` doubles, `stride`
// = user count padded to simd::kLanes, written by the producers
// themselves, with no gather in between — and the kernel evaluates h
// for four users per AVX2 instruction (scalar fallback
// element-for-element identical; see src/core/simd.h for the dispatch
// rules). The same pass checks that every rate step is positive.
// `HTable` is a thin strided VIEW into the set's output planes, which
// dv-greedy (scan and heap), fractional, lagrangian and the exact
// solvers read.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "src/core/allocator.h"
#include "src/core/qoe.h"
#include "src/core/simd.h"

namespace cvr::core {

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
  /// Runs the h kernel selected by simd::active_backend() (AVX2 when
  /// compiled in and the CPU has it, scalar otherwise — bit-identical
  /// either way) over every lane of the problem's planes, deriving
  /// increments and densities and, in the same pass, checking each rate
  /// step.
  /// Every lane is recomputed on every build: the Welford weight
  /// (t-1)/t is an input of every lane and the slot index advances
  /// every slot, so no lane's inputs repeat (docs/performance.md).
  ///
  /// Error contract (validated-at-build): a rate table that is not
  /// strictly increasing throws std::logic_error *here*, once per
  /// slot — hoisting h_density's per-call throw out of the ascent
  /// loops. The kernels accumulate the ordered compare `dr <= 0` over
  /// every lane as they divide by dr; pad lanes hold strictly
  /// increasing rates (SlotProblem::resize), so only a real lane can
  /// flag. After a successful build the accessors are assert-only;
  /// on throw the set's contents are unspecified until the next
  /// successful build().
  /// @throws std::logic_error on a non-increasing rate table (the
  ///   h_density contract; NaN rate steps are NOT flagged, matching
  ///   h_density's `dr <= 0` comparison exactly).
  void build(const SlotProblem& problem);

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
  std::size_t users_ = 0;
  std::size_t stride_ = 0;
  std::vector<double> h_;          ///< [L][stride].
  std::vector<double> increment_;  ///< [L-1][stride].
  std::vector<double> density_;    ///< [L-1][stride].
};

namespace detail {

/// The scalar h kernel: evaluates the h / increment / density planes
/// for every lane [0, problem.stride()), pad lanes included. One
/// expression, one association order — the same sequence of IEEE
/// operations the AVX2 kernel performs lane-parallel, and the same
/// detail::h_lane performs on the direct path. Returns true when some
/// lane has a rate step with `dr <= 0` (ordered: a NaN step is not
/// flagged).
bool build_htables_scalar(const SlotProblem& problem, double* h,
                          double* increment, double* density);

#if defined(CVR_HAVE_AVX2)
/// The AVX2 h kernel (htable_avx2.cpp, compiled with -mavx2). The
/// plane stride is padded to simd::kLanes, so full-vector loads and
/// stores never leave the planes. Same return value as the scalar
/// kernel.
bool build_htables_avx2(const SlotProblem& problem, double* h,
                        double* increment, double* density);
#endif

}  // namespace detail

}  // namespace cvr::core
