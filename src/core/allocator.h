// Allocator interface: the per-slot quality-level allocation problem
// (5)-(7) and the common contract every policy implements.
#pragma once

#include <string_view>
#include <vector>

#include "src/core/qoe.h"

namespace cvr::core {

/// One slot's allocation problem (5)-(7), stored as lane planes: the
/// shared server throughput B(t) (constraint (6)) and, per user, one
/// lane of each plane below — its B_n(t) (constraint (7)) among them.
///
/// Each plane holds `stride()` doubles per level (level-major for the
/// per-level planes): `stride()` is the user count rounded up to
/// simd::kLanes, and lane `n` of level row `q-1` is user n's input for
/// level q. These planes are what the h-table kernels read
/// (src/core/htable.h); there is no second, per-user representation.
/// Producers write lanes directly — the hot loops through the public
/// planes, everything else through set_user()/push_back() with a
/// by-value UserSlotContext (one lane's values).
///
/// Pad lanes [user_count(), stride()) carry inert values (success 1,
/// weight 0, qbar 0, delay 0, B_n 0 and the strictly increasing rates
/// 1..L) so the vector kernels process full vectors without masking;
/// resize() rewrites them on every call, so a pad lane never carries a
/// former user's values.
struct SlotProblem {
  double server_bandwidth = 0.0;  ///< B(t), Mbps.
  QoeParams params;

  std::vector<double> success;         ///< [L][stride]: P(level-q viewed).
  std::vector<double> weight;          ///< [stride]: welford_weight(t).
  std::vector<double> qbar;            ///< [stride]: qbar_n(t-1).
  std::vector<double> rate;            ///< [L][stride]: f(q), Mbps.
  std::vector<double> delay;           ///< [L][stride]: E[d(f(q))], ms.
  std::vector<double> user_bandwidth;  ///< [stride]: B_n(t), Mbps.

  std::size_t user_count() const { return users_; }
  std::size_t stride() const { return stride_; }

  /// Sizes the planes for `users` lanes and writes the pad lanes. The
  /// real lanes' contents are unspecified until written: when the
  /// stride changes, the planes are re-laid out without preserving
  /// anything. Capacity is retained, so a recurring size costs no heap
  /// allocation.
  void resize(std::size_t users);

  /// Writes user n's lane from a by-value context.
  void set_user(std::size_t n, const UserSlotContext& user);

  /// Appends one user, keeping every existing lane (re-lays the planes
  /// out when the stride grows).
  void push_back(const UserSlotContext& user);

  /// Removes user n; the users after it move down one lane.
  void erase(std::size_t n);

  /// User n's lane, by value.
  UserSlotContext user(std::size_t n) const;

  /// Flat index of user n's level-q entry in a per-level plane.
  std::size_t at(std::size_t n, QualityLevel q) const {
    return static_cast<std::size_t>(q - 1) * stride_ + n;
  }
  /// f(q) of user n.
  double rate_of(std::size_t n, QualityLevel q) const { return rate[at(n, q)]; }
  /// E[d(f(q))] of user n.
  double delay_of(std::size_t n, QualityLevel q) const {
    return delay[at(n, q)];
  }

 private:
  std::size_t users_ = 0;
  std::size_t stride_ = 0;
};

/// An allocation: one quality level per user plus its objective value
/// sum_n h_n(q_n).
struct Allocation {
  std::vector<QualityLevel> levels;
  double objective = 0.0;
};

/// Objective value sum_n h_n(q_n) of an allocation.
double evaluate(const SlotProblem& problem,
                const std::vector<QualityLevel>& levels);

/// Total server rate sum_n f(q_n).
double total_rate(const SlotProblem& problem,
                  const std::vector<QualityLevel>& levels);

/// True iff the allocation satisfies the *server* constraint (6).
/// Constraint (7) is checked per user by user_feasible(). Note that the
/// all-ones base allocation is always accepted (see Allocator docs).
bool server_feasible(const SlotProblem& problem,
                     const std::vector<QualityLevel>& levels);

/// True iff f(q) <= B_n for this user (constraint (7)).
bool user_feasible(const UserSlotContext& user, QualityLevel q);

/// True iff f(q) <= B_n for user n of `problem` (constraint (7)).
inline bool user_feasible(const SlotProblem& problem, std::size_t n,
                          QualityLevel q) {
  return problem.rate_of(n, q) <=
         problem.user_bandwidth[n] + kFeasibilityEpsilon;
}

/// h_n(q) of user n, evaluated from its lane — the scalar reference
/// the h-table kernels are pinned against (bit-identical).
inline double h_value(const SlotProblem& problem, std::size_t n,
                      QualityLevel q) {
  const std::size_t i = problem.at(n, q);
  return detail::h_lane(problem.success[i], problem.weight[n],
                        problem.qbar[n], static_cast<double>(q),
                        problem.delay[i], problem.params);
}

/// Full feasibility oracle for differential tests: every level valid,
/// every non-minimum level within its user's B_n, and — unless the
/// allocation is the all-ones mandatory minimum — the server budget (6)
/// holds. Mirrors the Allocator feasibility contract below.
bool allocation_feasible(const SlotProblem& problem,
                         const std::vector<QualityLevel>& levels);

/// Base class for all quality-level allocation policies. Allocators may
/// keep cross-slot state (e.g. Firefly's LRU queue); reset() clears it
/// between independent runs.
///
/// Feasibility contract: allocators never go below the all-ones
/// allocation — level 1 is the mandatory minimum (a user must receive
/// *some* content every slot; Algorithm 1 initialises Q = {1,...,1}).
/// When even all-ones exceeds the caps, the QoE simply absorbs the
/// saturated delay penalty, mirroring the real system.
class Allocator {
 public:
  virtual ~Allocator() = default;

  virtual std::string_view name() const = 0;

  /// Solves one slot. Must return exactly problem.user_count() levels,
  /// each in [1, kNumQualityLevels].
  virtual Allocation allocate(const SlotProblem& problem) = 0;

  /// Solves one slot into `out`, recycling its storage (the levels
  /// vector keeps its capacity across calls). Semantically identical to
  /// `out = allocate(problem)`; hot-path allocators override this to
  /// stay heap-allocation-free in steady state, and the sim loops call
  /// it with a long-lived Allocation.
  virtual void allocate_into(const SlotProblem& problem, Allocation& out) {
    out = allocate(problem);
  }

  /// Clears any cross-slot state. Default: none.
  virtual void reset() {}
};

}  // namespace cvr::core
