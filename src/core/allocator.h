// Allocator interface: the per-slot quality-level allocation problem
// (5)-(7) and the common contract every policy implements.
#pragma once

#include <string_view>
#include <vector>

#include "src/core/qoe.h"

namespace cvr {
class ThreadPool;
}

namespace cvr::core {

/// One slot's allocation problem: per-user contexts plus the shared
/// server throughput B(t) (constraint (6)); each user's B_n(t) lives in
/// its context (constraint (7)).
struct SlotProblem {
  std::vector<UserSlotContext> users;
  double server_bandwidth = 0.0;  ///< B(t), Mbps.
  QoeParams params;

  std::size_t user_count() const { return users.size(); }
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

  /// Offers a thread pool for WITHIN-slot parallelism (distinct from
  /// the ensemble runner's across-cell parallelism). Allocators that
  /// can partition their per-slot work into deterministic fork-join
  /// spans override this (DvGreedyAllocator parallelises its SoA table
  /// build and heap candidate fill above a user-count threshold);
  /// the default ignores the pool. The pool must outlive the allocator
  /// or be detached by passing nullptr before it is destroyed. Results
  /// must stay bit-identical to the serial path — parallelism is an
  /// execution detail, never a semantic knob.
  virtual void set_thread_pool(cvr::ThreadPool* /*pool*/) {}
};

}  // namespace cvr::core
