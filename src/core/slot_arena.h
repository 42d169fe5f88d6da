// Recycled storage for the per-slot allocation problem.
//
// The sim loops (sim::TraceSimulation, system::SystemSim, the horizon
// solvers, system::LoadServer, fleet::FleetSim) build one SlotProblem
// per 15 ms slot. Constructing it fresh each slot heap-allocates its
// lane planes every time; the arena keeps one SlotProblem alive and
// hands it back each slot with the planes' capacity retained, so
// steady-state slot construction performs zero heap allocations. The
// producers then write each user's lane straight into those planes —
// the same planes the h-table kernels read.
#pragma once

#include <cstddef>

#include "src/core/allocator.h"

namespace cvr::core {

/// @brief Owner of one recycled SlotProblem, handed out per slot.
///
/// Ownership / recycling lifecycle (see docs/performance.md):
///  1. One arena per serving loop, living as long as the loop. Each
///     slot calls acquire(users) and fills the entries it was given.
///  2. The reference returned by acquire() is valid until the NEXT
///     acquire() call or the arena's destruction — never store it (or
///     pointers into its planes) across slots. The same rule applies
///     transitively to anything viewing the problem, e.g. the HTable
///     views an allocator built from it.
///  3. acquire() resizes the planes (SlotProblem::resize, which also
///     rewrites the pad lanes) and resets the scalar fields; every
///     real lane of every plane must be overwritten by the caller
///     (set_user() or direct plane writes) — lanes surviving a
///     same-size resize keep LAST slot's values until then, and a
///     stride change leaves them unspecified. Forgetting a plane means
///     silently replaying stale state, which is why the equivalence
///     test fills plane by plane.
///  4. A problem built in an arena is equivalent to a freshly
///     constructed SlotProblem with the same fills, and steady-state
///     reuse performs zero heap allocations — both pinned by
///     tests/slot_arena_test.cpp (arena≡fresh differential plus the
///     counting-operator-new ZeroAllocation suite, including
///     shrink/grow churn).
///
/// The arena is deliberately NOT thread-safe: a serving loop owns its
/// arena exclusively; two loops must use two arenas.
class SlotArena {
 public:
  /// @brief Returns the recycled problem sized for `users` entries,
  /// with server_bandwidth/params reset to defaults.
  ///
  /// Grows capacity on first use (or churn upward); shrinking keeps
  /// capacity, so a fluctuating population settles into the
  /// allocation-free steady state sized by its high-water mark.
  SlotProblem& acquire(std::size_t users) {
    problem_.resize(users);
    problem_.server_bandwidth = 0.0;
    problem_.params = QoeParams{};
    return problem_;
  }

  /// @brief The problem most recently handed out by acquire().
  SlotProblem& problem() { return problem_; }
  const SlotProblem& problem() const { return problem_; }

 private:
  SlotProblem problem_;
};

}  // namespace cvr::core
