// A fleet of K edge servers with failover (docs/fleet.md).
//
// The paper solves one edge server's per-slot knapsack; the roadmap's
// north star needs a *fleet*: K servers, each running its own
// SlotArena/allocate_into hot path over its members with a local budget,
// under a controller that splits the backhaul budget B across servers
// and owns the user -> server assignment (consistent-hash sharded, with
// a mirrored mode for comparison). The radio access network stays keyed
// by user — migrating a user moves their compute, never their router.
//
// Failure model (faults::FaultType server scope):
//   * kServerCrash — the server's in-memory per-user state is wiped and
//     its members are orphaned. Orphans re-enter through the existing
//     AdmissionController via a retry queue with exponential backoff and
//     deterministic jitter (bounded attempts, per-user timeout, then the
//     user is lost). Carried state — the delta_bar tallies, viewed-
//     quality mean, bandwidth EMA, last pose, watchdog flags — crosses
//     in a proto::UserHandoff frame, so a re-admitted user's quality
//     trajectory continues instead of restarting cold. Survivors absorb
//     the load through the constraint-(7) degrade ladder (level cap 1,
//     ramped back up) rather than collapsing.
//   * kServerRecover — truncates the first covering crash window; the
//     server rejoins cold and becomes eligible for assignments again.
//   * kFleetPartition — the server keeps serving its members on a
//     frozen budget, but no users migrate in or out and rebalancing
//     skips it.
//
// Determinism: the run is a pure function of (config, seed, repeat) —
// assignment, checkpoints, backoff jitter and admission are all
// deterministic, and the shared measurement RNG is consumed in exactly
// the order SystemSim consumes it. Each server's slot is the same
// system::step_server SystemSim runs (src/system/slot_pipeline.h), so a
// K=1 fleet with an empty schedule is bit-identical to SystemSim
// (FleetK1.* in tests/fleet_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/allocator.h"
#include "src/fleet/assignment.h"
#include "src/fleet/backoff.h"
#include "src/sim/metrics.h"
#include "src/system/admission.h"
#include "src/system/system_sim.h"
#include "src/system/timeline.h"
#include "src/telemetry/telemetry.h"

namespace cvr::fleet {

/// How users map onto edge servers.
enum class AssignmentMode {
  /// Consistent-hash sharding: one owner per user; on crash, orphans
  /// queue for re-admission at the ring's next eligible server.
  kShardedHash,
  /// Sharded ownership plus a warm standby: checkpoints are replicated
  /// to the ring backup, which attempts re-admission at the crash slot
  /// itself (no backoff delay for the first attempt).
  kMirrored,
};

/// How the controller splits the backhaul budget B across the alive,
/// unpartitioned servers each slot.
enum class BudgetPolicy {
  kEqual,              ///< B / |alive & unpartitioned|.
  kProportionalUsers,  ///< Proportional to current member counts.
};

/// A scripted live migration (healthy source and destination): at
/// `slot`, `user`'s state is exported, crosses the wire format, and is
/// imported at `to_server`. The state-carry equivalence test is built
/// on these.
struct PlannedMigration {
  std::size_t slot = 0;
  std::size_t user = 0;
  std::size_t to_server = 0;
};

struct FleetConfig {
  system::SystemSimConfig base;  ///< World, access network, faults, seed.
  std::size_t servers = 1;       ///< K.
  AssignmentMode assignment = AssignmentMode::kShardedHash;
  BudgetPolicy budget = BudgetPolicy::kEqual;
  /// Total backhaul budget B (Mbps) split across servers; 0 derives the
  /// single-server nominal (router_aggregate_mbps x routers), which is
  /// what makes the K=1 fleet's constraint (6) identical to SystemSim.
  double backhaul_mbps = 0.0;
  BackoffPolicy backoff;
  system::AdmissionPolicyConfig admission;
  /// Every k-th slot each user's carried state is checkpointed (encoded
  /// through the wire format) so a crash has a frame to fail over with;
  /// the frame is up to k slots stale. Only active when servers > 1.
  std::size_t checkpoint_period_slots = 16;
  std::size_t ring_vnodes = 64;  ///< Virtual nodes per server.
  /// Degrade-admitted users re-enter pinned to level 1; the cap rises
  /// one level every this-many slots until released (the constraint-(7)
  /// ramp, same mechanism as the load service's degrade ladder).
  std::size_t ramp_slots_per_level = 33;
  std::vector<PlannedMigration> planned_migrations;
  /// Must be 1: every server's slot runs serially on the calling thread
  /// (docs/fleet.md, "Serial by design"). The field is kept only so
  /// perfbench/ still builds; removing it belongs to a benchmark change.
  std::size_t threads = 1;
};

/// Per-server accounting for one run.
struct FleetServerStats {
  std::size_t served_user_slots = 0;  ///< Sum over slots of member count.
  double mean_budget_mbps = 0.0;      ///< Mean per-slot budget share.
  /// Mean of (sum of members' allocated rates) / budget over the slots
  /// the server was alive with a positive budget.
  double mean_utilization = 0.0;
};

/// Fleet-level accounting for one run (all deterministic; the fleet_
/// telemetry counters mirror the event counts).
struct FleetStats {
  std::size_t crashes = 0;
  std::size_t recoveries = 0;
  std::size_t migrations = 0;       ///< Successful re-admissions + planned.
  std::size_t handoff_frames = 0;   ///< UserHandoff frames encoded.
  std::size_t retry_attempts = 0;   ///< Re-admission attempts made.
  std::size_t rejects = 0;          ///< Attempts the controller rejected.
  std::size_t affected_users = 0;   ///< Users orphaned by crashes.
  std::size_t reabsorbed_users = 0; ///< Orphans re-admitted somewhere.
  std::size_t lost_users = 0;       ///< Orphans dropped (attempts/timeout).
  double reabsorbed_fraction = 1.0; ///< reabsorbed / affected (1 if none).
  double mean_reabsorb_slots = 0.0; ///< Crash -> re-admission, mean.
  std::size_t max_reabsorb_slots = 0;
  std::vector<FleetServerStats> per_server;
};

struct FleetRunResult {
  std::vector<sim::UserOutcome> outcomes;  ///< One per user.
  FleetStats stats;
};

class FleetSim {
 public:
  /// Validates the config. Throws std::invalid_argument naming the
  /// field ("FleetConfig.<field>: <reason>") on zero servers, vnodes,
  /// checkpoint or ramp period, a non-finite or negative backhaul,
  /// threads other than 1 or a planned migration out of range; also on
  /// an invalid backoff policy or a base config that system::validate
  /// rejects.
  explicit FleetSim(FleetConfig config);

  /// Runs one repeat. Deterministic in (config, repeat): outcomes,
  /// stats, and timeline are bit-identical across invocations;
  /// telemetry is measurement metadata except the fleet_ counters,
  /// which are deterministic event counts.
  FleetRunResult run(core::Allocator& allocator, std::size_t repeat,
                     system::Timeline* timeline = nullptr,
                     telemetry::Collector* telemetry = nullptr) const;

  const FleetConfig& config() const { return config_; }

 private:
  FleetConfig config_;
};

}  // namespace cvr::fleet
