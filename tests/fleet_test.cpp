// Fleet-with-failover guard rails (docs/fleet.md):
//
//   * a K=1 fleet with an empty schedule is bit-identical to
//     system::SystemSim — outcomes and the full per-slot timeline;
//   * a mid-run server crash re-admits (nearly) all orphans to the
//     survivors within a bounded number of slots;
//   * runs are pure functions of (config, repeat) — regenerating and
//     attaching telemetry change nothing;
//   * a planned live migration carries the user's estimator state, so
//     the migrated user's quality sequence matches a never-moved run;
//   * backoff delays and the consistent-hash ring behave as documented.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/dv_greedy.h"
#include "src/faults/fault_schedule.h"
#include "src/fleet/assignment.h"
#include "src/fleet/backoff.h"
#include "src/fleet/fleet_sim.h"
#include "src/system/system_sim.h"
#include "src/system/timeline.h"
#include "src/telemetry/telemetry.h"
#include "src/util/thread_pool.h"

namespace cvr {
namespace {

faults::FaultEvent make_fault(faults::FaultType type, std::size_t target,
                              std::size_t start, std::size_t duration) {
  faults::FaultEvent e;
  e.type = type;
  e.target = target;
  e.start_slot = start;
  e.duration_slots = duration;
  return e;
}

void expect_outcomes_identical(const std::vector<sim::UserOutcome>& a,
                               const std::vector<sim::UserOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].avg_qoe, b[i].avg_qoe) << "user " << i;
    EXPECT_EQ(a[i].avg_quality, b[i].avg_quality) << "user " << i;
    EXPECT_EQ(a[i].avg_level, b[i].avg_level) << "user " << i;
    EXPECT_EQ(a[i].avg_delay_ms, b[i].avg_delay_ms) << "user " << i;
    EXPECT_EQ(a[i].variance, b[i].variance) << "user " << i;
    EXPECT_EQ(a[i].prediction_accuracy, b[i].prediction_accuracy)
        << "user " << i;
    EXPECT_EQ(a[i].fps, b[i].fps) << "user " << i;
    EXPECT_EQ(a[i].fault_slots, b[i].fault_slots) << "user " << i;
    EXPECT_EQ(a[i].time_to_recover_slots, b[i].time_to_recover_slots)
        << "user " << i;
    EXPECT_EQ(a[i].qoe_dip, b[i].qoe_dip) << "user " << i;
    EXPECT_EQ(a[i].frames_dropped_in_fault, b[i].frames_dropped_in_fault)
        << "user " << i;
  }
}

void expect_timelines_identical(const system::Timeline& a,
                                const system::Timeline& b) {
  ASSERT_EQ(a.size(), b.size());
  const auto& ra = a.records();
  const auto& rb = b.records();
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].slot, rb[i].slot) << "record " << i;
    EXPECT_EQ(ra[i].user, rb[i].user) << "record " << i;
    EXPECT_EQ(ra[i].level, rb[i].level) << "record " << i;
    EXPECT_EQ(ra[i].delta_estimate, rb[i].delta_estimate) << "record " << i;
    EXPECT_EQ(ra[i].bandwidth_estimate_mbps, rb[i].bandwidth_estimate_mbps)
        << "record " << i;
    EXPECT_EQ(ra[i].demand_mbps, rb[i].demand_mbps) << "record " << i;
    EXPECT_EQ(ra[i].granted_mbps, rb[i].granted_mbps) << "record " << i;
    EXPECT_EQ(ra[i].delay_ms, rb[i].delay_ms) << "record " << i;
    EXPECT_EQ(ra[i].packets, rb[i].packets) << "record " << i;
    EXPECT_EQ(ra[i].packets_lost, rb[i].packets_lost) << "record " << i;
    EXPECT_EQ(ra[i].frame_on_time, rb[i].frame_on_time) << "record " << i;
    EXPECT_EQ(ra[i].displayed_quality, rb[i].displayed_quality)
        << "record " << i;
  }
}

// ---------------------------------------------------------------------------
// K = 1: the fleet is the single-server emulation, bit for bit.

TEST(FleetK1, BitIdenticalToSystemSim) {
  system::SystemSimConfig base = system::setup_one_router(4);
  base.slots = 250;

  core::DvGreedyAllocator alloc_a;
  system::Timeline sys_timeline;
  const auto sys_outcomes =
      system::SystemSim(base).run(alloc_a, 0, &sys_timeline);

  fleet::FleetConfig config;
  config.base = base;
  config.servers = 1;
  core::DvGreedyAllocator alloc_b;
  system::Timeline fleet_timeline;
  const fleet::FleetRunResult result =
      fleet::FleetSim(config).run(alloc_b, 0, &fleet_timeline);

  expect_outcomes_identical(sys_outcomes, result.outcomes);
  expect_timelines_identical(sys_timeline, fleet_timeline);
  EXPECT_EQ(result.stats.crashes, 0u);
  EXPECT_EQ(result.stats.migrations, 0u);
  EXPECT_EQ(result.stats.handoff_frames, 0u);
  EXPECT_EQ(result.stats.reabsorbed_fraction, 1.0);
  for (const auto& o : result.outcomes) {
    EXPECT_EQ(o.home_server, 0.0);
    EXPECT_EQ(o.migrations, 0.0);
  }
}

TEST(FleetK1, BitIdenticalUnderLegacyFaults) {
  // User/router-scoped faults flow through the same pipeline on both
  // sides; the K=1 identity must survive them.
  system::SystemSimConfig base = system::setup_one_router(4);
  base.slots = 250;
  base.faults.add(make_fault(faults::FaultType::kUserDisconnect, 1, 40, 30));
  base.faults.add(make_fault(faults::FaultType::kPoseBlackout, 2, 80, 25));
  base.faults.add(make_fault(faults::FaultType::kCacheFlush, 0, 120, 1));

  core::DvGreedyAllocator alloc_a;
  const auto sys_outcomes = system::SystemSim(base).run(alloc_a, 1);

  fleet::FleetConfig config;
  config.base = base;
  config.servers = 1;
  core::DvGreedyAllocator alloc_b;
  const auto result = fleet::FleetSim(config).run(alloc_b, 1);
  expect_outcomes_identical(sys_outcomes, result.outcomes);
}

// ---------------------------------------------------------------------------
// Crash failover

fleet::FleetConfig crash_config(fleet::AssignmentMode mode) {
  fleet::FleetConfig config;
  config.base = system::setup_two_routers(12);
  config.base.slots = 500;
  config.base.faults.add(
      make_fault(faults::FaultType::kServerCrash, 1, 150, 300));
  config.servers = 4;
  config.assignment = mode;
  return config;
}

TEST(FleetCrash, ReabsorbsOrphansWithinBoundedSlots) {
  const fleet::FleetConfig config = crash_config(
      fleet::AssignmentMode::kShardedHash);
  core::DvGreedyAllocator alloc;
  const auto result = fleet::FleetSim(config).run(alloc, 0);

  EXPECT_EQ(result.stats.crashes, 1u);
  ASSERT_GT(result.stats.affected_users, 0u);
  EXPECT_GE(result.stats.reabsorbed_fraction, 0.99);
  EXPECT_EQ(result.stats.lost_users, 0u);
  EXPECT_GE(result.stats.migrations, result.stats.reabsorbed_users);
  EXPECT_GT(result.stats.handoff_frames, 0u);
  // Default backoff starts at 2 slots with 30% jitter: every orphan
  // should be back long before 50 slots even with a few rejects.
  EXPECT_LE(result.stats.max_reabsorb_slots, 50u);
  EXPECT_GE(result.stats.mean_reabsorb_slots, 1.0);

  ASSERT_EQ(result.stats.per_server.size(), 4u);
  std::size_t served = 0;
  for (const auto& s : result.stats.per_server) {
    served += s.served_user_slots;
    EXPECT_GE(s.mean_budget_mbps, 0.0);
    EXPECT_TRUE(std::isfinite(s.mean_utilization));
  }
  EXPECT_GT(served, 0u);

  // Migrated users carry their re-assignment in the outcome fields.
  double total_migrations = 0.0;
  for (const auto& o : result.outcomes) total_migrations += o.migrations;
  EXPECT_EQ(static_cast<std::size_t>(total_migrations),
            result.stats.migrations);
}

TEST(FleetCrash, DeterministicAcrossRunsAndTelemetry) {
  const fleet::FleetConfig config = crash_config(
      fleet::AssignmentMode::kShardedHash);
  core::DvGreedyAllocator alloc;
  const fleet::FleetSim sim(config);
  const auto first = sim.run(alloc, 3);
  const auto second = sim.run(alloc, 3);
  telemetry::MetricsRegistry registry;
  telemetry::Collector collector(telemetry::Mode::kCounters, &registry);
  const auto third = sim.run(alloc, 3, nullptr, &collector);

  expect_outcomes_identical(first.outcomes, second.outcomes);
  expect_outcomes_identical(first.outcomes, third.outcomes);
  EXPECT_EQ(first.stats.migrations, second.stats.migrations);
  EXPECT_EQ(first.stats.migrations, third.stats.migrations);
  EXPECT_EQ(first.stats.retry_attempts, third.stats.retry_attempts);
  EXPECT_EQ(first.stats.max_reabsorb_slots, third.stats.max_reabsorb_slots);

  // The fleet_ counters mirror the deterministic stats exactly (that is
  // what lets perf_gate.py hold them to exact equality).
  const telemetry::MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter_or("fleet_server_crashes"), third.stats.crashes);
  EXPECT_EQ(snapshot.counter_or("fleet_migrations"), third.stats.migrations);
  EXPECT_EQ(snapshot.counter_or("fleet_handoff_frames"),
            third.stats.handoff_frames);
  EXPECT_EQ(snapshot.counter_or("fleet_retry_attempts"),
            third.stats.retry_attempts);
  EXPECT_EQ(snapshot.counter_or("fleet_migration_rejects"),
            third.stats.rejects);
}

TEST(FleetCrash, ServerRecoverTruncatesTheOutage) {
  fleet::FleetConfig config = crash_config(
      fleet::AssignmentMode::kShardedHash);
  config.base.faults.add(
      make_fault(faults::FaultType::kServerRecover, 1, 200, 1));
  core::DvGreedyAllocator alloc;
  const auto result = fleet::FleetSim(config).run(alloc, 0);
  EXPECT_EQ(result.stats.crashes, 1u);
  EXPECT_EQ(result.stats.recoveries, 1u);
  EXPECT_GE(result.stats.reabsorbed_fraction, 0.99);
}

TEST(FleetCrash, MirroredFailoverIsFasterThanSharded) {
  core::DvGreedyAllocator alloc;
  const auto sharded = fleet::FleetSim(crash_config(
      fleet::AssignmentMode::kShardedHash)).run(alloc, 0);
  const auto mirrored = fleet::FleetSim(crash_config(
      fleet::AssignmentMode::kMirrored)).run(alloc, 0);

  EXPECT_GE(mirrored.stats.reabsorbed_fraction,
            sharded.stats.reabsorbed_fraction);
  // The warm standby attempts at the crash slot itself; sharded waits
  // out the backoff, so its recovery time is strictly larger.
  EXPECT_LT(mirrored.stats.mean_reabsorb_slots,
            sharded.stats.mean_reabsorb_slots);
  // Replicating checkpoints costs wire frames.
  EXPECT_GE(mirrored.stats.handoff_frames, sharded.stats.handoff_frames);
}

TEST(FleetCrash, PartitionFreezesMigrationInAndOut) {
  fleet::FleetConfig config;
  config.base = system::setup_one_router(6);
  config.base.slots = 300;
  config.servers = 3;
  // Server 2 is partitioned for the whole run; a planned migration into
  // it must be skipped, not applied.
  config.base.faults.add(
      make_fault(faults::FaultType::kFleetPartition, 2, 0, 300));
  fleet::PlannedMigration pm;
  pm.slot = 100;
  pm.user = 0;
  pm.to_server = 2;
  config.planned_migrations.push_back(pm);

  core::DvGreedyAllocator alloc;
  const auto result = fleet::FleetSim(config).run(alloc, 0);
  EXPECT_EQ(result.stats.migrations, 0u);
  for (const auto& o : result.outcomes) {
    EXPECT_EQ(o.migrations, 0.0);
    EXPECT_TRUE(std::isfinite(o.avg_qoe));
  }
}

TEST(FleetBudget, PoliciesSplitTheBackhaul) {
  fleet::FleetConfig config;
  config.base = system::setup_one_router(8);
  config.base.slots = 200;
  config.servers = 2;
  config.backhaul_mbps = 400.0;

  core::DvGreedyAllocator alloc;
  config.budget = fleet::BudgetPolicy::kEqual;
  const auto equal = fleet::FleetSim(config).run(alloc, 0);
  ASSERT_EQ(equal.stats.per_server.size(), 2u);
  EXPECT_DOUBLE_EQ(equal.stats.per_server[0].mean_budget_mbps, 200.0);
  EXPECT_DOUBLE_EQ(equal.stats.per_server[1].mean_budget_mbps, 200.0);

  config.budget = fleet::BudgetPolicy::kProportionalUsers;
  const auto proportional = fleet::FleetSim(config).run(alloc, 0);
  const double total =
      proportional.stats.per_server[0].mean_budget_mbps +
      proportional.stats.per_server[1].mean_budget_mbps;
  EXPECT_NEAR(total, 400.0, 1e-6);
}

// ---------------------------------------------------------------------------
// Live migration state carry

TEST(FleetMigration, StateCarryMatchesNeverMovedRun) {
  // One user, persistence predictor, no variance term, no repetition
  // suppression / fallback / loss-aware / adaptive margin: everything
  // the serve path consumes is either user-keyed world state (which a
  // migration never touches) or estimator state the UserHandoff frame
  // carries. The migrated run must then reproduce the never-moved
  // run's per-slot quality decisions exactly.
  fleet::FleetConfig config;
  config.base = system::setup_one_router(1);
  config.base.slots = 300;
  config.base.server.predictor_kind = motion::PredictorKind::kPersistence;
  config.base.server.params = core::QoeParams{0.0, 0.5};
  config.base.server.repetition_suppression = false;
  config.servers = 2;

  core::DvGreedyAllocator alloc;
  system::Timeline stay_timeline;
  const auto stay = fleet::FleetSim(config).run(alloc, 0, &stay_timeline);

  fleet::PlannedMigration pm;
  pm.slot = 150;
  pm.user = 0;
  // Move to whichever server is NOT the hash owner.
  pm.to_server = 1 - fleet::HashRing(2, 64, config.base.seed).owner(0);
  config.planned_migrations.push_back(pm);
  system::Timeline move_timeline;
  const auto moved = fleet::FleetSim(config).run(alloc, 0, &move_timeline);

  EXPECT_EQ(moved.stats.migrations, 1u);
  EXPECT_EQ(moved.outcomes.at(0).migrations, 1.0);
  ASSERT_EQ(stay_timeline.size(), move_timeline.size());
  const auto& rs = stay_timeline.records();
  const auto& rm = move_timeline.records();
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs[i].level, rm[i].level) << "slot " << rs[i].slot;
    EXPECT_EQ(rs[i].displayed_quality, rm[i].displayed_quality)
        << "slot " << rs[i].slot;
    EXPECT_EQ(rs[i].delta_estimate, rm[i].delta_estimate)
        << "slot " << rs[i].slot;
  }
  expect_outcomes_identical(stay.outcomes, moved.outcomes);
}

// ---------------------------------------------------------------------------
// Backoff policy

TEST(FleetBackoff, DelaysStayWithinTheJitteredEnvelope) {
  fleet::BackoffPolicy policy;
  for (std::size_t attempt = 0; attempt < policy.max_attempts; ++attempt) {
    double nominal = static_cast<double>(policy.base_delay_slots);
    for (std::size_t k = 0; k < attempt; ++k) nominal *= policy.multiplier;
    nominal = std::min(nominal, static_cast<double>(policy.max_delay_slots));
    for (std::size_t user = 0; user < 16; ++user) {
      const std::size_t delay =
          fleet::retry_delay_slots(policy, 2022, user, attempt);
      EXPECT_GE(delay, 1u);
      EXPECT_GE(static_cast<double>(delay),
                std::floor(nominal * (1.0 - policy.jitter_fraction)));
      EXPECT_LE(static_cast<double>(delay),
                std::ceil(nominal * (1.0 + policy.jitter_fraction)));
    }
  }
}

TEST(FleetBackoff, DeterministicAndDesynchronized) {
  const fleet::BackoffPolicy policy;
  EXPECT_EQ(fleet::retry_delay_slots(policy, 7, 3, 2),
            fleet::retry_delay_slots(policy, 7, 3, 2));
  // Different users at the same attempt must not all share one delay
  // (that would re-synchronize the herd the jitter exists to break up).
  std::set<std::size_t> delays;
  for (std::size_t user = 0; user < 64; ++user) {
    delays.insert(fleet::retry_delay_slots(policy, 7, user, 4));
  }
  EXPECT_GT(delays.size(), 1u);
}

TEST(FleetBackoff, CapAndValidation) {
  fleet::BackoffPolicy policy;
  policy.jitter_fraction = 0.0;
  policy.base_delay_slots = 3;
  policy.multiplier = 10.0;
  policy.max_delay_slots = 40;
  EXPECT_EQ(fleet::retry_delay_slots(policy, 1, 0, 0), 3u);
  EXPECT_EQ(fleet::retry_delay_slots(policy, 1, 0, 1), 30u);
  EXPECT_EQ(fleet::retry_delay_slots(policy, 1, 0, 2), 40u);  // capped
  EXPECT_EQ(fleet::retry_delay_slots(policy, 1, 0, 7), 40u);

  fleet::BackoffPolicy bad = policy;
  bad.multiplier = 0.5;
  EXPECT_THROW(fleet::validate(bad), std::invalid_argument);
  bad = policy;
  bad.jitter_fraction = 1.0;
  EXPECT_THROW(fleet::validate(bad), std::invalid_argument);
  bad = policy;
  bad.max_attempts = 0;
  EXPECT_THROW(fleet::validate(bad), std::invalid_argument);
  bad = policy;
  bad.timeout_slots = 0;
  EXPECT_THROW(fleet::validate(bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Consistent-hash ring

TEST(FleetRing, CrashMovesOnlyTheCrashedServersUsers) {
  const fleet::HashRing ring(4, 64, 2022);
  std::vector<bool> all(4, true);
  std::vector<bool> without_two = all;
  without_two[2] = false;
  for (std::size_t user = 0; user < 200; ++user) {
    const std::size_t before = ring.owner(user, all);
    EXPECT_EQ(before, ring.owner(user));  // all-eligible overload agrees
    const std::size_t after = ring.owner(user, without_two);
    if (before != 2) {
      EXPECT_EQ(after, before) << "healthy user " << user << " reshuffled";
    } else {
      EXPECT_NE(after, 2u);
    }
  }
}

TEST(FleetRing, BackupIsDistinctUntilOnlyOneServerRemains) {
  const fleet::HashRing ring(3, 64, 7);
  std::vector<bool> all(3, true);
  for (std::size_t user = 0; user < 100; ++user) {
    EXPECT_NE(ring.backup(user, all), ring.owner(user, all));
  }
  std::vector<bool> only_one(3, false);
  only_one[1] = true;
  EXPECT_EQ(ring.owner(5, only_one), 1u);
  EXPECT_EQ(ring.backup(5, only_one), 1u);  // falls back to the primary
}

TEST(FleetRing, ValidationAndDeterminism) {
  EXPECT_THROW(fleet::HashRing(0, 64, 1), std::invalid_argument);
  EXPECT_THROW(fleet::HashRing(2, 0, 1), std::invalid_argument);
  const fleet::HashRing a(5, 32, 99);
  const fleet::HashRing b(5, 32, 99);
  for (std::size_t user = 0; user < 100; ++user) {
    EXPECT_EQ(a.owner(user), b.owner(user));
  }
  EXPECT_THROW(a.owner(0, std::vector<bool>(4, true)), std::invalid_argument);
  EXPECT_THROW(a.owner(0, std::vector<bool>(5, false)), std::invalid_argument);
}

TEST(FleetConfigValidation, RejectsDegenerateConfigs) {
  // Every FleetConfig error names its field, as system::validate does
  // for the base config.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<
      std::pair<std::string, std::function<void(fleet::FleetConfig&)>>>
      cases = {
          {"FleetConfig.servers", [](auto& c) { c.servers = 0; }},
          {"FleetConfig.ring_vnodes", [](auto& c) { c.ring_vnodes = 0; }},
          {"FleetConfig.checkpoint_period_slots",
           [](auto& c) { c.checkpoint_period_slots = 0; }},
          {"FleetConfig.ramp_slots_per_level",
           [](auto& c) { c.ramp_slots_per_level = 0; }},
          {"FleetConfig.backhaul_mbps",
           [](auto& c) { c.backhaul_mbps = -1.0; }},
          {"FleetConfig.backhaul_mbps",
           [nan](auto& c) { c.backhaul_mbps = nan; }},
          {"FleetConfig.planned_migrations[1]",
           [](auto& c) {
             c.planned_migrations.resize(2);
             c.planned_migrations[1].user = 99;  // out of range
           }},
          {"FleetConfig.threads", [](auto& c) { c.threads = 2; }},
      };
  for (const auto& [field, corrupt] : cases) {
    fleet::FleetConfig config;
    config.base = system::setup_one_router(2);
    config.base.slots = 50;
    config.servers = 2;
    corrupt(config);
    try {
      fleet::FleetSim sim(config);
      ADD_FAILURE() << field << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()).rfind(field + ":", 0), 0u)
          << error.what();
    }
  }
}

TEST(FleetConfigValidation, BaseErrorsNameTheFieldInBothEngines) {
  // One system::validate behind both constructors: the same bad base
  // config is rejected by SystemSim and FleetSim with the field named.
  const std::vector<std::pair<std::string,
                              std::function<void(system::SystemSimConfig&)>>>
      cases = {
          {"SystemSimConfig.users", [](auto& c) { c.users = 0; }},
          {"SystemSimConfig.routers", [](auto& c) { c.routers = 0; }},
          {"SystemSimConfig.slots", [](auto& c) { c.slots = 0; }},
          {"SystemSimConfig.throttle_pool_mbps",
           [](auto& c) { c.throttle_pool_mbps.clear(); }},
          {"SystemSimConfig.pose_upload_period",
           [](auto& c) { c.pose_upload_period = 0; }},
      };
  const auto expect_named = [](const std::function<void()>& construct,
                               const std::string& field) {
    try {
      construct();
      ADD_FAILURE() << field << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()).rfind(field + ":", 0), 0u)
          << error.what();
    }
  };
  for (const auto& [field, corrupt] : cases) {
    fleet::FleetConfig config;
    config.base = system::setup_one_router(2);
    config.base.slots = 50;
    corrupt(config.base);
    expect_named([&] { system::SystemSim sim(config.base); }, field);
    expect_named([&] { fleet::FleetSim sim(config); }, field);
  }
}

TEST(SystemSimConfig, NumericFieldsNameTheField) {
  // Each of these used to leak into the run: NaN aggregates threw only
  // mid-run from Server without naming a field, the others silently
  // produced NaN or changed results. Both engines must now refuse them
  // at construction, naming the field.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  using Corrupt = std::function<void(system::SystemSimConfig&, double)>;
  const std::vector<std::tuple<std::string, Corrupt, std::vector<double>>>
      cases = {
          {"SystemSimConfig.router_aggregate_mbps",
           [](auto& c, double v) { c.router_aggregate_mbps = v; },
           {nan, inf, -inf, -1.0, 0.0}},
          {"SystemSimConfig.throttle_pool_mbps[1]",
           [](auto& c, double v) { c.throttle_pool_mbps = {40.0, v, 50.0}; },
           {nan, inf, -inf, -5.0}},
          {"SystemSimConfig.bandwidth_measurement_sigma",
           [](auto& c, double v) { c.bandwidth_measurement_sigma = v; },
           {nan, inf, -inf, -0.1}},
          {"SystemSimConfig.delay_accounting_cap_ms",
           [](auto& c, double v) { c.delay_accounting_cap_ms = v; },
           {nan, inf, -inf, -1.0}},
          {"SystemSimConfig.server.params.alpha",
           [](auto& c, double v) { c.server.params.alpha = v; },
           {nan, inf, -inf, -0.1}},
          {"SystemSimConfig.server.params.beta",
           [](auto& c, double v) { c.server.params.beta = v; },
           {nan, inf, -inf, -0.5}},
          {"SystemSimConfig.delay_measurement_window_ms",
           [](auto& c, double v) { c.delay_measurement_window_ms = v; },
           {nan, inf, -inf, -1.0}},
          {"SystemSimConfig.client.display_deadline_ms",
           [](auto& c, double v) { c.client.display_deadline_ms = v; },
           {nan, inf, -inf, -1.0, 0.0}},
          {"SystemSimConfig.client.buffer_threshold",
           [](auto& c, double v) {
             c.client.buffer_threshold = static_cast<std::size_t>(v);
           },
           {0.0}},
          {"SystemSimConfig.devices[1].buffer_threshold",
           [](auto& c, double v) {
             c.devices.at(1).buffer_threshold = static_cast<std::size_t>(v);
           },
           {0.0}},
          {"SystemSimConfig.server.ema_alpha",
           [](auto& c, double v) { c.server.ema_alpha = v; },
           {nan, inf, -inf, -0.5, 0.0, 1.5}},
      };
  const auto expect_named = [](const std::function<void()>& construct,
                               const std::string& field, double value) {
    try {
      construct();
      ADD_FAILURE() << field << " = " << value << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()).rfind(field + ":", 0), 0u)
          << error.what();
    }
  };
  for (const auto& [field, corrupt, values] : cases) {
    for (double value : values) {
      fleet::FleetConfig config;
      config.base = system::setup_one_router(2);
      config.base.slots = 50;
      corrupt(config.base, value);
      expect_named([&] { system::SystemSim sim(config.base); }, field, value);
      expect_named([&] { fleet::FleetSim sim(config); }, field, value);
    }
  }
  // The boundary values stay legal: zero throttle, zero noise, zero cap,
  // zero QoE weights, a zero measurement window, a threshold of one,
  // and an EMA weight of exactly 1.
  system::SystemSimConfig edge = system::setup_one_router(2);
  edge.throttle_pool_mbps = {0.0, 40.0};
  edge.bandwidth_measurement_sigma = 0.0;
  edge.delay_accounting_cap_ms = 0.0;
  edge.server.params = core::QoeParams{0.0, 0.0};
  edge.delay_measurement_window_ms = 0.0;
  edge.client.buffer_threshold = 1;
  edge.devices.at(1).buffer_threshold = 1;
  edge.server.ema_alpha = 1.0;
  EXPECT_NO_THROW(system::SystemSim{edge});
}

// ---------------------------------------------------------------------
// Within-slot allocator pool (SystemSimConfig::allocator_threads) on the
// fleet.

/// A dv allocator that records the pools it is lent.
class PoolSpyAllocator : public core::Allocator {
 public:
  std::string_view name() const override { return inner_.name(); }
  core::Allocation allocate(const core::SlotProblem& problem) override {
    return inner_.allocate(problem);
  }
  void set_thread_pool(cvr::ThreadPool* pool) override {
    if (pool != nullptr) lent = true;
    attached = pool != nullptr;
    inner_.set_thread_pool(pool);
  }

  bool lent = false;
  bool attached = false;

 private:
  core::DvGreedyAllocator inner_;
};

TEST(FleetAllocatorThreads, LendsThePoolOnTheSerialSchedule) {
  fleet::FleetConfig config = crash_config(fleet::AssignmentMode::kShardedHash);
  config.base.slots = 50;
  config.base.allocator_threads = 2;
  PoolSpyAllocator spy;
  fleet::FleetSim(config).run(spy, 0);
  EXPECT_TRUE(spy.lent);
  EXPECT_FALSE(spy.attached);  // detached before the pool is destroyed
}

TEST(FleetAllocatorThreads, BitIdenticalToTheSerialAllocator) {
  fleet::FleetConfig config = crash_config(fleet::AssignmentMode::kShardedHash);
  const auto run = [&](std::size_t allocator_threads, system::Timeline* tl) {
    fleet::FleetConfig c = config;
    c.base.allocator_threads = allocator_threads;
    core::DvGreedyAllocator alloc;
    alloc.set_parallel_min_users(1);  // engage the pool at this scale
    return fleet::FleetSim(c).run(alloc, 0, tl);
  };
  system::Timeline serial_tl;
  system::Timeline pooled_tl;
  const fleet::FleetRunResult serial = run(0, &serial_tl);
  const fleet::FleetRunResult pooled = run(2, &pooled_tl);
  expect_outcomes_identical(serial.outcomes, pooled.outcomes);
  expect_timelines_identical(serial_tl, pooled_tl);
}

}  // namespace
}  // namespace cvr
