// Golden pins for the per-server slot step shared by system::SystemSim
// and fleet::FleetSim (src/system/slot_pipeline.h).
//
// Each case runs a fixed config and compares per-field sums over users
// of the run's outcomes, bit for bit, against values captured from the
// reference implementation. The fleet cases also pin every FleetStats
// field. A refactor of the slot body must leave every value unchanged;
// on a mismatch the message prints the new value as a hex float, so an
// intended behaviour change can be re-pinned exactly.
#include <gtest/gtest.h>

#include <cstddef>
#include <ios>
#include <vector>

#include "src/core/dv_greedy.h"
#include "src/faults/fault_schedule.h"
#include "src/fleet/fleet_sim.h"
#include "src/system/system_sim.h"

namespace cvr {
namespace {

struct OutcomeSums {
  double avg_qoe = 0.0;
  double avg_quality = 0.0;
  double avg_delay_ms = 0.0;
  double variance = 0.0;
  double fps = 0.0;
  double fault_slots = 0.0;
};

OutcomeSums sum_outcomes(const std::vector<sim::UserOutcome>& outcomes) {
  OutcomeSums sums;
  for (const sim::UserOutcome& o : outcomes) {
    sums.avg_qoe += o.avg_qoe;
    sums.avg_quality += o.avg_quality;
    sums.avg_delay_ms += o.avg_delay_ms;
    sums.variance += o.variance;
    sums.fps += o.fps;
    sums.fault_slots += o.fault_slots;
  }
  return sums;
}

#define EXPECT_BITS(actual, expected) \
  EXPECT_EQ(actual, expected) << #actual << " = " << std::hexfloat << (actual)

void expect_sums(const std::vector<sim::UserOutcome>& outcomes,
                 std::size_t users, const OutcomeSums& expected) {
  ASSERT_EQ(outcomes.size(), users);
  const OutcomeSums sums = sum_outcomes(outcomes);
  EXPECT_BITS(sums.avg_qoe, expected.avg_qoe);
  EXPECT_BITS(sums.avg_quality, expected.avg_quality);
  EXPECT_BITS(sums.avg_delay_ms, expected.avg_delay_ms);
  EXPECT_BITS(sums.variance, expected.variance);
  EXPECT_BITS(sums.fps, expected.fps);
  EXPECT_BITS(sums.fault_slots, expected.fault_slots);
}

faults::FaultEvent make_fault(faults::FaultType type, std::size_t target,
                              std::size_t start, std::size_t duration,
                              double severity = 0.0) {
  faults::FaultEvent e;
  e.type = type;
  e.target = target;
  e.start_slot = start;
  e.duration_slots = duration;
  e.severity = severity;
  return e;
}

// The paper's second setup (15 users, two routers), seed 11, shortened.
system::SystemSimConfig golden_base() {
  system::SystemSimConfig config = system::setup_two_routers(15);
  config.seed = 11;
  config.slots = 400;
  return config;
}

std::vector<sim::UserOutcome> run_system(
    const system::SystemSimConfig& config) {
  core::DvGreedyAllocator allocator;
  return system::SystemSim(config).run(allocator, 0);
}

// ---------------------------------------------------------------------------
// SystemSim

TEST(SystemSimGolden, Defaults) {
  expect_sums(run_system(golden_base()), 15,
              {0x1.3c8b3f0ce6619p+4, 0x1.cc851eb851ebap+4,
               0x1.0aa8db46ab19fp+5, 0x1.6a939c0ebedfap+3,
               0x1.e3f1eb851eb86p+9, 0.0});
}

TEST(SystemSimGolden, StarvedRenderingLectureSparsePoses) {
  system::SystemSimConfig config = golden_base();
  config.online_rendering = true;
  config.render_farm.gpus = 1;  // too few for 15 users: some jobs miss
  config.lecture_mode = true;
  config.pose_upload_period = 3;
  expect_sums(run_system(config), 15,
              {0x1.17d06ee366af7p+1, 0x1.1a66666666667p+2,
               0x1.63ca42ab4d051p+1, 0x1.f2d04816f0069p+1,
               0x1.ee570a3d70a3ep+9, 0.0});
}

TEST(SystemSimGolden, UserAndRouterFaults) {
  system::SystemSimConfig config = golden_base();
  config.faults.add(make_fault(faults::FaultType::kUserDisconnect, 3, 60, 40));
  config.faults.add(make_fault(faults::FaultType::kPoseBlackout, 5, 100, 50));
  config.faults.add(make_fault(faults::FaultType::kAckStall, 7, 150, 40));
  config.faults.add(
      make_fault(faults::FaultType::kRouterOutage, 1, 200, 30, 0.1));
  config.faults.add(make_fault(faults::FaultType::kCacheFlush, 0, 260, 20));
  expect_sums(run_system(config), 15,
              {0x1.ee46adb936adp+3, 0x1.b90a3d70a3d7p+4,
               0x1.d1fd41673cf15p+5, 0x1.92d0ff9724745p+3,
               0x1.d825c28f5c29p+9, 0x1.4p+9});
}

TEST(SystemSimGolden, HevcWifiContentionProbing) {
  system::SystemSimConfig config = golden_base();
  config.server.hevc.enabled = true;
  config.channel.contention.enabled = true;
  config.server.estimator_arm = system::EstimatorArm::kProbing;
  expect_sums(run_system(config), 15,
              {-0x1.470636fbc9608p+2, 0x1.a133333333333p+3,
               0x1.490d9b2a965acp+7, 0x1.b1d119ce075f8p+1,
               0x1.b8b70a3d70a3dp+9, 0.0});
}

// ---------------------------------------------------------------------------
// FleetSim: K = 4, server 1 crashes at slot 150 for 300 slots.

fleet::FleetRunResult run_fleet_crash(fleet::AssignmentMode mode) {
  fleet::FleetConfig config;
  config.base = golden_base();
  config.base.slots = 500;
  config.base.faults.add(
      make_fault(faults::FaultType::kServerCrash, 1, 150, 300));
  config.servers = 4;
  config.assignment = mode;
  core::DvGreedyAllocator allocator;
  return fleet::FleetSim(config).run(allocator, 0);
}

struct ServerPin {
  std::size_t served_user_slots;
  double mean_budget_mbps;
  double mean_utilization;
};

void expect_stats(const fleet::FleetStats& s, const fleet::FleetStats& e,
                  const std::vector<ServerPin>& per_server) {
  EXPECT_EQ(s.crashes, e.crashes);
  EXPECT_EQ(s.recoveries, e.recoveries);
  EXPECT_EQ(s.migrations, e.migrations);
  EXPECT_EQ(s.handoff_frames, e.handoff_frames);
  EXPECT_EQ(s.retry_attempts, e.retry_attempts);
  EXPECT_EQ(s.rejects, e.rejects);
  EXPECT_EQ(s.affected_users, e.affected_users);
  EXPECT_EQ(s.reabsorbed_users, e.reabsorbed_users);
  EXPECT_EQ(s.lost_users, e.lost_users);
  EXPECT_BITS(s.reabsorbed_fraction, e.reabsorbed_fraction);
  EXPECT_BITS(s.mean_reabsorb_slots, e.mean_reabsorb_slots);
  EXPECT_EQ(s.max_reabsorb_slots, e.max_reabsorb_slots);
  ASSERT_EQ(s.per_server.size(), per_server.size());
  for (std::size_t k = 0; k < per_server.size(); ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(s.per_server[k].served_user_slots,
              per_server[k].served_user_slots);
    EXPECT_BITS(s.per_server[k].mean_budget_mbps,
                per_server[k].mean_budget_mbps);
    EXPECT_BITS(s.per_server[k].mean_utilization,
                per_server[k].mean_utilization);
  }
}

fleet::FleetStats stats_pin(std::size_t crashes, std::size_t recoveries,
                            std::size_t migrations, std::size_t handoff_frames,
                            std::size_t retry_attempts, std::size_t rejects,
                            std::size_t affected_users,
                            std::size_t reabsorbed_users,
                            std::size_t lost_users, double reabsorbed_fraction,
                            double mean_reabsorb_slots,
                            std::size_t max_reabsorb_slots) {
  fleet::FleetStats s;
  s.crashes = crashes;
  s.recoveries = recoveries;
  s.migrations = migrations;
  s.handoff_frames = handoff_frames;
  s.retry_attempts = retry_attempts;
  s.rejects = rejects;
  s.affected_users = affected_users;
  s.reabsorbed_users = reabsorbed_users;
  s.lost_users = lost_users;
  s.reabsorbed_fraction = reabsorbed_fraction;
  s.mean_reabsorb_slots = mean_reabsorb_slots;
  s.max_reabsorb_slots = max_reabsorb_slots;
  return s;
}

TEST(FleetGolden, ShardedCrash) {
  const fleet::FleetRunResult result =
      run_fleet_crash(fleet::AssignmentMode::kShardedHash);
  expect_sums(result.outcomes, 15,
              {0x1.3aa7036c5d2d7p+4, 0x1.d63d70a3d70a4p+4,
               0x1.3149389c8c51ap+5, 0x1.7a1f212d7731ap+3,
               0x1.e210624dd2f1bp+9, 0x1.cp+2});
  expect_stats(result.stats,
               stats_pin(1, 1, 4, 480, 4, 0, 4, 4, 0, 0x1p+0, 0x1.cp+0, 2),
               {{2545, 0x1.e000000000025p+7, 0x1.d49e5e08d2857p-2},
                {600, 0x1.4p+6, 0x1.c248b40d0ee9fp-2},
                {1000, 0x1.e000000000025p+7, 0x1.a17e7088cfed9p-3},
                {3348, 0x1.e000000000025p+7, 0x1.5b80cd29bbfe5p-1}});
}

TEST(FleetGolden, MirroredCrash) {
  const fleet::FleetRunResult result =
      run_fleet_crash(fleet::AssignmentMode::kMirrored);
  expect_sums(result.outcomes, 15,
              {0x1.390083af3d641p+4, 0x1.d63d70a3d70a5p+4,
               0x1.2b58517a91d0ep+5, 0x1.8579d909f1f14p+3,
               0x1.e286a7ef9db22p+9, 0.0});
  expect_stats(result.stats,
               stats_pin(1, 1, 4, 480, 4, 0, 4, 4, 0, 0x1p+0, 0.0, 0),
               {{1500, 0x1.e000000000025p+7, 0x1.112a0e73ab551p-2},
                {600, 0x1.4p+6, 0x1.c248b40d0ee9fp-2},
                {1700, 0x1.e000000000025p+7, 0x1.64a5405b11bedp-2},
                {3700, 0x1.e000000000025p+7, 0x1.76a44f7a1648ep-1}});
}

}  // namespace
}  // namespace cvr
