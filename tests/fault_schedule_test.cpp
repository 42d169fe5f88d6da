#include "src/faults/fault_schedule.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/faults/recovery.h"

namespace cvr::faults {
namespace {

FaultEvent make_event(FaultType type, std::size_t target, std::size_t start,
                      std::size_t duration, double severity = 0.0) {
  FaultEvent e;
  e.type = type;
  e.target = target;
  e.start_slot = start;
  e.duration_slots = duration;
  e.severity = severity;
  return e;
}

TEST(FaultSchedule, EmptyScheduleAnswersHealthyEverywhere) {
  const FaultSchedule schedule;
  EXPECT_TRUE(schedule.empty());
  for (std::size_t slot : {0u, 1u, 500u, 100000u}) {
    EXPECT_FALSE(schedule.user_disconnected(0, slot));
    EXPECT_FALSE(schedule.pose_blackout(3, slot));
    EXPECT_FALSE(schedule.ack_stalled(7, slot));
    EXPECT_DOUBLE_EQ(schedule.router_capacity_multiplier(0, slot), 1.0);
    EXPECT_FALSE(schedule.cache_flush_at(slot));
    EXPECT_FALSE(schedule.any_fault_for_user(0, 0, slot));
  }
  EXPECT_EQ(schedule.horizon(), 0u);
}

TEST(FaultSchedule, WindowBoundsAreHalfOpen) {
  FaultSchedule schedule;
  schedule.add(make_event(FaultType::kUserDisconnect, 2, 10, 5));
  EXPECT_FALSE(schedule.user_disconnected(2, 9));
  EXPECT_TRUE(schedule.user_disconnected(2, 10));
  EXPECT_TRUE(schedule.user_disconnected(2, 14));
  EXPECT_FALSE(schedule.user_disconnected(2, 15));  // reconnect slot
  EXPECT_FALSE(schedule.user_disconnected(1, 12));  // wrong user
  EXPECT_EQ(schedule.horizon(), 15u);
}

TEST(FaultSchedule, QueriesAreTypeSpecific) {
  FaultSchedule schedule;
  schedule.add(make_event(FaultType::kPoseBlackout, 1, 5, 10));
  schedule.add(make_event(FaultType::kAckStall, 1, 5, 10));
  EXPECT_TRUE(schedule.pose_blackout(1, 7));
  EXPECT_TRUE(schedule.ack_stalled(1, 7));
  EXPECT_FALSE(schedule.user_disconnected(1, 7));
}

TEST(FaultSchedule, OverlappingOutagesMultiply) {
  FaultSchedule schedule;
  schedule.add(make_event(FaultType::kRouterOutage, 0, 0, 10, 0.5));
  schedule.add(make_event(FaultType::kRouterOutage, 0, 5, 10, 0.2));
  EXPECT_DOUBLE_EQ(schedule.router_capacity_multiplier(0, 2), 0.5);
  EXPECT_DOUBLE_EQ(schedule.router_capacity_multiplier(0, 7), 0.1);
  EXPECT_DOUBLE_EQ(schedule.router_capacity_multiplier(0, 12), 0.2);
  EXPECT_DOUBLE_EQ(schedule.router_capacity_multiplier(1, 7), 1.0);
}

TEST(FaultSchedule, TiedOutagesMultiplyInInsertionOrder) {
  // Three outages on one router, all starting at slot 10: the product
  // is taken in the order they were added, and in floating point that
  // order shows in the last bit.
  FaultSchedule schedule;
  schedule.add(make_event(FaultType::kRouterOutage, 1, 10, 20, 0.1));
  schedule.add(make_event(FaultType::kRouterOutage, 1, 10, 20, 0.3));
  schedule.add(make_event(FaultType::kRouterOutage, 0, 2, 5, 0.5));
  schedule.add(make_event(FaultType::kRouterOutage, 1, 10, 20, 0.7));
  const double in_order = (0.1 * 0.3) * 0.7;
  ASSERT_NE(in_order, (0.7 * 0.3) * 0.1);  // the order is observable
  EXPECT_EQ(schedule.router_capacity_multiplier(1, 10), in_order);
  EXPECT_EQ(schedule.router_capacity_multiplier(1, 29), in_order);
  EXPECT_EQ(schedule.router_capacity_multiplier(1, 30), 1.0);
  EXPECT_EQ(schedule.router_capacity_multiplier(0, 10), 1.0);
}

TEST(FaultSchedule, RecoverTruncatesOnlyTheCrashItFollows) {
  FaultSchedule schedule;
  // Added out of start order: the recover first, then the later crash.
  schedule.add(make_event(FaultType::kServerRecover, 2, 35, 1));
  schedule.add(make_event(FaultType::kServerCrash, 2, 30, 20));
  schedule.add(make_event(FaultType::kServerCrash, 2, 10, 10));
  schedule.add(make_event(FaultType::kServerCrash, 3, 30, 20));
  EXPECT_FALSE(schedule.server_crashed(2, 9));
  EXPECT_TRUE(schedule.server_crashed(2, 10));
  EXPECT_TRUE(schedule.server_crashed(2, 19));  // first window runs in full
  EXPECT_FALSE(schedule.server_crashed(2, 20));
  EXPECT_TRUE(schedule.server_crashed(2, 30));
  EXPECT_TRUE(schedule.server_crashed(2, 34));
  EXPECT_FALSE(schedule.server_crashed(2, 35));  // second window cut short
  EXPECT_FALSE(schedule.server_crashed(2, 49));
  EXPECT_TRUE(schedule.server_crashed(3, 40));   // other servers untouched
  EXPECT_FALSE(schedule.server_crashed(7, 40));  // no events at all
}

TEST(FaultSchedule, CacheFlushWindowCountsForEveryUser) {
  // A flush ignores its target: it hits every user behind every router.
  FaultSchedule schedule;
  schedule.add(make_event(FaultType::kCacheFlush, 5, 30, 8));
  EXPECT_TRUE(schedule.cache_flush_at(30));
  for (std::size_t user = 0; user < 12; ++user) {
    for (std::size_t router = 0; router < 3; ++router) {
      EXPECT_FALSE(schedule.any_fault_for_user(user, router, 29));
      EXPECT_TRUE(schedule.any_fault_for_user(user, router, 30));
      EXPECT_TRUE(schedule.any_fault_for_user(user, router, 37));
      EXPECT_FALSE(schedule.any_fault_for_user(user, router, 38));
    }
  }
}

TEST(FaultSchedule, CacheFlushFiresOnlyAtItsStartSlot) {
  FaultSchedule schedule;
  schedule.add(make_event(FaultType::kCacheFlush, 0, 30, 8));
  EXPECT_FALSE(schedule.cache_flush_at(29));
  EXPECT_TRUE(schedule.cache_flush_at(30));
  EXPECT_FALSE(schedule.cache_flush_at(31));  // instantaneous event
  // ...but the accounting window spans the whole duration for everyone.
  EXPECT_TRUE(schedule.any_fault_for_user(4, 1, 35));
  EXPECT_FALSE(schedule.any_fault_for_user(4, 1, 38));
}

TEST(FaultSchedule, AnyFaultSeesRouterOutagesThroughTheUsersRouter) {
  FaultSchedule schedule;
  schedule.add(make_event(FaultType::kRouterOutage, 1, 10, 5, 0.0));
  EXPECT_TRUE(schedule.any_fault_for_user(3, /*router=*/1, 12));
  EXPECT_FALSE(schedule.any_fault_for_user(3, /*router=*/0, 12));
}

TEST(FaultSchedule, ValidatesEvents) {
  FaultSchedule schedule;
  EXPECT_THROW(schedule.add(make_event(FaultType::kPoseBlackout, 0, 0, 0)),
               std::invalid_argument);  // zero duration
  EXPECT_THROW(
      schedule.add(make_event(FaultType::kRouterOutage, 0, 0, 5, 1.0)),
      std::invalid_argument);  // severity must be < 1 (that's "no outage")
  EXPECT_THROW(
      schedule.add(make_event(FaultType::kRouterOutage, 0, 0, 5, -0.1)),
      std::invalid_argument);
  EXPECT_TRUE(schedule.empty());  // nothing was half-added
}

TEST(GenerateSchedule, SameConfigSameStream) {
  FaultScheduleConfig config;
  config.users = 6;
  config.routers = 2;
  config.seed = 99;
  config.intensity = 2.0;
  const FaultSchedule a = generate_schedule(config);
  const FaultSchedule b = generate_schedule(config);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].type, b.events()[i].type);
    EXPECT_EQ(a.events()[i].target, b.events()[i].target);
    EXPECT_EQ(a.events()[i].start_slot, b.events()[i].start_slot);
    EXPECT_EQ(a.events()[i].duration_slots, b.events()[i].duration_slots);
    EXPECT_DOUBLE_EQ(a.events()[i].severity, b.events()[i].severity);
  }
}

TEST(GenerateSchedule, SeedChangesStream) {
  FaultScheduleConfig config;
  config.intensity = 2.0;
  config.seed = 1;
  const FaultSchedule a = generate_schedule(config);
  config.seed = 2;
  const FaultSchedule b = generate_schedule(config);
  bool differs = a.size() != b.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a.events()[i].start_slot != b.events()[i].start_slot ||
              a.events()[i].target != b.events()[i].target;
  }
  EXPECT_TRUE(differs);
}

TEST(GenerateSchedule, ZeroIntensityIsEmpty) {
  FaultScheduleConfig config;
  config.intensity = 0.0;
  EXPECT_TRUE(generate_schedule(config).empty());
}

TEST(GenerateSchedule, IntensityScalesEventCount) {
  FaultScheduleConfig low;
  low.slots = 5000;
  low.intensity = 0.5;
  FaultScheduleConfig high = low;
  high.intensity = 4.0;
  EXPECT_GT(generate_schedule(high).size(), generate_schedule(low).size());
}

TEST(GenerateSchedule, EventsRespectTargetAndSlotRanges) {
  FaultScheduleConfig config;
  config.users = 5;
  config.routers = 2;
  config.slots = 600;
  config.intensity = 3.0;
  const FaultSchedule schedule = generate_schedule(config);
  for (const FaultEvent& e : schedule.events()) {
    EXPECT_LT(e.start_slot, config.slots);
    EXPECT_GE(e.duration_slots, 1u);
    switch (e.type) {
      case FaultType::kRouterOutage:
        EXPECT_LT(e.target, config.routers);
        EXPECT_GE(e.severity, 0.0);
        EXPECT_LT(e.severity, 1.0);
        break;
      case FaultType::kCacheFlush:
        break;
      default:
        EXPECT_LT(e.target, config.users);
    }
  }
}

TEST(GenerateSchedule, RejectsBadConfigs) {
  FaultScheduleConfig config;
  config.users = 0;
  EXPECT_THROW(generate_schedule(config), std::invalid_argument);
  config = FaultScheduleConfig{};
  config.intensity = -1.0;
  EXPECT_THROW(generate_schedule(config), std::invalid_argument);
  config = FaultScheduleConfig{};
  config.mean_duration_slots = 0;
  EXPECT_THROW(generate_schedule(config), std::invalid_argument);
  config = FaultScheduleConfig{};
  config.outage_depth = 1.5;
  EXPECT_THROW(generate_schedule(config), std::invalid_argument);
}

TEST(FaultSchedule, ServerCrashIsScopedToItsServer) {
  FaultSchedule schedule;
  schedule.add(make_event(FaultType::kServerCrash, 1, 100, 50));
  EXPECT_FALSE(schedule.server_crashed(1, 99));
  EXPECT_TRUE(schedule.server_crashed(1, 100));
  EXPECT_TRUE(schedule.server_crashed(1, 149));
  EXPECT_FALSE(schedule.server_crashed(1, 150));  // restart slot
  EXPECT_FALSE(schedule.server_crashed(0, 120));  // wrong server
  // Server events never count as per-user faults: membership is the
  // fleet controller's state, not the schedule's.
  EXPECT_FALSE(schedule.any_fault_for_user(0, 0, 120));
}

TEST(FaultSchedule, ServerRecoverTruncatesTheFirstCoveringCrash) {
  FaultSchedule schedule;
  schedule.add(make_event(FaultType::kServerCrash, 0, 100, 200));
  schedule.add(make_event(FaultType::kServerRecover, 0, 140, 1));
  EXPECT_TRUE(schedule.server_crashed(0, 120));
  EXPECT_TRUE(schedule.server_crashed(0, 139));
  EXPECT_FALSE(schedule.server_crashed(0, 140));  // restarted early
  EXPECT_FALSE(schedule.server_crashed(0, 250));
  // A recover for another server truncates nothing.
  FaultSchedule other;
  other.add(make_event(FaultType::kServerCrash, 0, 100, 200));
  other.add(make_event(FaultType::kServerRecover, 1, 140, 1));
  EXPECT_TRUE(other.server_crashed(0, 150));
  // A recover with no covering crash is inert.
  FaultSchedule inert;
  inert.add(make_event(FaultType::kServerRecover, 0, 40, 1));
  EXPECT_FALSE(inert.server_crashed(0, 40));
}

TEST(FaultSchedule, ServerPartitionIsItsOwnQuery) {
  FaultSchedule schedule;
  schedule.add(make_event(FaultType::kFleetPartition, 2, 10, 20));
  EXPECT_TRUE(schedule.server_partitioned(2, 15));
  EXPECT_FALSE(schedule.server_partitioned(2, 30));
  EXPECT_FALSE(schedule.server_partitioned(1, 15));
  EXPECT_FALSE(schedule.server_crashed(2, 15));  // partition != crash
}

TEST(GenerateSchedule, ZeroServersIsByteIdenticalToLegacyOutput) {
  FaultScheduleConfig legacy;
  legacy.intensity = 2.0;
  ASSERT_EQ(legacy.servers, 0u);  // the default keeps the old stream

  FaultScheduleConfig fleet = legacy;
  fleet.servers = 3;
  const FaultSchedule fleet_schedule = generate_schedule(fleet);
  const FaultSchedule legacy_schedule = generate_schedule(legacy);
  const auto& with_servers = fleet_schedule.events();
  const auto& without = legacy_schedule.events();

  // Fleet draws are appended after every legacy draw: stripping the
  // server-scoped events recovers the legacy stream event-for-event.
  std::vector<FaultEvent> stripped;
  for (const FaultEvent& e : with_servers) {
    if (e.type == FaultType::kServerCrash ||
        e.type == FaultType::kServerRecover ||
        e.type == FaultType::kFleetPartition) {
      EXPECT_LT(e.target, fleet.servers);
      continue;
    }
    stripped.push_back(e);
  }
  ASSERT_EQ(stripped.size(), without.size());
  for (std::size_t i = 0; i < stripped.size(); ++i) {
    EXPECT_EQ(static_cast<int>(stripped[i].type),
              static_cast<int>(without[i].type));
    EXPECT_EQ(stripped[i].target, without[i].target);
    EXPECT_EQ(stripped[i].start_slot, without[i].start_slot);
    EXPECT_EQ(stripped[i].duration_slots, without[i].duration_slots);
    EXPECT_EQ(stripped[i].severity, without[i].severity);
  }
  // And the fleet path does generate server events at this intensity.
  EXPECT_GT(with_servers.size(), without.size());
}

TEST(RecoveryTracker, HealthyRunStaysAllZero) {
  RecoveryTracker tracker;
  for (int i = 0; i < 100; ++i) tracker.record_slot(false, true, 3.0, true);
  tracker.finalize();
  EXPECT_EQ(tracker.fault_slots(), 0u);
  EXPECT_EQ(tracker.episodes(), 0u);
  EXPECT_DOUBLE_EQ(tracker.mean_time_to_recover_slots(), 0.0);
  EXPECT_DOUBLE_EQ(tracker.quality_dip_depth(), 0.0);
  EXPECT_EQ(tracker.frames_dropped_in_fault(), 0u);
}

TEST(RecoveryTracker, MeasuresRecoveryAfterFaultWindow) {
  RecoveryTracker tracker;
  for (int i = 0; i < 10; ++i) tracker.record_slot(false, true, 4.0, true);
  // A 5-slot fault: nothing displayed, frames dropped.
  for (int i = 0; i < 5; ++i) tracker.record_slot(true, false, 0.0, false);
  // Two degraded post-fault slots, then the first correct view.
  tracker.record_slot(false, false, 0.0, true);
  tracker.record_slot(false, false, 0.0, true);
  tracker.record_slot(false, true, 4.0, true);  // recovered (3rd slot after)
  for (int i = 0; i < 10; ++i) tracker.record_slot(false, true, 4.0, true);
  tracker.finalize();
  EXPECT_EQ(tracker.fault_slots(), 5u);
  EXPECT_EQ(tracker.frames_dropped_in_fault(), 5u);
  ASSERT_EQ(tracker.episodes(), 1u);
  EXPECT_DOUBLE_EQ(tracker.mean_time_to_recover_slots(), 3.0);
  EXPECT_DOUBLE_EQ(tracker.max_time_to_recover_slots(), 3.0);
  EXPECT_GT(tracker.quality_dip_depth(), 0.0);
}

TEST(RecoveryTracker, CensorsRecoveryAtHorizon) {
  RecoveryTracker tracker;
  tracker.record_slot(false, true, 4.0, true);
  for (int i = 0; i < 3; ++i) tracker.record_slot(true, false, 0.0, false);
  // The horizon ends with the user still degraded: the open recovery
  // window is counted (censored), not dropped.
  tracker.record_slot(false, false, 0.0, false);
  tracker.record_slot(false, false, 0.0, false);
  tracker.finalize();
  ASSERT_EQ(tracker.episodes(), 1u);
  EXPECT_DOUBLE_EQ(tracker.mean_time_to_recover_slots(), 2.0);
}

}  // namespace
}  // namespace cvr::faults
