#include "src/faults/fault_schedule.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/util/rng.h"

namespace cvr::faults {

namespace {
/// Inserts `event` after every event that starts no later, so the list
/// stays sorted by start_slot and ties keep insertion order.
void insert_by_start(std::vector<FaultEvent>& events, const FaultEvent& event) {
  const auto at = std::upper_bound(
      events.begin(), events.end(), event,
      [](const FaultEvent& a, const FaultEvent& b) {
        return a.start_slot < b.start_slot;
      });
  events.insert(at, event);
}

/// Orders index rows by target, for lower_bound.
constexpr auto target_below = [](const auto& row, std::size_t target) {
  return row.target < target;
};

/// True iff an event of `events` (sorted by start_slot) covers `slot`.
bool any_active(std::span<const FaultEvent> events, std::size_t slot) {
  for (const FaultEvent& e : events) {
    if (e.start_slot > slot) break;
    if (e.active_at(slot)) return true;
  }
  return false;
}
}  // namespace

void FaultSchedule::add(FaultEvent event) {
  if (event.duration_slots == 0) {
    throw std::invalid_argument("FaultSchedule: zero-duration event");
  }
  if (event.start_slot >
      std::numeric_limits<std::size_t>::max() - event.duration_slots) {
    throw std::invalid_argument("FaultSchedule: start + duration overflows");
  }
  if (event.type == FaultType::kRouterOutage &&
      (!std::isfinite(event.severity) || event.severity < 0.0 ||
       event.severity >= 1.0)) {
    throw std::invalid_argument(
        "FaultSchedule: router outage severity must be in [0, 1)");
  }
  insert_by_start(events_, event);
  // The same stable insertion keeps each row in events_ order.
  std::vector<Row>& rows = rows_[static_cast<std::size_t>(event.type)];
  const std::size_t target =
      event.type == FaultType::kCacheFlush ? 0 : event.target;
  auto at = std::lower_bound(rows.begin(), rows.end(), target, target_below);
  if (at == rows.end() || at->target != target) {
    at = rows.insert(at, Row{target, {}});
  }
  insert_by_start(at->events, event);
}

std::span<const FaultEvent> FaultSchedule::row(FaultType type,
                                               std::size_t target) const {
  const std::vector<Row>& rows = rows_[static_cast<std::size_t>(type)];
  const auto at =
      std::lower_bound(rows.begin(), rows.end(), target, target_below);
  if (at == rows.end() || at->target != target) return {};
  return at->events;
}

bool FaultSchedule::user_disconnected(std::size_t user,
                                      std::size_t slot) const {
  return any_active(row(FaultType::kUserDisconnect, user), slot);
}

bool FaultSchedule::pose_blackout(std::size_t user, std::size_t slot) const {
  return any_active(row(FaultType::kPoseBlackout, user), slot);
}

bool FaultSchedule::ack_stalled(std::size_t user, std::size_t slot) const {
  return any_active(row(FaultType::kAckStall, user), slot);
}

double FaultSchedule::router_capacity_multiplier(std::size_t router,
                                                 std::size_t slot) const {
  // Multiplied in start-slot order, as the events are listed: the
  // product of several outages is order-sensitive in the last bit.
  double multiplier = 1.0;
  for (const FaultEvent& e : row(FaultType::kRouterOutage, router)) {
    if (e.start_slot > slot) break;
    if (e.active_at(slot)) multiplier *= e.severity;
  }
  return multiplier;
}

bool FaultSchedule::cache_flush_at(std::size_t slot) const {
  for (const FaultEvent& e : row(FaultType::kCacheFlush, 0)) {
    if (e.start_slot > slot) break;
    if (e.start_slot == slot) return true;
  }
  return false;
}

bool FaultSchedule::server_crashed(std::size_t server,
                                   std::size_t slot) const {
  const std::span<const FaultEvent> recovers =
      row(FaultType::kServerRecover, server);
  for (const FaultEvent& e : row(FaultType::kServerCrash, server)) {
    if (e.start_slot > slot) break;
    if (!e.active_at(slot)) continue;
    // A recover starting after this crash began and at or before `slot`
    // truncates the window — the server restarted early.
    bool truncated = false;
    for (const FaultEvent& r : recovers) {
      if (r.start_slot > slot) break;
      if (r.start_slot > e.start_slot) {
        truncated = true;
        break;
      }
    }
    if (!truncated) return true;
  }
  return false;
}

bool FaultSchedule::server_partitioned(std::size_t server,
                                       std::size_t slot) const {
  return any_active(row(FaultType::kFleetPartition, server), slot);
}

bool FaultSchedule::any_fault_for_user(std::size_t user, std::size_t router,
                                       std::size_t slot) const {
  // Server-scoped events never count: membership lives in the fleet
  // controller, which accounts orphaned slots itself (see header). A
  // cache flush hits everyone.
  return any_active(row(FaultType::kUserDisconnect, user), slot) ||
         any_active(row(FaultType::kPoseBlackout, user), slot) ||
         any_active(row(FaultType::kAckStall, user), slot) ||
         any_active(row(FaultType::kRouterOutage, router), slot) ||
         any_active(row(FaultType::kCacheFlush, 0), slot);
}

UserFaults FaultSchedule::user_faults(std::size_t user, std::size_t router,
                                      std::size_t slot) const {
  UserFaults flags;
  flags.disconnected =
      any_active(row(FaultType::kUserDisconnect, user), slot);
  flags.pose_blackout = any_active(row(FaultType::kPoseBlackout, user), slot);
  flags.ack_stalled = any_active(row(FaultType::kAckStall, user), slot);
  flags.any = flags.disconnected || flags.pose_blackout ||
              flags.ack_stalled ||
              any_active(row(FaultType::kRouterOutage, router), slot) ||
              any_active(row(FaultType::kCacheFlush, 0), slot);
  return flags;
}

std::size_t FaultSchedule::horizon() const {
  std::size_t end = 0;
  for (const FaultEvent& e : events_) end = std::max(end, e.end_slot());
  return end;
}

namespace {
void validate(const FaultScheduleConfig& config) {
  if (config.users == 0 || config.routers == 0 || config.slots == 0) {
    throw std::invalid_argument(
        "FaultScheduleConfig: zero users/routers/slots");
  }
  if (config.mean_duration_slots == 0) {
    throw std::invalid_argument("FaultScheduleConfig: zero mean duration");
  }
  const double rates[] = {config.intensity,         config.churn_rate,
                          config.pose_blackout_rate, config.ack_stall_rate,
                          config.router_outage_rate, config.cache_flush_rate,
                          config.server_crash_rate,
                          config.fleet_partition_rate};
  for (double r : rates) {
    if (!std::isfinite(r) || r < 0.0) {
      throw std::invalid_argument(
          "FaultScheduleConfig: rates and intensity must be finite and >= 0");
    }
  }
  if (!std::isfinite(config.outage_depth) || config.outage_depth < 0.0 ||
      config.outage_depth >= 1.0) {
    throw std::invalid_argument(
        "FaultScheduleConfig: outage_depth must be in [0, 1)");
  }
}

/// Deterministic expected-count rounding: floor(expected) events plus
/// one more with probability frac(expected) — drawn from `rng`, so the
/// count itself is part of the seeded stream.
std::size_t draw_count(cvr::Rng& rng, double expected) {
  const double floor_part = std::floor(expected);
  std::size_t count = static_cast<std::size_t>(floor_part);
  if (rng.uniform() < expected - floor_part) ++count;
  return count;
}
}  // namespace

FaultSchedule generate_schedule(const FaultScheduleConfig& config) {
  validate(config);
  FaultSchedule schedule;
  cvr::SplitMix64 mixer(config.seed ^ 0xFA017ull);
  cvr::Rng rng(mixer.next());
  const double slots_k = static_cast<double>(config.slots) / 1000.0;

  auto draw_duration = [&rng, &config]() {
    const std::int64_t hi =
        2 * static_cast<std::int64_t>(config.mean_duration_slots) - 1;
    return static_cast<std::size_t>(rng.uniform_int(1, std::max<std::int64_t>(1, hi)));
  };
  auto draw_start = [&rng, &config]() {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(config.slots) - 1));
  };

  struct PerTarget {
    FaultType type;
    double rate;
    std::size_t targets;
  };
  const PerTarget user_types[] = {
      {FaultType::kUserDisconnect, config.churn_rate, config.users},
      {FaultType::kPoseBlackout, config.pose_blackout_rate, config.users},
      {FaultType::kAckStall, config.ack_stall_rate, config.users},
      {FaultType::kRouterOutage, config.router_outage_rate, config.routers},
  };
  // Fixed draw order (type-major, target-minor) keeps the stream
  // deterministic: same config => same events, independent of use.
  for (const PerTarget& t : user_types) {
    for (std::size_t target = 0; target < t.targets; ++target) {
      const std::size_t count =
          draw_count(rng, t.rate * config.intensity * slots_k);
      for (std::size_t i = 0; i < count; ++i) {
        FaultEvent event;
        event.type = t.type;
        event.target = target;
        event.start_slot = draw_start();
        event.duration_slots = draw_duration();
        if (t.type == FaultType::kRouterOutage) {
          event.severity = config.outage_depth;
        }
        schedule.add(event);
      }
    }
  }
  const std::size_t flushes =
      draw_count(rng, config.cache_flush_rate * config.intensity * slots_k);
  for (std::size_t i = 0; i < flushes; ++i) {
    FaultEvent event;
    event.type = FaultType::kCacheFlush;
    event.start_slot = draw_start();
    event.duration_slots = config.mean_duration_slots;  // accounting window
    schedule.add(event);
  }
  // Fleet-scoped draws come strictly last and only when servers > 0, so
  // a pre-fleet config consumes the exact RNG stream it always did and
  // reproduces its historical schedule bit-for-bit (guarded by the
  // faults.fleet_events_appended property).
  if (config.servers > 0) {
    const PerTarget server_types[] = {
        {FaultType::kServerCrash, config.server_crash_rate, config.servers},
        {FaultType::kFleetPartition, config.fleet_partition_rate,
         config.servers},
    };
    for (const PerTarget& t : server_types) {
      for (std::size_t target = 0; target < t.targets; ++target) {
        const std::size_t count =
            draw_count(rng, t.rate * config.intensity * slots_k);
        for (std::size_t i = 0; i < count; ++i) {
          FaultEvent event;
          event.type = t.type;
          event.target = target;
          event.start_slot = draw_start();
          event.duration_slots = draw_duration();
          schedule.add(event);
        }
      }
    }
  }
  return schedule;
}

}  // namespace cvr::faults
