// Deterministic fault injection for the system emulation.
//
// The paper's robustness story (Figs. 7/8) exercises *continuous* stress
// — fading, interference bursts, RTP loss. Real deployments also face
// *discrete* faults: clients disconnecting and rejoining, pose-upload
// blackouts, ACK side-channel stalls, bandwidth cliffs, and server
// restarts that wipe warm state. A FaultSchedule is a typed, sorted
// list of such events that system::SystemSim consumes per slot; the
// schedule is pure data, so the same schedule replays bit-identically
// and an *empty* schedule leaves the emulation byte-for-byte unchanged
// (faults are strictly opt-in).
//
// Schedules can be hand-built (add()) or generated deterministically
// from a seed + intensity (generate_schedule()), the knob
// bench/resilience_chaos sweeps. See docs/resilience.md.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cvr::faults {

enum class FaultType {
  /// The user's device drops off the network entirely for the window:
  /// no pose uploads, no tile delivery, no feedback of any kind. The
  /// reconnect is the window's end — disconnect/reconnect churn is one
  /// event, not two.
  kUserDisconnect,
  /// Pose uploads from the user are lost for the window; tiles and
  /// feedback still flow. This is the fault the pose-staleness watchdog
  /// (system::Server) exists for.
  kPoseBlackout,
  /// The client->server TCP side channel stalls: delivery/release ACKs
  /// and all measurement feedback (bandwidth, delay, loss, coverage)
  /// are lost for the window. Exercises the stale-estimate hold.
  kAckStall,
  /// The router's capacity collapses to `severity` x nominal for the
  /// window (0 = total outage, 0.1 = a 90% cliff). Targets a router, so
  /// it hits every user behind it at once.
  kRouterOutage,
  /// The server loses its warm state at start_slot: every user's
  /// delivered-tile tracker is emptied, so tiles the clients already
  /// hold are sent again (a crash-restart that keeps the allocator's
  /// estimators alive). Instantaneous; duration_slots only widens the
  /// recovery-accounting window.
  kCacheFlush,
  /// Fleet scope (fleet::FleetSim, docs/fleet.md): edge server `target`
  /// is down for the window — its members are orphaned and must be
  /// re-admitted to survivors. The window's end is the restart unless a
  /// kServerRecover truncates it earlier. Ignored by system::SystemSim
  /// (single-server runs have no fleet to fail over to).
  kServerCrash,
  /// Explicit early restart of server `target`: the first crash window
  /// covering start_slot ends here instead of running its full
  /// duration. A recover with no covering crash is inert.
  kServerRecover,
  /// Edge server `target` is partitioned from the fleet controller for
  /// the window: it keeps serving its members on a frozen budget, but
  /// no users migrate in or out and budget rebalancing skips it.
  kFleetPartition,
};

/// One typed fault. `target` is a user index (kUserDisconnect,
/// kPoseBlackout, kAckStall), a router index (kRouterOutage), a server
/// index (kServerCrash, kServerRecover, kFleetPartition), or unused
/// (kCacheFlush). The event is active on slots
/// [start_slot, start_slot + duration_slots).
struct FaultEvent {
  /// Which failure this event injects; selects how `target` and
  /// `severity` are interpreted (see FaultType).
  FaultType type = FaultType::kPoseBlackout;
  /// User index for user-targeted types, router index for
  /// kRouterOutage, ignored for kCacheFlush.
  std::size_t target = 0;
  /// First slot (inclusive) on which the fault is active.
  std::size_t start_slot = 0;
  /// Window length in slots; must be >= 1 (enforced by
  /// FaultSchedule::add). For kCacheFlush the flush itself fires only
  /// at start_slot — the duration just widens recovery accounting.
  std::size_t duration_slots = 1;
  /// kRouterOutage only: capacity multiplier during the window, in
  /// [0, 1). Ignored by the other types.
  double severity = 0.0;

  /// One past the last active slot.
  std::size_t end_slot() const { return start_slot + duration_slots; }
  /// True iff `slot` falls in [start_slot, end_slot()).
  bool active_at(std::size_t slot) const {
    return slot >= start_slot && slot < end_slot();
  }
};

/// One user's fault flags for one slot (FaultSchedule::user_faults).
struct UserFaults {
  bool disconnected = false;   ///< user_disconnected
  bool pose_blackout = false;  ///< pose_blackout
  bool ack_stalled = false;    ///< ack_stalled
  bool any = false;            ///< any_fault_for_user
};

class FaultSchedule {
 public:
  FaultSchedule() = default;

  /// Appends an event, keeping the list sorted by start_slot (stable —
  /// ties keep insertion order). Throws std::invalid_argument on
  /// duration_slots == 0, a non-finite or out-of-[0,1) severity on a
  /// router outage, or a start_slot + duration_slots overflow.
  void add(FaultEvent event);

  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  const std::vector<FaultEvent>& events() const { return events_; }

  /// Per-slot queries. Each scans only the queried target's events of
  /// the queried type (an index add() keeps), up to the first that
  /// starts after `slot`. An empty schedule answers false / 1.0
  /// everywhere.
  bool user_disconnected(std::size_t user, std::size_t slot) const;
  bool pose_blackout(std::size_t user, std::size_t slot) const;
  bool ack_stalled(std::size_t user, std::size_t slot) const;
  /// Product of the severities of every outage active on the router
  /// this slot; 1.0 when none.
  double router_capacity_multiplier(std::size_t router,
                                    std::size_t slot) const;
  /// True iff a kCacheFlush fires exactly at `slot`.
  bool cache_flush_at(std::size_t slot) const;

  /// Fleet scope: true iff a kServerCrash on `server` covers `slot` and
  /// no kServerRecover for the same server truncated it — a recover
  /// whose start lies in (crash start, slot] ends that crash window
  /// early. Single-server platforms never call this.
  bool server_crashed(std::size_t server, std::size_t slot) const;
  /// Fleet scope: true iff a kFleetPartition on `server` is active.
  bool server_partitioned(std::size_t server, std::size_t slot) const;

  /// Fault-window indicator for recovery accounting: true iff any event
  /// touching this user is active — a user-targeted event, an outage on
  /// the user's router, or a cache flush (which hits everyone).
  /// Server-scoped events never contribute: user→server membership is
  /// the fleet controller's state, so fleet::FleetSim folds orphaned
  /// slots into the recovery window itself.
  bool any_fault_for_user(std::size_t user, std::size_t router,
                          std::size_t slot) const;

  /// The four per-user answers above for one (user, router, slot), from
  /// one scan of each row involved: field for field equal to
  /// user_disconnected, pose_blackout, ack_stalled and
  /// any_fault_for_user. The slot step asks this once per member.
  UserFaults user_faults(std::size_t user, std::size_t router,
                         std::size_t slot) const;

  /// Largest end_slot across events (0 when empty).
  std::size_t horizon() const;

 private:
  /// One target's events of one type, in the order of events_.
  struct Row {
    std::size_t target = 0;
    std::vector<FaultEvent> events;
  };
  static constexpr std::size_t kTypeCount =  // kFleetPartition is last
      static_cast<std::size_t>(FaultType::kFleetPartition) + 1;

  /// The events of `type` on `target` (empty when there are none).
  /// kCacheFlush events have no target; add() files them all under 0.
  std::span<const FaultEvent> row(FaultType type, std::size_t target) const;

  std::vector<FaultEvent> events_;  // sorted by start_slot
  /// The query index, built eagerly by add() so const queries on a
  /// shared schedule only read: per type, rows sorted by target.
  std::array<std::vector<Row>, kTypeCount> rows_;
};

/// Deterministic schedule generation: same config (seed included) =>
/// the same event stream, independent of platform or call site. Event
/// counts scale linearly with `intensity` (0 => an empty schedule); the
/// per-type rates are expected events per 1000 slots per target at
/// intensity 1.
struct FaultScheduleConfig {
  std::size_t users = 8;     ///< Users to draw user-targeted events for.
  std::size_t routers = 1;   ///< Routers to draw outages for.
  std::size_t slots = 1980;  ///< Horizon; events start in [0, slots).
  std::uint64_t seed = 2022; ///< RNG seed; same seed => same schedule.
  /// Global event-count multiplier: expected counts scale linearly and
  /// 0 produces an empty (strictly inert) schedule.
  double intensity = 1.0;
  double churn_rate = 0.4;          ///< kUserDisconnect, per user.
  double pose_blackout_rate = 0.4;  ///< kPoseBlackout, per user.
  double ack_stall_rate = 0.4;      ///< kAckStall, per user.
  double router_outage_rate = 0.5;  ///< kRouterOutage, per router.
  double cache_flush_rate = 0.2;    ///< kCacheFlush, global.
  /// Mean fault duration; actual durations are uniform in
  /// [1, 2 * mean_duration_slots - 1].
  std::size_t mean_duration_slots = 40;
  /// Severity used for generated router outages.
  double outage_depth = 0.1;

  /// Fleet scope (docs/fleet.md). 0 servers keeps the generator
  /// byte-identical to its pre-fleet output: the server-scoped draws
  /// are appended strictly after every legacy draw and only when
  /// servers > 0, so any existing (seed, config) pair still produces
  /// the exact event stream it always did.
  std::size_t servers = 0;          ///< Servers to draw fleet events for.
  double server_crash_rate = 0.3;   ///< kServerCrash, per server.
  double fleet_partition_rate = 0.15;  ///< kFleetPartition, per server.
};

/// Throws std::invalid_argument on zero users/routers/slots, a negative
/// or non-finite intensity or rate, a zero mean duration, or an
/// out-of-range outage_depth.
FaultSchedule generate_schedule(const FaultScheduleConfig& config);

}  // namespace cvr::faults
