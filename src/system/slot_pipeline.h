// The slot engine shared by system::SystemSim (one edge server) and
// fleet::FleetSim (K edge servers behind a controller; docs/fleet.md).
// Both run a slot as step_server per edge server, serve_routers, then
// serve_member per served user, around the per-repeat state in SimRun.
// SystemSim steps one EdgeServer that serves every user uncapped; the
// fleet steps K of them, serially or fanned out. So a K=1 fleet with an
// empty fault schedule is bit-identical to SystemSim (FleetK1.* in
// tests/fleet_test.cpp), and tests/slot_golden_test.cpp pins both.
//
// Layering: the access network (routers, throttles) is keyed by user
// and does not move when a user migrates between edge servers — the
// radio link is where the user is, the compute is wherever the fleet
// controller says. Only the serving EdgeServer changes hands.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/allocator.h"
#include "src/core/qoe.h"
#include "src/core/slot_arena.h"
#include "src/faults/fault_schedule.h"
#include "src/faults/recovery.h"
#include "src/net/ack_channel.h"
#include "src/net/rtp_transport.h"
#include "src/net/wireless_channel.h"
#include "src/proto/messages.h"
#include "src/system/client.h"
#include "src/system/server.h"
#include "src/system/system_sim.h"
#include "src/system/timeline.h"
#include "src/telemetry/telemetry.h"
#include "src/util/rng.h"

namespace cvr::system {

/// One user's client-side world: motion trace, device, transport, QoE
/// and recovery accounting, plus the TCP side channels ACKs ride.
struct UserWorld {
  motion::MotionTrace trace;
  Client client;
  net::RtpTransport transport;
  core::UserQoeAccumulator qoe;
  std::size_t hits = 0;
  // ACKs ride a zero-latency side channel, by value, so a fault can
  // black it out; with no blackout the send/receive round-trip inside
  // one slot is exactly a direct call.
  net::AckChannel<proto::DeliveryAck> delivery_channel{0};
  net::AckChannel<proto::ReleaseAck> release_channel{0};
  faults::RecoveryTracker recovery;
};

/// The user-keyed radio access layer: which router each user sits
/// behind and at which index among its members, the per-router member
/// lists, and the routers themselves.
struct AccessNetwork {
  std::vector<std::size_t> router_of;
  /// User u's index in router_users[router_of[u]] (its per-user lane in
  /// the router).
  std::vector<std::size_t> index_in_router;
  std::vector<std::vector<std::size_t>> router_users;
  std::vector<net::Router> routers;
};

/// Builds every user's world for one repeat — deterministic in
/// (config.seed, repeat) and independent of server topology.
std::vector<UserWorld> build_user_worlds(const SystemSimConfig& config,
                                         std::size_t repeat);

/// One repeat of a run, before and after its slots. Construction resets
/// the allocator, labels the trace processes, derives the shared
/// measurement RNG from (config.seed, repeat), draws the access network
/// from it, and builds the user worlds.
class SimRun {
 public:
  SimRun(const SystemSimConfig& config, std::size_t repeat,
         core::Allocator& allocator, Timeline* timeline,
         telemetry::Collector* collector);

  /// Folds every user's world into its sim::UserOutcome (QoE, hit rate,
  /// FPS, recovery accounting), in user order.
  std::vector<sim::UserOutcome> finalize();

  const SystemSimConfig& config;
  /// `collector`, or nullptr when it does not count.
  telemetry::Collector* telemetry;
  Timeline* timeline;
  const ServerConfig server_config;  ///< Every edge server's config.
  motion::FovSpec unmargined;  ///< Ground-truth FoV (margin stripped).
  cvr::Rng rng;                ///< Shared measurement-noise stream.
  AccessNetwork net;
  std::vector<UserWorld> worlds;
  // User-indexed lanes. step_server writes only its own members'
  // entries, so steps of distinct servers never write the same one.
  /// Constraint-(7) level cap per user; kNumQualityLevels = no cap.
  std::vector<core::QualityLevel> cap;
  /// Each served user's index into its server's problem and allocation.
  std::vector<std::size_t> member_index;
  /// This slot's fault flags per user, asked of the schedule once per
  /// member by step_server before its pose ingest; the ingest, the
  /// request loop and serve_member read them.
  std::vector<faults::UserFaults> user_faults;
  /// This slot's tile request per user, rewritten in place each slot.
  std::vector<TileRequest> requests;
  // Written by serve_routers, after every step_server of the slot.
  /// This slot's router grant per user.
  std::vector<double> granted;
  /// Per-router demand gather and grant scratch, recycled across slots.
  std::vector<double> router_demands;
  std::vector<double> router_grants;

  /// serve_member's working storage, recycled from user to user and
  /// slot to slot so a served user makes no heap allocation in steady
  /// state: the client's delivery (a view of the request's tiles plus
  /// per-tile completeness), the actual-FoV tiles, the client's
  /// outcome, the outgoing ACK messages (filled in place and sent by
  /// value), and the receive vectors the ACK channels drain into.
  struct ServeScratch {
    SlotDelivery delivery;
    std::vector<content::VideoId> needed;
    DisplayOutcome outcome;
    proto::DeliveryAck delivery_ack;
    proto::ReleaseAck release_ack;
    std::vector<proto::DeliveryAck> delivery_received;
    std::vector<proto::ReleaseAck> release_received;
  } serve;
};

/// One edge server and its per-slot working storage: the arena recycles
/// the SlotProblem the server builds into and the allocation keeps its
/// levels capacity, so the pose ingest -> estimate -> allocate hot path
/// stays heap-allocation-free in steady state (see
/// src/core/slot_arena.h).
struct EdgeServer {
  EdgeServer(const ServerConfig& config, std::size_t users)
      : server(config, users) {}

  Server server;
  core::SlotArena arena;
  core::Allocation allocation;
  /// The users this server serves this slot, in problem order.
  std::vector<std::size_t> members;
  double budget = 0.0;  ///< This slot's server bandwidth B (constraint (6)).
};

/// Applies the slot's router fault multipliers and steps every router.
void step_routers(AccessNetwork& net, const faults::FaultSchedule& faults,
                  std::size_t t);

/// One edge server's slot t: its members' fault flags
/// (run.user_faults), pose ingest for its members (on upload slots),
/// the budget, the problem build, the members' level caps,
/// `allocator`'s solve, each member's tile request (an idle one for a
/// disconnected user) and, with online rendering, the render farm.
/// Writes run.user_faults, run.member_index and run.requests for the
/// members only and draws nothing from run.rng. A server with no members solves nothing.
void step_server(SimRun& run, EdgeServer& edge, core::Allocator& allocator,
                 std::size_t t);

/// Router service for the slot: per-router gather of run.requests'
/// demands, serve, and grant scatter back to user indexing. Writes and
/// returns run.granted.
const std::vector<double>& serve_routers(SimRun& run, std::int64_t slot);

/// Serves member `u` of `edge` its slot t, given the router's grant,
/// after `edge`'s step_server of slot t (it reads run.user_faults). A
/// disconnected user goes through serve_absent_user. A connected one
/// takes the full path: realized delay, RTP transmission, ground-truth
/// coverage, decode, footnote-1 fallback, QoE + recovery accounting,
/// and the feedback channels back to the server unless its ACK channel
/// is stalled — in which case it draws nothing from run.rng; otherwise
/// it draws exactly once (the bandwidth measurement's noise).
void serve_member(SimRun& run, EdgeServer& edge, std::size_t u, std::size_t t,
                  double granted);

/// The slot outcome of a user who is off the network (disconnected
/// fault) or orphaned by a crashed edge server: nothing delivered,
/// nothing displayed, no feedback; the chosen level still enters the
/// level average with zero displayed quality and the missed frame
/// depresses FPS naturally. Always counts as a fault slot.
void serve_absent_user(SimRun& run, std::size_t u, std::size_t t,
                       core::QualityLevel level, double delta_estimate,
                       double bandwidth_estimate);

}  // namespace cvr::system
