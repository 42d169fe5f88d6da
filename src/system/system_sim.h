// The Sections V-VI prototype as a discrete-event emulation.
//
// Experiment setups (Section VI):
//   * setup 1 — 8 users, one 802.11ac router (400 Mbps aggregate);
//   * setup 2 — 15 users, two bridged routers (800 Mbps aggregate) with
//     interference mode on ("the variance of the bandwidth capacity is
//     even larger with two routers working together").
// Per-user Linux-TC throttles are drawn from {40, 45, 50, 55, 60} Mbps;
// alpha = 0.1, beta = 0.5; 5 repeats are averaged.
//
// Unlike the Section-IV simulator, the server works from *estimates*
// (EMA bandwidth, polynomial delay regression, delayed poses) and the
// network bites back (fading, interference bursts, RTP packet loss,
// decode deadlines) — reproducing why Firefly/PAVQ degrade in Figs. 7/8
// while the DV-greedy allocator stays robust.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/allocator.h"
#include "src/faults/fault_schedule.h"
#include "src/motion/motion_generator.h"
#include "src/net/rtp_transport.h"
#include "src/net/wireless_channel.h"
#include "src/render/render_farm.h"
#include "src/sim/metrics.h"
#include "src/system/client.h"
#include "src/telemetry/telemetry.h"
#include "src/system/device.h"
#include "src/system/server.h"
#include "src/system/timeline.h"

namespace cvr::system {

/// How users map onto routers. The paper "split the 15 users into two
/// groups" — a contiguous split (8 then 7) rather than interleaving.
enum class RouterAssignment {
  kRoundRobin,  ///< u % routers.
  kSplit,       ///< Contiguous groups of ceil(users / routers).
};

struct SystemSimConfig {
  std::size_t users = 8;
  std::size_t routers = 1;
  RouterAssignment router_assignment = RouterAssignment::kSplit;
  double router_aggregate_mbps = 400.0;  ///< Per router.
  std::vector<double> throttle_pool_mbps = {40.0, 45.0, 50.0, 55.0, 60.0};
  std::size_t slots = 1980;  ///< 30 s at 66 FPS per repeat.
  std::uint64_t seed = 11;
  /// Log-domain noise on the server's per-slot bandwidth measurement.
  double bandwidth_measurement_sigma = 0.15;
  /// Pose uploads happen every k-th slot (Section V: "periodically").
  /// 1 = every slot; larger saves uplink at the cost of staler
  /// predictions (`bench/ablation_pose_rate`).
  std::size_t pose_upload_period = 1;
  /// Cap on the delay fed into QoE accounting (a hopeless slot's
  /// first-to-last-packet measurement saturates; see DESIGN.md).
  double delay_accounting_cap_ms = 100.0;
  /// The client measures delay as the first-to-last-packet duration of
  /// the current slot (Section V), so a measured sample can never much
  /// exceed the measurement window — an overloaded slot reads as "the
  /// whole window", not as the queue's unbounded sojourn. This keeps the
  /// polynomial delay regressor well-conditioned.
  double delay_measurement_window_ms = 2.0 * 15.15;

  ServerConfig server;  ///< server.server_bandwidth_mbps is derived.
  ClientConfig client;
  /// Heterogeneous clients (Section VI's Pixel 6/5/4 mix): when
  /// non-empty, each user's ClientConfig comes from
  /// devices[u % devices.size()] instead of `client`.
  std::vector<DeviceProfile> devices;
  net::RtpConfig rtp;
  net::WirelessChannelConfig channel;  ///< interference derived from routers.
  motion::MotionGeneratorConfig motion;

  /// Lecture mode (Section V's pipeline example: "if the server receives
  /// the pose from the teacher at the time slot t, it will deliver the
  /// predicted tiles at time slot t + 1 to all users"): every user views
  /// the teacher's (user 0's) viewpoint — one shared motion trace, one
  /// shared prediction, per-user networks. Off by default (free-roam).
  bool lecture_mode = false;

  /// Section V: "RTP is built upon UDP such that we can concisely
  /// control the sending rate of the tiles and either retransmit the
  /// tiles or not." 0 = the shipped no-retransmission system; k > 0
  /// retries lost packets up to k rounds within the slot, trading delay
  /// for frame completeness (see `ablation_retransmission`).
  int retransmit_rounds = 0;

  /// Section VIII "Online rendering and encoding": when enabled, tiles
  /// are rendered+encoded just-in-time on a GPU farm instead of being
  /// pre-encoded offline; a slot whose render job misses the budget
  /// transmits nothing (the frame falls back to stale content).
  bool online_rendering = false;
  render::RenderFarmConfig render_farm;

  /// Discrete fault injection (docs/resilience.md): churn, blackouts,
  /// side-channel stalls, bandwidth cliffs, cache flushes, consumed per
  /// slot. The default (empty) schedule is strictly inert — every
  /// query answers "healthy" and the run is bit-identical to a build
  /// without the subsystem. Faulted runs fill the recovery-accounting
  /// fields of sim::UserOutcome.
  faults::FaultSchedule faults;

  /// Must be 0: every slot's allocation runs serially on the calling
  /// thread. The field is kept only so perfbench/ still builds; it goes
  /// with the next benchmark change (ROADMAP item 4).
  std::size_t allocator_threads = 0;
};

/// Rejects a config no run can use, naming the field in the message:
/// zero users, routers or slots, an empty throttle pool, a zero pose
/// upload period, a non-finite or non-positive router_aggregate_mbps, or
/// a non-finite or negative throttle_pool_mbps entry,
/// bandwidth_measurement_sigma, delay_accounting_cap_ms,
/// server.params.alpha, server.params.beta,
/// delay_measurement_window_ms, server.initial_bandwidth_estimate_mbps
/// or server.fallback_headroom_fraction, a non-finite or non-positive
/// client.display_deadline_ms or server.rtp_packet_bits, a zero
/// client.buffer_threshold or devices[i].buffer_threshold, a
/// server.ema_alpha outside (0, 1], or a non-zero allocator_threads.
/// SystemSim and fleet::FleetSim both call it on construction.
void validate(const SystemSimConfig& config);

/// Convenience constructors for the paper's two setups.
SystemSimConfig setup_one_router(std::size_t users = 8);
SystemSimConfig setup_two_routers(std::size_t users = 15);

class SystemSim {
 public:
  explicit SystemSim(SystemSimConfig config);

  /// Runs one repeat (fresh world, deterministic in (config.seed,
  /// repeat)); returns one outcome per user, FPS included. When
  /// `timeline` is non-null, one SlotRecord per (slot, user) is appended
  /// to it (the flight recorder; see timeline.h). When `telemetry` is
  /// non-null (and not kOff), per-slot phase timings and counters are
  /// recorded — measurement metadata only, never simulation input:
  /// outcomes are bit-identical across telemetry modes
  /// (docs/observability.md).
  std::vector<sim::UserOutcome> run(
      core::Allocator& allocator, std::size_t repeat,
      Timeline* timeline = nullptr,
      telemetry::Collector* telemetry = nullptr) const;

  /// Runs each allocator over `repeats` repeats; outcomes pooled.
  std::vector<sim::ArmResult> compare(
      const std::vector<core::Allocator*>& allocators,
      std::size_t repeats) const;

  const SystemSimConfig& config() const { return config_; }

 private:
  SystemSimConfig config_;
};

}  // namespace cvr::system
