// The open-loop load service: a long-lived edge server under shaped
// session traffic.
//
// system::SystemSim answers "how good is the experience for N fixed
// users"; LoadServer answers the capacity-planning question — *how many
// users can one edge server sustain* when sessions arrive, stay, and
// leave on their own schedule. It is the batch per-slot pipeline turned
// into a service loop:
//
//   arrivals  — sim::TrafficGenerator emits SessionRequests (shaped
//               inter-arrival gaps, exponential session lengths);
//   accept    — each request is encoded as a proto::ConnectRequest,
//               framed, decoded server-side (the real wire contract,
//               in-process), and paced by `connect_speed`: the server
//               completes at most that many admissions per second,
//               excess requests wait in a bounded accept queue;
//   admission — AdmissionController prices the candidate against the
//               committed all-ones load (admit / degrade-admit via the
//               constraint-(7) clamp / reject), answered with a framed
//               proto::AdmitResponse;
//   serve     — every active session joins the per-slot allocation
//               problem (SlotArena + Allocator::allocate_into — the
//               PR-5 zero-allocation hot path); delivery delay per user
//               comes from the analytic M/M/1 model at the user's share
//               of the server budget, and feeds QoE bookkeeping and the
//               deadline/SLO accounting;
//   depart    — an expiring session sends a proto::DisconnectNotice and
//               frees its user slot; after the arrival horizon the
//               server drains until every session has left.
//
// Determinism contract: every simulation outcome derives from the
// seeded generators — the modeled delays, admission decisions, and the
// whole LoadServiceReport replay bit-identically for a fixed config
// (tests/load_server_test.cpp enforces this, and scripts/perf_gate.py
// gates the svc_* counters bit-exactly). Telemetry reads wall clocks
// but writes only to its own sinks; running with telemetry off or on
// yields the same report.
//
// SLO definition (docs/load_service.md): a *deadline miss* is one
// user-slot whose modeled delivery delay exceeds that session's QoS
// budget; the service meets its SLO when the p99 of all post-warmup
// delay samples is at or below `slo_p99_ms`. `sustained_users` is the
// mean active population over the post-warmup arrival horizon when the
// SLO holds, and 0 when it does not — "users per server at the SLO".
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/allocator.h"
#include "src/core/qoe.h"
#include "src/core/slot_arena.h"
#include "src/sim/traffic_gen.h"
#include "src/system/admission.h"
#include "src/telemetry/telemetry.h"
#include "src/util/rng.h"

namespace cvr::system {

/// Knobs of the service loop. Defaults describe one 802.11ac edge
/// server (the Section-VI setup-1 router) opened to shaped traffic.
struct LoadServiceConfig {
  /// Arrival process (shape, load, churn, qos, connect_speed, seed).
  sim::TrafficConfig traffic;
  /// User-slot capacity: the hard cap on concurrently served sessions
  /// (the paper's "users per server" denominator).
  std::size_t capacity_users = 32;
  /// Server aggregate B (Mbps), shared by constraint (6).
  double server_bandwidth_mbps = 400.0;
  /// Mean per-user link B_n (Mbps); each session draws
  /// B_n ~ U(mean * (1 - jitter), mean * (1 + jitter)).
  double user_bandwidth_mbps = 60.0;
  double user_bandwidth_jitter = 0.2;
  /// Per-session prediction-success probability delta ~ U(min, max).
  double delta_min = 0.75;
  double delta_max = 0.98;
  /// Allocation policy (core::make_allocator name).
  std::string allocator = "dv";
  AdmissionPolicyConfig admission;
  core::QoeParams params{0.1, 0.5};  ///< Section VI values.
  /// Service-level objective: p99 of post-warmup modeled delivery
  /// delays must not exceed this (ms).
  double slo_p99_ms = 20.0;
  /// Slots excluded from SLO / population statistics while the open
  /// loop fills to steady state.
  std::size_t warmup_slots = 200;
  /// Connection ramp-up: a freshly admitted session's quality-level cap
  /// starts at 1 and rises one level every `ramp_slots_per_level` slots
  /// (enforced through the same constraint-(7) clamp as degrade
  /// admission), so a burst of joins cannot yank bandwidth from
  /// established sessions in a single slot. 0 disables the ramp.
  std::size_t ramp_slots_per_level = 8;
  /// Accept-queue bound: pending connects beyond this are rejected
  /// immediately (the "listen backlog").
  std::size_t max_queue_depth = 256;
  /// Must be 0: every slot's allocation runs serially on the calling
  /// thread. The field is kept only so perfbench/ still builds; it goes
  /// with the next benchmark change (ROADMAP item 4).
  std::size_t allocator_threads = 0;
  /// Safety valve on the drain phase (slots past the arrival horizon).
  std::size_t max_drain_slots = 120000;
  /// Per-session rate-function variation (content heterogeneity).
  double rate_scale_sigma = 0.10;
};

/// Aggregate outcome of one service run. Every field is a pure function
/// of the config (bit-reproducible); wall-clock time never enters.
struct LoadServiceReport {
  std::size_t horizon_slots = 0;  ///< Arrival horizon (excl. drain).
  std::size_t drain_slots = 0;    ///< Extra slots run to empty the server.
  bool drained = false;           ///< Every session departed cleanly.

  // Admission funnel.
  std::uint64_t offered = 0;   ///< SessionRequests generated.
  std::uint64_t admitted = 0;  ///< Fully admitted.
  std::uint64_t degraded = 0;  ///< Degrade-admitted (level-1 pin).
  std::uint64_t rejected = 0;  ///< Turned away (incl. queue overflow).
  double reject_rate = 0.0;    ///< rejected / offered (0 when none).

  // Population (post-warmup, arrival horizon only).
  double mean_active_users = 0.0;
  std::size_t peak_active_users = 0;
  double mean_queue_depth = 0.0;
  std::size_t peak_queue_depth = 0;

  // Latency / SLO (post-warmup modeled delivery delays, ms).
  std::uint64_t delay_samples = 0;
  double mean_delay_ms = 0.0;
  double p99_delay_ms = 0.0;
  std::uint64_t deadline_misses = 0;  ///< Samples above the session QoS.
  bool slo_met = false;               ///< p99_delay_ms <= slo_p99_ms.
  /// Users-per-server at the SLO: mean_active_users when slo_met, else 0.
  double sustained_users = 0.0;

  // Experience.
  double mean_session_qoe = 0.0;  ///< Mean per-completed-session avg QoE.
  std::uint64_t completed_sessions = 0;
};

/// @brief The nearest-rank p99 of a stream of at most `bound` samples,
/// kept in O(bound / 100) memory.
///
/// The nearest-rank p99 of n samples is the sample at ascending rank
/// rank_index(n) = ceil(0.99 n) - 1, i.e. the (n - rank_index(n))-th
/// largest. That count never decreases as n grows, so the
/// tail_size(bound) largest samples — a min-heap of about 1% of the
/// bound — contain the answer for every n <= bound, and quantile()
/// returns exactly the double a selection over all n samples would.
class NearestRankTail {
 public:
  /// Reserves the tail (one allocation of tail_size(bound) doubles).
  explicit NearestRankTail(std::size_t bound);

  void add(double sample);

  /// Samples added so far.
  std::uint64_t count() const { return count_; }

  /// The nearest-rank p99 of every sample added; 0 when there is none.
  /// @throws std::logic_error when more than `bound` samples were added.
  double quantile() const;

  /// ceil(0.99 n) - 1 (0 for n = 0), as a double-precision product.
  static std::size_t rank_index(std::size_t n);
  /// How many of the largest samples the tail keeps for `bound`.
  static std::size_t tail_size(std::size_t bound);

 private:
  static constexpr double kP = 0.99;
  std::size_t bound_;
  std::size_t capacity_;
  std::uint64_t count_ = 0;
  std::vector<double> tail_;  ///< Min-heap of the largest samples.
};

class LoadServer {
 public:
  /// Validates the config (throws std::invalid_argument on a zero
  /// capacity, non-positive bandwidths, an out-of-range jitter or delta
  /// band, an unknown allocator name, or a non-zero
  /// allocator_threads).
  explicit LoadServer(LoadServiceConfig config);

  const LoadServiceConfig& config() const { return config_; }

  /// Runs the service for `slots` arrival slots plus a drain phase, and
  /// returns the aggregate report. Repeatable: each call replays the
  /// same stream from the config seed (internal state is re-seeded).
  /// When `collector` is non-null, phase timings (kAdmission,
  /// kProblemBuild, kAllocSolve, kTransport), the svc_* counters, and
  /// the svc_queue_depth histogram are recorded — measurement metadata
  /// only; the report is bit-identical across telemetry modes.
  LoadServiceReport run(std::size_t slots,
                        telemetry::Collector* collector = nullptr);

 private:
  struct Session {
    std::uint64_t id = 0;
    std::size_t remaining_slots = 0;
    std::size_t age_slots = 0;       ///< Slots served so far.
    double qos_ms = 0.0;             ///< Per-slot delivery budget.
    double user_bandwidth = 0.0;     ///< Drawn B_n (Mbps).
    double delta = 0.0;              ///< Prediction-success probability.
    /// f(q) and the M/M/1 delay at the true B_n, index q-1. Both are
    /// fixed for the session's lifetime (rate scale and B_n are drawn
    /// once at admission), so they are computed there, once.
    std::array<double, core::kNumQualityLevels> rate{};
    std::array<double, core::kNumQualityLevels> delay{};
    bool degrade_pinned = false;     ///< Degrade-admitted: level cap 1.
    core::UserQoeAccumulator qoe;
  };

  /// Quality-level cap currently in force for a session (degrade pin
  /// and connection ramp combined; kNumQualityLevels = uncapped).
  std::size_t level_cap(const Session& session) const;

  LoadServiceConfig config_;
};

}  // namespace cvr::system
