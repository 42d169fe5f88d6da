// Server-side model: prediction, estimation, request generation.
//
// Owns, per user: the 6-DoF linear-regression predictor (fed by poses
// arriving over the TCP side channel one slot late), the EMA bandwidth
// estimator and polynomial delay predictor (Section V), the online
// prediction-accuracy estimate delta_bar_n, and the delivered-tile
// tracker (repetitive-tile suppression).
// Unlike the Section-IV simulator, everything the allocator sees here is
// an *estimate* — this is where the robustness differences of Figs. 7/8
// come from.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "src/content/content_db.h"
#include "src/content/delivered_tracker.h"
#include "src/content/hevc_process.h"
#include "src/content/equirect.h"
#include "src/core/allocator.h"
#include "src/motion/accuracy.h"
#include "src/motion/fov.h"
#include "src/motion/predictor.h"
#include "src/motion/margin_controller.h"
#include "src/net/estimators.h"
#include "src/net/loss_estimator.h"
#include "src/proto/messages.h"

namespace cvr::system {

/// Which bandwidth-estimator arm drives the allocator's B_n
/// (docs/workloads.md). kEma is the paper's passive EMA; kProbing adds
/// periodic speedtest-style probes that consume slot budget while
/// measuring real headroom.
enum class EstimatorArm {
  kEma,
  kProbing,
};

struct ServerConfig {
  motion::FovSpec fov;
  motion::PredictorConfig predictor;
  /// Which prediction model drives the pipeline (Section II: "any
  /// existing motion prediction model can be applied"). The linear kind
  /// honours `predictor`; other kinds use their own defaults.
  motion::PredictorKind predictor_kind =
      motion::PredictorKind::kLinearRegression;
  content::ContentDbConfig content;
  double ema_alpha = 0.2;
  double initial_bandwidth_estimate_mbps = 40.0;
  /// Bandwidth-estimator arm. The default (kEma) is byte-identical to
  /// the pre-probing server; kProbing reserves probe_budget_mbps of B_n
  /// on probe slots (constraint (7) sees only the content portion), adds
  /// the probe traffic to the slot's demand, and feeds probe-slot
  /// measurements through the heavier alpha_probe weight.
  EstimatorArm estimator_arm = EstimatorArm::kEma;
  net::ProbingConfig probing;
  /// HEVC frame-size process (docs/workloads.md): when enabled, every
  /// user's allocator-visible rates f(q) are scaled by their per-slot
  /// I/P-frame size multiplier. Off by default (the smooth CRF point
  /// estimate, bit-identical).
  content::HevcProcessConfig hevc;
  /// Seed of the per-user HEVC processes (independent of every other
  /// stream; per-user offset applied internally).
  std::uint64_t hevc_seed = 0x48455643ull;
  double server_bandwidth_mbps = 400.0;  ///< Nominal router aggregate.
  core::QoeParams params{0.1, 0.5};      ///< Section VI values.
  /// Section VIII extension: attach estimated per-level frame-loss
  /// probabilities to the slot problem so loss-aware allocators can
  /// discount undecodable frames. Off by default (the published model).
  bool loss_aware = false;
  double rtp_packet_bits = 9600.0;  ///< For packets-per-frame estimates.
  /// Footnote-1 extension: also transmit the predicted-FoV tiles of the
  /// *next cell along the user's motion direction* at the lowest quality
  /// level, so a virtual-location misprediction degrades the frame to
  /// level 1 instead of dropping it. Off by default (the paper leaves
  /// location-error handling as future work).
  bool fallback_prefetch = false;
  /// The fallback is insurance, not load: it is only transmitted when
  /// the slot's total demand stays under this fraction of the user's
  /// estimated bandwidth (keeps the link away from the M/M/1 knee).
  double fallback_headroom_fraction = 0.7;
  /// Adaptive-margin extension: instead of the fixed margin of Section
  /// II, each user's delivered margin tracks their measured prediction
  /// success (see motion::MarginController). Off by default.
  bool adaptive_margin = false;
  motion::MarginControllerConfig margin_controller;
  /// Section V "Handling repetitive tiles": skip retransmitting tiles
  /// the client already holds. On by default (the shipped system);
  /// turning it off quantifies the mechanism's bandwidth savings
  /// (`bench/ablation_repetition`).
  bool repetition_suppression = true;

  /// Graceful-degradation watchdogs (docs/resilience.md). Quiescent in a
  /// healthy run — poses arrive every pose-upload period and
  /// measurements every slot, so neither threshold is ever crossed and
  /// the allocation path is byte-identical to the unhardened server.
  ///
  /// Slots without a fresh pose before the user enters safe mode:
  /// persistence prediction (hold the last pose instead of extrapolating
  /// stale motion), frozen delta_bar (blackout misses must not poison
  /// the accuracy estimate), and — when safe_mode_pin_level is on — the
  /// quality level pinned to 1. SystemSim raises this to at least
  /// 2 x pose_upload_period + 2 so sparse-but-healthy uploads never
  /// trigger it.
  std::size_t pose_staleness_slots = 12;
  /// Slots without any client measurement (bandwidth/delay feedback)
  /// before the EMA and delay estimates are treated as stale: the
  /// bandwidth estimate goes through the stale-hold decay and the delay
  /// table falls back to the analytic M/M/1 curve (the trained
  /// polynomial regressor may describe a regime that no longer exists).
  std::size_t feedback_staleness_slots = 12;
  net::StaleHoldConfig stale_hold;
  /// Safe-mode allocation path: clamp a faulted user's B_n below the
  /// level-2 rate so constraint (7) leaves only level 1 feasible — in
  /// every allocator, without touching any of them. A silent user's
  /// stale estimates then cannot starve healthy users through the
  /// shared sum f(q) <= B budget.
  bool safe_mode_pin_level = true;
};

/// One user's tile request for a slot.
struct TileRequest {
  core::QualityLevel level = 1;
  std::vector<content::VideoId> tiles;      ///< After repetition filtering.
  std::vector<content::VideoId> full_set;   ///< Before filtering.
  /// Fallback-prefetch extension: the level-1 tile set of the next cell
  /// along the motion direction (unfiltered; its filtered members are
  /// already merged into `tiles`). Empty when the feature is off or the
  /// user is stationary.
  std::vector<content::VideoId> fallback_set;
  double demand_mbps = 0.0;                 ///< Rate to send `tiles` this slot.

  /// An empty request at `level`; the vectors keep their capacity.
  void reset(core::QualityLevel new_level) {
    level = new_level;
    tiles.clear();
    full_set.clear();
    fallback_set.clear();
    demand_mbps = 0.0;
  }
};

class Server {
 public:
  Server(ServerConfig config, std::size_t users);

  std::size_t user_count() const { return users_.size(); }

  /// Ingests the pose user `u` reported for slot `t` (already delayed by
  /// the side channel).
  void on_pose(std::size_t u, std::size_t t, const motion::Pose& pose);

  /// Server-side pose prediction for the upcoming slot.
  motion::Pose predict_pose(std::size_t u) const;

  /// A tile pricer primed with user `u`'s predicted cell, so the tiles
  /// of u's request price with no content-DB lookup.
  content::TilePricer tile_pricer(std::size_t u) const;

  /// Feeds the bandwidth sample measured for user `u` (Mbps).
  void on_bandwidth_sample(std::size_t u, double mbps);

  /// Feeds a measured delivery delay for a slot where `rate_mbps` was sent.
  void on_delay_sample(std::size_t u, double rate_mbps, double delay_ms);

  /// Feeds a measured packet-loss fraction at the given utilisation
  /// (Section VIII extension; harmless to call when loss_aware is off).
  void on_loss_sample(std::size_t u, double utilization,
                      double loss_fraction);

  /// Feeds the realized viewing outcome (updates delta_bar_n). In the
  /// published model this is the full "content correctly seen" signal —
  /// prediction, loss, and deadline folded together.
  void on_coverage_outcome(std::size_t u, bool hit);

  /// Loss-aware mode only: the loss-free base outcome (prediction
  /// coverage AND on-time display), so that packet loss is carried
  /// exclusively by the per-level success lanes instead of being
  /// double-counted inside delta_bar.
  void on_base_outcome(std::size_t u, bool hit);

  /// Updates qbar bookkeeping with the realized displayed-quality sample
  /// (0 = nothing correct seen; may be a fallback level below the chosen
  /// one).
  void on_displayed_quality(std::size_t u, double displayed_quality);

  /// Processes delivery / release ACKs from the client.
  void on_delivery_acks(std::size_t u,
                        const std::vector<content::VideoId>& acks);
  void on_release_acks(std::size_t u,
                       const std::vector<content::VideoId>& acks);

  /// Builds the slot problem for slot `t` (1-based) from current
  /// estimates over the listed members — lane i describes members[i].
  /// Delay tables come from each user's polynomial delay predictor
  /// (M/M/1 analytic fallback until trained). Only listed users advance
  /// their watchdog state this slot. `out` is resized (capacity
  /// retained) and every lane of every plane written, so the per-slot
  /// build is allocation-free in steady state; the slot step feeds it a
  /// SlotArena's problem (see src/core/slot_arena.h).
  void build_problem_for(std::size_t t, const std::vector<std::size_t>& members,
                         core::SlotProblem& out);

  /// Test convenience: build_problem_for over every user, into a fresh
  /// problem.
  core::SlotProblem build_problem(std::size_t t);

  /// Fleet budget hook: replaces the server bandwidth B that
  /// build_problem_for stamps on the slot problem (constraint (6)). The
  /// controller calls this each slot with the server's share of the
  /// backhaul budget.
  void set_server_bandwidth(double mbps);
  double server_bandwidth() const { return config_.server_bandwidth_mbps; }

  /// Snapshots user `u`'s carried estimator state into a migration
  /// frame (proto::UserHandoff) stamped with `slot`. transmit_fraction
  /// is clamped to [0, 1] on export (the fallback-prefetch extension
  /// can push the raw EMA slightly above 1).
  proto::UserHandoff export_handoff(std::size_t u, std::size_t slot) const;

  /// Installs a migrated user's carried state into local slot `u`:
  /// resets the user, restores the accuracy tallies, bandwidth EMA,
  /// viewed-quality sums, watchdog flags and transmit fraction, and
  /// seeds the pose predictor with the frame's last pose (observed at
  /// its original pose_slot, so staleness keeps its meaning). The
  /// feedback clock restarts at `now_slot` — the destination has no
  /// measurement silence to hold against the user. Delivered-tile
  /// trackers and the delay/loss regressors start cold:
  /// they describe the source server's link, not this one.
  void import_handoff(std::size_t u, const proto::UserHandoff& frame,
                      std::size_t now_slot);

  /// Returns user `u` to the freshly-constructed state (all estimators
  /// at their priors). The fleet controller calls this on a crashed
  /// server's members — the crash wiped that state.
  void reset_user(std::size_t u);

  /// Admission pricing for a migration candidate: the slot context the
  /// carried state would produce at slot `t`, without touching any
  /// per-user state. Delay uses the analytic M/M/1 fallback (a
  /// candidate has no trained regressor here yet).
  core::UserSlotContext candidate_context(const proto::UserHandoff& frame,
                                          std::size_t t) const;

  /// Sum of the mandatory level-1 rates of `members` at their predicted
  /// cells — the admission controller's committed-load input.
  double mandatory_load(const std::vector<std::size_t>& members) const;

  /// Writes user `u`'s tile request at `level` for its predicted pose
  /// into `request`: predicted-FoV tiles at that level, minus
  /// already-delivered ones, priced via the content DB. Every field is
  /// overwritten and the vectors keep their capacity, so a recycled
  /// request makes no heap allocation in steady state.
  void make_request(std::size_t u, core::QualityLevel level,
                    TileRequest& request);

  const content::ContentDb& content_db() const { return content_db_; }
  double bandwidth_estimate(std::size_t u) const;
  /// The delta_bar estimate user `u`'s success lane was built from at
  /// the last build_problem_for call that covered it.
  double slot_delta(std::size_t u) const { return users_.at(u).slot_delta; }

  /// Fault-injection hook (faults::FaultType::kCacheFlush): empties
  /// every user's delivered-tile tracker, as a server crash-restart
  /// would, so the next requests resend tiles the clients already hold.
  /// Estimators and predictors survive (they live in the allocator tier
  /// of a real deployment).
  void forget_delivered_tiles();

  /// Whether user `u` is currently degraded by a watchdog (as of the
  /// last build_problem_for call).
  bool in_safe_mode(std::size_t u) const;
  /// Total slots user `u` has spent in safe mode (diagnostic).
  std::size_t safe_mode_slots(std::size_t u) const;

  /// The FoV spec currently in force for user `u` (config fov with the
  /// user's adaptive margin substituted when adaptive_margin is on).
  motion::FovSpec fov_for(std::size_t u) const;

 private:
  /// What the upcoming slot looks like from user `u`'s newest pose:
  /// predict_pose's answer, its clamped grid cell and that cell's
  /// content-DB entry (which never moves; see ContentDb::cell_content).
  struct PredictedView {
    motion::Pose pose;
    content::GridCell cell{};
    const content::CellContent* content = nullptr;
  };

  struct UserState {
    std::unique_ptr<motion::MotionPredictor> predictor;
    motion::AccuracyEstimator accuracy;
    motion::AccuracyEstimator base_accuracy;  ///< Loss-free (loss-aware mode).
    net::EmaThroughputEstimator bandwidth;
    net::ProbingThroughputEstimator probing_bandwidth;
    /// Probe traffic reserved for the slot being built (kProbing only;
    /// make_request folds it into the demand so probes consume real
    /// airtime).
    double pending_probe_mbps = 0.0;
    /// Whether the next bandwidth sample was measured on a probe slot.
    bool probe_sample_pending = false;
    /// delta_bar fed to the last problem build (see slot_delta()).
    double slot_delta = 0.0;
    net::DelayPredictor delay;
    net::LossEstimator loss;
    motion::MarginController margin;
    content::DeliveredTileTracker delivered;
    // Running mean of viewed quality (qbar_n) via simple accumulation.
    double viewed_quality_sum = 0.0;
    std::size_t viewed_slots = 0;
    motion::Pose last_pose;
    bool has_pose = false;
    // Watchdog clocks (slot numbers on the build_problem timeline).
    std::size_t last_pose_slot = 0;
    std::size_t last_feedback_slot = 0;
    bool safe_mode = false;
    bool pose_stale = false;
    std::size_t safe_mode_slot_count = 0;
    // EMA of (transmitted rate) / (full tile-set rate): repetition
    // suppression means only this fraction of a frame's packets is at
    // loss risk in a slot.
    double transmit_fraction = 1.0;
    // The predicted view, computed on first use (predicted_view()) and
    // valid until the prediction's inputs change: a pose arrives
    // (on_pose), pose_stale flips (fill_user_lane), or the state is
    // replaced (import_handoff, reset_user). Invalidation keeps the cell
    // and its content pointer, which the recomputation reuses while the
    // cell is unchanged. mutable: a cache behind the const accessors.
    mutable PredictedView view;
    mutable bool view_valid = false;

    explicit UserState(const ServerConfig& config);
  };

  content::GridCell clamped_cell(double x, double y) const;
  /// `user`'s predicted view, recomputed only after an invalidation.
  const PredictedView& predicted_view(const UserState& user) const;
  /// Per-user body of build_problem_for: writes user u's lane i.
  void fill_user_lane(std::size_t t, std::size_t u, core::SlotProblem& out,
                      std::size_t i);

  /// The active arm's bandwidth estimate for user `u` (stale-hold not
  /// applied; see fill_user_lane).
  double raw_bandwidth_estimate(const UserState& user) const;

  ServerConfig config_;
  content::ContentDb content_db_;
  std::vector<UserState> users_;
  /// Per-user HEVC frame-size processes (empty when hevc.enabled is
  /// off). Stepped once per build_problem_for call that covers the user.
  std::vector<content::HevcFrameProcess> hevc_;
  /// Latest slot seen by build_problem_for — the watchdogs' clock.
  /// Feedback callbacks stamp last_feedback_slot with it.
  std::size_t clock_ = 0;
};

}  // namespace cvr::system
