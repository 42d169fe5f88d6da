#include "src/system/server.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "src/net/mm1.h"
#include "src/util/units.h"

namespace cvr::system {

Server::UserState::UserState(const ServerConfig& config)
    : predictor(config.predictor_kind ==
                        motion::PredictorKind::kLinearRegression
                    ? std::make_unique<motion::LinearMotionPredictor>(
                          config.predictor)
                    : motion::make_predictor(config.predictor_kind)),
      accuracy(),
      base_accuracy(),
      bandwidth(config.ema_alpha, config.initial_bandwidth_estimate_mbps),
      probing_bandwidth(config.probing),
      delay(),
      loss(),
      margin(config.fov.margin_deg, config.margin_controller),
      delivered() {}

Server::Server(ServerConfig config, std::size_t users)
    : config_(config), content_db_(config.content) {
  if (users == 0) throw std::invalid_argument("Server: zero users");
  users_.reserve(users);
  for (std::size_t u = 0; u < users; ++u) users_.emplace_back(config_);
  if (config_.hevc.enabled) {
    hevc_.reserve(users);
    for (std::size_t u = 0; u < users; ++u) {
      hevc_.emplace_back(config_.hevc,
                         config_.hevc_seed + 1000003ull * (u + 1));
    }
  }
}

double Server::raw_bandwidth_estimate(const UserState& user) const {
  return config_.estimator_arm == EstimatorArm::kProbing
             ? user.probing_bandwidth.estimate_mbps()
             : user.bandwidth.estimate_mbps();
}

void Server::on_pose(std::size_t u, std::size_t t, const motion::Pose& pose) {
  UserState& user = users_.at(u);
  user.predictor->observe(t, pose);
  user.last_pose = pose;
  user.has_pose = true;
  user.last_pose_slot = t;
  user.view_valid = false;
}

const Server::PredictedView& Server::predicted_view(
    const UserState& user) const {
  if (user.view_valid) return user.view;
  PredictedView& view = user.view;
  if (!user.has_pose) {
    view.pose = motion::Pose{};
  } else if (user.pose_stale) {
    // Persistence fallback: extrapolating a regression fitted to
    // pre-blackout motion diverges without bound as the gap grows, so a
    // pose-stale user is predicted exactly where they were last seen.
    view.pose = user.last_pose;
  } else {
    // Poses arrive one slot late; the content is displayed one slot
    // after transmission (Section V pipeline), so predict two slots
    // ahead of the newest pose on record.
    view.pose = user.predictor->predict(2);
  }
  // Users cross a 5 cm cell only every few slots: keep the entry while
  // the cell holds.
  const content::GridCell cell = clamped_cell(view.pose.x, view.pose.y);
  if (view.content == nullptr || !(cell == view.cell)) {
    view.content = &content_db_.cell_content(cell);
    view.cell = cell;
  }
  user.view_valid = true;
  return view;
}

motion::Pose Server::predict_pose(std::size_t u) const {
  return predicted_view(users_.at(u)).pose;
}

content::TilePricer Server::tile_pricer(std::size_t u) const {
  const PredictedView& v = predicted_view(users_.at(u));
  return content::TilePricer(content_db_, v.cell, *v.content);
}

void Server::on_bandwidth_sample(std::size_t u, double mbps) {
  UserState& user = users_.at(u);
  if (config_.estimator_arm == EstimatorArm::kProbing) {
    // A probe slot's sample measured a deliberately saturated link;
    // weight it by the heavier probe alpha. An ack-stalled probe slot
    // never reaches this point — the stale flag is wiped on the next
    // problem build.
    if (user.probe_sample_pending) {
      user.probing_bandwidth.observe_probe(mbps);
      user.probe_sample_pending = false;
    } else {
      user.probing_bandwidth.observe_passive(mbps);
    }
  } else {
    user.bandwidth.observe(mbps);
  }
  user.last_feedback_slot = clock_;
}

void Server::on_delay_sample(std::size_t u, double rate_mbps,
                             double delay_ms) {
  UserState& user = users_.at(u);
  user.delay.observe(rate_mbps, delay_ms);
  user.last_feedback_slot = clock_;
}

void Server::on_loss_sample(std::size_t u, double utilization,
                            double loss_fraction) {
  users_.at(u).loss.observe(utilization, loss_fraction);
}

void Server::on_coverage_outcome(std::size_t u, bool hit) {
  UserState& user = users_.at(u);
  // Frozen delta_bar: outcomes produced while the user is degraded by a
  // watchdog measure the fault, not the predictor — folding them in
  // would poison the accuracy estimate long past recovery.
  if (user.safe_mode) return;
  user.accuracy.record(hit);
  if (config_.adaptive_margin) {
    user.margin.update(user.accuracy.estimate());
  }
}

motion::FovSpec Server::fov_for(std::size_t u) const {
  motion::FovSpec spec = config_.fov;
  if (config_.adaptive_margin) {
    spec.margin_deg = users_.at(u).margin.margin_deg();
  }
  return spec;
}

void Server::on_base_outcome(std::size_t u, bool hit) {
  UserState& user = users_.at(u);
  if (user.safe_mode) return;  // see on_coverage_outcome
  user.base_accuracy.record(hit);
}

void Server::on_displayed_quality(std::size_t u, double displayed_quality) {
  UserState& user = users_.at(u);
  user.viewed_quality_sum += displayed_quality;
  ++user.viewed_slots;
}

void Server::on_delivery_acks(std::size_t u,
                              const std::vector<content::VideoId>& acks) {
  UserState& user = users_.at(u);
  for (content::VideoId id : acks) user.delivered.mark_delivered(id);
}

void Server::on_release_acks(std::size_t u,
                             const std::vector<content::VideoId>& acks) {
  users_.at(u).delivered.mark_released(acks);
}

content::GridCell Server::clamped_cell(double x, double y) const {
  content::GridCell cell = content::cell_for_position(x, y);
  cell.gx = std::clamp(cell.gx, 0, content_db_.config().grid_width - 1);
  cell.gy = std::clamp(cell.gy, 0, content_db_.config().grid_height - 1);
  return cell;
}

core::SlotProblem Server::build_problem(std::size_t t) {
  std::vector<std::size_t> everyone(users_.size());
  std::iota(everyone.begin(), everyone.end(), std::size_t{0});
  core::SlotProblem problem;
  build_problem_for(t, everyone, problem);
  return problem;
}

void Server::fill_user_lane(std::size_t t, std::size_t u,
                            core::SlotProblem& out, std::size_t i) {
  UserState& user = users_[u];

  // Watchdogs. Both are quiescent in a healthy run: poses refresh
  // last_pose_slot every upload period and every measurement refreshes
  // last_feedback_slot, so neither age ever crosses its threshold.
  const std::size_t pose_age = user.has_pose
                                   ? t - std::min(t, user.last_pose_slot)
                                   : t;
  const bool pose_stale = pose_age > config_.pose_staleness_slots;
  if (pose_stale != user.pose_stale) {
    user.pose_stale = pose_stale;
    user.view_valid = false;  // the prediction switches model
  }
  const std::size_t silent = t - std::min(t, user.last_feedback_slot);
  const bool feedback_stale = silent > config_.feedback_staleness_slots;
  user.safe_mode = user.pose_stale || feedback_stale;
  if (user.safe_mode) ++user.safe_mode_slot_count;

  const content::CellContent& cc = *predicted_view(user).content;
  // HEVC realism (docs/workloads.md): the allocator prices this slot's
  // frame at its realized I/P-frame size, not the smooth CRF mean. One
  // process step per problem build keeps the stream aligned with the
  // slot clock.
  const double hevc_mult = hevc_.empty() ? 1.0 : hevc_[u].step();
  double b_hat = raw_bandwidth_estimate(user);
  if (feedback_stale) {
    // Bounded hold, then exponential decay toward the re-probe floor:
    // an estimate nobody has confirmed for `silent` slots is worth
    // less every slot it stays unconfirmed.
    b_hat = net::apply_stale_hold(b_hat, silent, config_.stale_hold);
  }
  // Probe accounting (kProbing arm): on a probe slot the probe's slice
  // of B_n is reserved before the allocator sees it — probes consume
  // the budget they measure. The split is bit-exact (split_probe_budget)
  // and make_request folds the probe traffic into the slot's demand.
  user.pending_probe_mbps = 0.0;
  user.probe_sample_pending = false;
  double allocator_bandwidth = b_hat;
  if (config_.estimator_arm == EstimatorArm::kProbing &&
      user.probing_bandwidth.probe_due(t)) {
    const net::BudgetSplit split = net::split_probe_budget(
        b_hat, user.probing_bandwidth.probe_budget_mbps());
    allocator_bandwidth = split.content_mbps;
    user.pending_probe_mbps = split.probe_mbps;
    user.probe_sample_pending = true;
  }
  const double qbar =
      user.viewed_slots == 0
          ? 0.0
          : user.viewed_quality_sum / static_cast<double>(user.viewed_slots);

  // Loss-aware mode decomposes success into (loss-free base) x
  // (1 - frame_loss); the published mode folds everything into delta.
  const double delta = config_.loss_aware ? user.base_accuracy.estimate()
                                          : user.accuracy.estimate();
  user.slot_delta = delta;
  out.qbar[i] = qbar;
  out.weight[i] = core::welford_weight(static_cast<double>(t));
  double user_bandwidth = allocator_bandwidth;
  if (user.safe_mode && config_.safe_mode_pin_level) {
    // Pin to level 1 through constraint (7): with B_n clamped to the
    // level-1 rate, no allocator can pick a higher level, so the
    // faulted user's stale estimates stop competing for the shared
    // server budget. Level 1 itself is the mandatory minimum and
    // stays allocated regardless (Allocator contract).
    user_bandwidth = std::min(user_bandwidth, cc.rate[0] * hevc_mult);
  }
  out.user_bandwidth[i] = user_bandwidth;
  for (core::QualityLevel q = 1; q <= core::kNumQualityLevels; ++q) {
    const auto idx = static_cast<std::size_t>(q - 1);
    const std::size_t lane = out.at(i, q);
    const double r = cc.rate[idx] * hevc_mult;
    out.rate[lane] = r;
    // A trained delay polynomial describes the regime its samples came
    // from; after prolonged silence that regime is suspect, so fall
    // back to the analytic M/M/1 curve on the held bandwidth.
    out.delay[lane] = feedback_stale
                          ? net::mm1_delay(r, b_hat) * cvr::kSlotMillis
                          : user.delay.predict_ms(r, b_hat);
    if (config_.loss_aware) {
      // Frame-loss estimate at this level: utilisation the level would
      // induce on the estimated link, times the packets actually at
      // risk (repetition suppression retransmits only a fraction of
      // the tile set each slot).
      const double util = b_hat > 1e-9 ? std::min(1.0, r / b_hat) : 1.0;
      const double packets = user.transmit_fraction * r *
                             cvr::kSlotSeconds * 1e6 /
                             config_.rtp_packet_bits;
      out.success[lane] = delta * (1.0 - user.loss.frame_loss(util, packets));
    } else {
      out.success[lane] = delta;
    }
  }
}

void Server::build_problem_for(std::size_t t,
                               const std::vector<std::size_t>& members,
                               core::SlotProblem& out) {
  clock_ = t;
  out.params = config_.params;
  out.server_bandwidth = config_.server_bandwidth_mbps;
  out.resize(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    fill_user_lane(t, members.at(i), out, i);
  }
}

void Server::set_server_bandwidth(double mbps) {
  if (!std::isfinite(mbps) || mbps < 0.0) {
    throw std::invalid_argument("Server: invalid server bandwidth");
  }
  config_.server_bandwidth_mbps = mbps;
}

proto::UserHandoff Server::export_handoff(std::size_t u,
                                          std::size_t slot) const {
  const UserState& user = users_.at(u);
  proto::UserHandoff frame;
  frame.user = static_cast<std::uint32_t>(u);
  frame.slot = slot;
  frame.delta_hits = user.accuracy.hit_sum();
  frame.delta_count = user.accuracy.observations();
  frame.base_hits = user.base_accuracy.hit_sum();
  frame.base_count = user.base_accuracy.observations();
  frame.qbar_sum = user.viewed_quality_sum;
  frame.qbar_slots = user.viewed_slots;
  frame.bandwidth_mbps = raw_bandwidth_estimate(user);
  frame.bandwidth_observations =
      config_.estimator_arm == EstimatorArm::kProbing
          ? user.probing_bandwidth.observations()
          : user.bandwidth.observations();
  frame.has_pose = user.has_pose;
  if (user.has_pose) {
    frame.pose = user.last_pose;
    frame.pose_slot = user.last_pose_slot;
  }
  frame.safe_mode = user.safe_mode;
  frame.pose_stale = user.pose_stale;
  frame.transmit_fraction = std::clamp(user.transmit_fraction, 0.0, 1.0);
  return frame;
}

void Server::import_handoff(std::size_t u, const proto::UserHandoff& frame,
                            std::size_t now_slot) {
  reset_user(u);
  UserState& user = users_.at(u);
  user.accuracy.restore(frame.delta_hits, frame.delta_count);
  user.base_accuracy.restore(frame.base_hits, frame.base_count);
  if (config_.estimator_arm == EstimatorArm::kProbing) {
    user.probing_bandwidth.restore(frame.bandwidth_mbps,
                                   frame.bandwidth_observations);
  } else {
    user.bandwidth.restore(frame.bandwidth_mbps,
                           frame.bandwidth_observations);
  }
  user.viewed_quality_sum = frame.qbar_sum;
  user.viewed_slots = frame.qbar_slots;
  user.transmit_fraction = frame.transmit_fraction;
  user.safe_mode = frame.safe_mode;
  user.pose_stale = frame.pose_stale;
  if (frame.has_pose) {
    user.predictor->observe(frame.pose_slot, frame.pose);
    user.last_pose = frame.pose;
    user.has_pose = true;
    user.last_pose_slot = frame.pose_slot;
  }
  user.last_feedback_slot = now_slot;
  user.view_valid = false;
  if (config_.adaptive_margin) {
    user.margin.update(user.accuracy.estimate());
  }
}

void Server::reset_user(std::size_t u) {
  users_.at(u) = UserState(config_);  // predicted view invalid too
  if (!hevc_.empty()) {
    // The codec process restarts from its seed: a crash-wiped user's
    // stream re-opens with a fresh GoP.
    hevc_[u] = content::HevcFrameProcess(
        config_.hevc, config_.hevc_seed + 1000003ull * (u + 1));
  }
}

core::UserSlotContext Server::candidate_context(const proto::UserHandoff& frame,
                                                std::size_t t) const {
  motion::AccuracyEstimator accuracy;
  accuracy.restore(frame.delta_hits, frame.delta_count);
  motion::AccuracyEstimator base_accuracy;
  base_accuracy.restore(frame.base_hits, frame.base_count);

  core::UserSlotContext ctx;
  ctx.set_history(
      config_.loss_aware ? base_accuracy.estimate() : accuracy.estimate(),
      frame.qbar_slots == 0
          ? 0.0
          : frame.qbar_sum / static_cast<double>(frame.qbar_slots),
      static_cast<double>(t));
  ctx.user_bandwidth = frame.bandwidth_mbps;
  const motion::Pose pose = frame.has_pose ? frame.pose : motion::Pose{};
  const content::GridCell cell = clamped_cell(pose.x, pose.y);
  const content::CellContent& cc = content_db_.cell_content(cell);
  for (core::QualityLevel q = 1; q <= core::kNumQualityLevels; ++q) {
    const auto idx = static_cast<std::size_t>(q - 1);
    const double r = cc.rate[idx];
    ctx.rate[idx] = r;
    ctx.delay[idx] =
        net::mm1_delay(r, ctx.user_bandwidth) * cvr::kSlotMillis;
  }
  return ctx;
}

double Server::mandatory_load(const std::vector<std::size_t>& members) const {
  double total = 0.0;
  for (std::size_t u : members) {
    total += predicted_view(users_.at(u)).content->rate[0];
  }
  return total;
}

void Server::make_request(std::size_t u, core::QualityLevel level,
                          TileRequest& request) {
  UserState& user = users_.at(u);
  if (!content::is_valid_level(level)) {
    throw std::out_of_range("Server::make_request: invalid level");
  }
  const PredictedView& view = predicted_view(user);
  const motion::Pose& predicted = view.pose;
  const content::GridCell cell = view.cell;

  request.reset(level);
  int tile_indices[content::kTilesPerFrame];
  const int tile_count =
      content::tiles_for_view(fov_for(u), predicted, tile_indices);
  for (int i = 0; i < tile_count; ++i) {
    const content::TileKey key{cell, tile_indices[i], level};
    request.full_set.push_back(content::pack_video_id(key));
  }
  if (config_.repetition_suppression) {
    user.delivered.filter_needed(request.full_set, request.tiles);
  } else {
    request.tiles.assign(request.full_set.begin(), request.full_set.end());
  }

  // Megabits of ids[begin, end), summed in order.
  content::TilePricer pricer(content_db_, cell, *view.content);
  auto set_megabits = [&](const std::vector<content::VideoId>& ids,
                          std::size_t begin, std::size_t end) {
    double total = 0.0;
    for (std::size_t k = begin; k < end; ++k) total += pricer.megabits(ids[k]);
    return total;
  };

  if (config_.fallback_prefetch) {
    // Directional level-1 fallback: the cell one step along the user's
    // estimated motion. A wrong-cell prediction then lands on content
    // that is at least viewable at the lowest level (footnote 1).
    const motion::Pose ahead = user.predictor->predict(6);
    const double dx = ahead.x - predicted.x;
    const double dy = ahead.y - predicted.y;
    content::GridCell fallback = cell;
    if (std::abs(dx) > std::abs(dy)) {
      fallback.gx += dx > 0 ? 1 : -1;
    } else if (std::abs(dy) > 0.0) {
      fallback.gy += dy > 0 ? 1 : -1;
    }
    fallback.gx = std::clamp(fallback.gx, 0, content_db_.config().grid_width - 1);
    fallback.gy = std::clamp(fallback.gy, 0, content_db_.config().grid_height - 1);
    if (!(fallback == cell)) {
      for (int i = 0; i < tile_count; ++i) {
        request.fallback_set.push_back(
            content::pack_video_id({fallback, tile_indices[i], 1}));
      }
      // The fallback tiles still needed go after the slot's own tiles;
      // they are withdrawn again if the link lacks the headroom.
      const std::size_t own = request.tiles.size();
      user.delivered.filter_needed(request.fallback_set, request.tiles);
      // Insurance only when the link has headroom: never push the slot
      // past the configured fraction of the bandwidth estimate.
      const double with_fallback = cvr::megabits_to_slot_rate(
          set_megabits(request.tiles, 0, own) +
          set_megabits(request.tiles, own, request.tiles.size()));
      if (!(with_fallback <= config_.fallback_headroom_fraction *
                                 raw_bandwidth_estimate(user))) {
        request.tiles.resize(own);
        request.fallback_set.clear();
      }
    }
  }

  const double megabits = set_megabits(request.tiles, 0, request.tiles.size());
  request.demand_mbps = cvr::megabits_to_slot_rate(megabits);
  if (user.pending_probe_mbps > 0.0) {
    // The probe rides the same link as the content: its traffic contends
    // for airtime and inflates this slot's delay — measuring bandwidth
    // costs bandwidth.
    request.demand_mbps += user.pending_probe_mbps;
    user.pending_probe_mbps = 0.0;
  }

  // Track what fraction of the full tile set actually goes on the air
  // (repetition suppression), for the loss-aware packet estimates.
  const double full_megabits =
      set_megabits(request.full_set, 0, request.full_set.size());
  if (full_megabits > 1e-12) {
    constexpr double kFractionAlpha = 0.05;
    user.transmit_fraction +=
        kFractionAlpha * (megabits / full_megabits - user.transmit_fraction);
  }
}

double Server::bandwidth_estimate(std::size_t u) const {
  return raw_bandwidth_estimate(users_.at(u));
}

void Server::forget_delivered_tiles() {
  for (UserState& user : users_) {
    user.delivered = content::DeliveredTileTracker();
  }
}

bool Server::in_safe_mode(std::size_t u) const {
  return users_.at(u).safe_mode;
}

std::size_t Server::safe_mode_slots(std::size_t u) const {
  return users_.at(u).safe_mode_slot_count;
}

}  // namespace cvr::system
