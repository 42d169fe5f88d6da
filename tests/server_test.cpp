#include "src/system/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "src/content/equirect.h"
#include "src/util/units.h"

namespace cvr::system {
namespace {

ServerConfig small_config() {
  ServerConfig config;
  config.server_bandwidth_mbps = 200.0;
  return config;
}

/// make_request into a fresh TileRequest.
TileRequest request_for(Server& server, std::size_t u,
                        core::QualityLevel level) {
  TileRequest request;
  server.make_request(u, level, request);
  return request;
}

/// The frame-loss estimate per level that a loss-aware build folded
/// into user u's success lane: success = delta * (1 - loss).
std::array<double, core::kNumQualityLevels> frame_loss_of(
    const core::SlotProblem& problem, const Server& server, std::size_t u) {
  std::array<double, core::kNumQualityLevels> loss{};
  for (core::QualityLevel q = 1; q <= core::kNumQualityLevels; ++q) {
    loss[static_cast<std::size_t>(q - 1)] =
        1.0 - problem.success[problem.at(u, q)] / server.slot_delta(u);
  }
  return loss;
}

TEST(Server, RejectsZeroUsers) {
  EXPECT_THROW(Server(small_config(), 0), std::invalid_argument);
}

TEST(Server, PredictsLinearWalk) {
  Server server(small_config(), 1);
  for (std::size_t t = 0; t < 10; ++t) {
    motion::Pose p;
    p.x = 1.0 + 0.01 * static_cast<double>(t);
    p.y = 2.0;
    server.on_pose(0, t, p);
  }
  const motion::Pose predicted = server.predict_pose(0);
  // Two slots ahead of t = 9 -> x = 1.0 + 0.11.
  EXPECT_NEAR(predicted.x, 1.11, 1e-9);
  EXPECT_NEAR(predicted.y, 2.0, 1e-9);
}

TEST(Server, DefaultPoseBeforeAnyUpload) {
  Server server(small_config(), 1);
  const motion::Pose p = server.predict_pose(0);
  EXPECT_DOUBLE_EQ(p.x, 0.0);
}

TEST(Server, BuildProblemUsesEstimates) {
  Server server(small_config(), 2);
  motion::Pose p;
  p.x = 1.0;
  p.y = 1.0;
  server.on_pose(0, 0, p);
  server.on_pose(1, 0, p);
  for (int i = 0; i < 50; ++i) {
    server.on_bandwidth_sample(0, 80.0);
    server.on_bandwidth_sample(1, 30.0);
  }
  const core::SlotProblem problem = server.build_problem(1);
  ASSERT_EQ(problem.user_count(), 2u);
  EXPECT_DOUBLE_EQ(problem.server_bandwidth, 200.0);
  EXPECT_NEAR(problem.user_bandwidth[0], 80.0, 1.0);
  EXPECT_NEAR(problem.user_bandwidth[1], 30.0, 1.0);
  // Rate tables populated and increasing.
  const core::UserSlotContext user = problem.user(0);
  for (std::size_t i = 1; i < 6; ++i) {
    EXPECT_GT(user.rate[i], user.rate[i - 1]);
    EXPECT_GE(user.delay[i], user.delay[i - 1]);
  }
}

TEST(Server, DeltaEstimateTracksCoverageFeedback) {
  Server server(small_config(), 1);
  motion::Pose p;
  server.on_pose(0, 0, p);
  for (int i = 0; i < 200; ++i) server.on_coverage_outcome(0, i % 2 == 0);
  const core::SlotProblem problem = server.build_problem(1);
  EXPECT_NEAR(problem.success[problem.at(0, 1)], 0.5, 0.05);
  EXPECT_EQ(server.slot_delta(0), problem.success[problem.at(0, 1)]);
}

TEST(Server, QbarTracksDisplayedQuality) {
  Server server(small_config(), 1);
  motion::Pose p;
  server.on_pose(0, 0, p);
  server.on_displayed_quality(0, 4.0);
  server.on_displayed_quality(0, 0.0);  // miss counts as 0
  const core::SlotProblem problem = server.build_problem(3);
  EXPECT_DOUBLE_EQ(problem.qbar[0], 2.0);
}

TEST(Server, FallbackPrefetchAddsNextCellTiles) {
  ServerConfig config = small_config();
  config.fallback_prefetch = true;
  Server server(config, 1);
  // Feed a steady walk in +x so the predictor sees clear motion, and a
  // roomy bandwidth estimate so the headroom gate admits the fallback.
  for (std::size_t t = 0; t < 30; ++t) {
    motion::Pose p;
    p.x = 5.0 + 0.02 * static_cast<double>(t);
    p.y = 4.0;
    server.on_pose(0, t, p);
    server.on_bandwidth_sample(0, 100.0);
  }
  const TileRequest request = request_for(server, 0, 4);
  ASSERT_FALSE(request.fallback_set.empty());
  const content::TileKey main_key =
      content::unpack_video_id(request.full_set.front());
  const content::TileKey fb_key =
      content::unpack_video_id(request.fallback_set.front());
  EXPECT_EQ(fb_key.level, 1);                       // lowest level
  EXPECT_EQ(fb_key.cell.gx, main_key.cell.gx + 1);  // one cell ahead in +x
  EXPECT_EQ(fb_key.cell.gy, main_key.cell.gy);
  // Fallback tiles are part of the transmitted set.
  EXPECT_GT(request.tiles.size(), request.full_set.size());
}

TEST(Server, FallbackPrefetchSkipsStationaryUser) {
  ServerConfig config = small_config();
  config.fallback_prefetch = true;
  Server server(config, 1);
  for (std::size_t t = 0; t < 30; ++t) {
    motion::Pose p;
    p.x = 5.0;
    p.y = 4.0;
    server.on_pose(0, t, p);
    server.on_bandwidth_sample(0, 100.0);
  }
  const TileRequest request = request_for(server, 0, 3);
  EXPECT_TRUE(request.fallback_set.empty());
}

TEST(Server, FallbackPrefetchGatedWhenNoHeadroom) {
  ServerConfig config = small_config();
  config.fallback_prefetch = true;
  Server server(config, 1);
  for (std::size_t t = 0; t < 30; ++t) {
    motion::Pose p;
    p.x = 5.0 + 0.02 * static_cast<double>(t);
    p.y = 4.0;
    server.on_pose(0, t, p);
    server.on_bandwidth_sample(0, 25.0);  // tight link
  }
  const TileRequest request = request_for(server, 0, 4);
  EXPECT_TRUE(request.fallback_set.empty());  // insurance skipped
}

TEST(Server, FallbackPrefetchHeadroomReadsTheProbingEstimate) {
  // Under the probing arm the passive EMA never sees a sample, so the
  // headroom gate must read the probing estimate: a roomy link admits
  // the fallback and a tight one withholds it, as on the EMA arm.
  for (const double link_mbps : {100.0, 25.0}) {
    ServerConfig config = small_config();
    config.fallback_prefetch = true;
    config.estimator_arm = EstimatorArm::kProbing;
    Server server(config, 1);
    for (std::size_t t = 0; t < 30; ++t) {
      motion::Pose p;
      p.x = 5.0 + 0.02 * static_cast<double>(t);
      p.y = 4.0;
      server.on_pose(0, t, p);
      server.on_bandwidth_sample(0, link_mbps);
    }
    ASSERT_NEAR(server.bandwidth_estimate(0), link_mbps, 0.1);
    const TileRequest request = request_for(server, 0, 4);
    EXPECT_EQ(request.fallback_set.empty(), link_mbps < 40.0)
        << link_mbps << " Mbps link";
  }
}

TEST(Server, MakeRequestReturnsPredictedFovTiles) {
  Server server(small_config(), 1);
  motion::Pose p;
  p.x = 5.0;
  p.y = 4.0;
  p.yaw = -90.0;
  p.pitch = 40.0;
  server.on_pose(0, 0, p);
  const TileRequest request = request_for(server, 0, 4);
  EXPECT_EQ(request.level, 4);
  EXPECT_FALSE(request.full_set.empty());
  EXPECT_EQ(request.tiles.size(), request.full_set.size());  // nothing delivered yet
  EXPECT_GT(request.demand_mbps, 0.0);
  for (content::VideoId vid : request.full_set) {
    EXPECT_EQ(content::unpack_video_id(vid).level, 4);
  }
}

TEST(Server, RepetitionSuppressionShrinksSecondRequest) {
  Server server(small_config(), 1);
  motion::Pose p;
  p.x = 5.0;
  p.y = 4.0;
  server.on_pose(0, 0, p);
  const TileRequest first = request_for(server, 0, 3);
  server.on_delivery_acks(0, first.tiles);
  const TileRequest second = request_for(server, 0, 3);
  EXPECT_TRUE(second.tiles.empty());
  EXPECT_DOUBLE_EQ(second.demand_mbps, 0.0);
  EXPECT_EQ(second.full_set.size(), first.full_set.size());
}

TEST(Server, ReleaseAcksReenableTransmission) {
  Server server(small_config(), 1);
  motion::Pose p;
  p.x = 5.0;
  p.y = 4.0;
  server.on_pose(0, 0, p);
  const TileRequest first = request_for(server, 0, 3);
  server.on_delivery_acks(0, first.tiles);
  server.on_release_acks(0, first.tiles);
  const TileRequest third = request_for(server, 0, 3);
  EXPECT_EQ(third.tiles.size(), first.tiles.size());
}

TEST(Server, LevelChangeRequiresRetransmission) {
  Server server(small_config(), 1);
  motion::Pose p;
  p.x = 5.0;
  p.y = 4.0;
  server.on_pose(0, 0, p);
  const TileRequest q3 = request_for(server, 0, 3);
  server.on_delivery_acks(0, q3.tiles);
  const TileRequest q4 = request_for(server, 0, 4);
  EXPECT_EQ(q4.tiles.size(), q4.full_set.size());
}

TEST(Server, RecycledRequestMatchesFreshRequest) {
  // Two identical servers see identical inputs. One writes every slot's
  // request into the same TileRequest, the other into a fresh one; the
  // recycled request must carry nothing over. The walk crosses cells,
  // the fallback prefetch is on (its needed tiles append to `tiles` and
  // are withdrawn again when the headroom check fails), and delivery
  // ACKs make the repetition filter drop tiles.
  ServerConfig config = small_config();
  config.fallback_prefetch = true;
  Server recycled_server(config, 1);
  Server fresh_server(config, 1);
  TileRequest recycled;
  for (std::size_t t = 0; t < 80; ++t) {
    motion::Pose p;
    p.x = 5.0 + 0.02 * static_cast<double>(t);
    p.y = 4.0 + 0.01 * static_cast<double>(t % 7);
    p.yaw = 7.0 * static_cast<double>(t);
    // The bandwidth estimate swings across the fallback's headroom bar.
    const double mbps = t % 10 < 5 ? 400.0 : 2.0;
    for (Server* server : {&recycled_server, &fresh_server}) {
      server->on_pose(0, t, p);
      server->on_bandwidth_sample(0, mbps);
    }
    const auto level = static_cast<core::QualityLevel>(1 + t % 6);
    recycled_server.make_request(0, level, recycled);
    const TileRequest fresh = request_for(fresh_server, 0, level);
    EXPECT_EQ(recycled.level, fresh.level) << "slot " << t;
    EXPECT_EQ(recycled.tiles, fresh.tiles) << "slot " << t;
    EXPECT_EQ(recycled.full_set, fresh.full_set) << "slot " << t;
    EXPECT_EQ(recycled.fallback_set, fresh.fallback_set) << "slot " << t;
    EXPECT_EQ(recycled.demand_mbps, fresh.demand_mbps) << "slot " << t;
    if (t % 3 == 0) {
      recycled_server.on_delivery_acks(0, recycled.tiles);
      fresh_server.on_delivery_acks(0, fresh.tiles);
    }
  }
}

TEST(Server, MakeRequestRejectsBadLevel) {
  Server server(small_config(), 1);
  EXPECT_THROW(request_for(server, 0, 0), std::out_of_range);
  EXPECT_THROW(request_for(server, 0, 7), std::out_of_range);
}

TEST(Server, DelaySamplesTrainPredictor) {
  Server server(small_config(), 1);
  motion::Pose p;
  server.on_pose(0, 0, p);
  // Feed a steep measured curve; the problem's delay table must reflect
  // the learned polynomial rather than the analytic fallback.
  for (int i = 0; i < 50; ++i) {
    const double r = 10.0 + i;
    server.on_delay_sample(0, r, 0.1 * r * r);
  }
  for (int i = 0; i < 50; ++i) server.on_bandwidth_sample(0, 60.0);
  const core::SlotProblem problem = server.build_problem(1);
  // rate(3) ~ 29.9 -> learned delay ~ 0.1 * 29.9^2 ~ 89.
  EXPECT_NEAR(problem.delay_of(0, 3),
              0.1 * problem.rate_of(0, 3) * problem.rate_of(0, 3), 5.0);
}

TEST(Server, LossAwareProblemCarriesFrameLossTable) {
  ServerConfig config = small_config();
  config.loss_aware = true;
  Server server(config, 1);
  motion::Pose p;
  server.on_pose(0, 0, p);
  for (int i = 0; i < 100; ++i) {
    server.on_bandwidth_sample(0, 50.0);
    server.on_loss_sample(0, i / 100.0, 0.002 + 0.05 * (i / 100.0));
  }
  const core::SlotProblem problem = server.build_problem(1);
  const auto loss = frame_loss_of(problem, server, 0);
  // Higher levels induce higher utilisation -> higher frame loss.
  for (std::size_t i = 1; i < 6; ++i) {
    EXPECT_GE(loss[i], loss[i - 1] - 1e-12);
  }
  EXPECT_GT(loss[5], 0.0);
  EXPECT_LT(loss[0], 1.0);
}

TEST(Server, PublishedModeHasNoFrameLossTable) {
  Server server(small_config(), 1);
  motion::Pose p;
  server.on_pose(0, 0, p);
  const core::SlotProblem problem = server.build_problem(1);
  for (core::QualityLevel q = 1; q <= core::kNumQualityLevels; ++q) {
    EXPECT_EQ(problem.success[problem.at(0, q)], server.slot_delta(0));
  }
}

TEST(Server, TransmitFractionLearnsRepetitionSavings) {
  // A stationary user: after the first delivery every later request is
  // fully suppressed, so the learned transmit fraction decays toward 0,
  // shrinking the loss-aware packet estimates.
  ServerConfig config = small_config();
  config.loss_aware = true;
  Server server(config, 1);
  motion::Pose p;
  p.x = 5.0;
  p.y = 4.0;
  server.on_pose(0, 0, p);
  for (int i = 0; i < 100; ++i) server.on_bandwidth_sample(0, 60.0);
  for (int i = 0; i < 60; ++i) {
    const TileRequest request = request_for(server, 0, 3);
    server.on_delivery_acks(0, request.tiles);
    server.on_loss_sample(0, 0.5, 0.02);
  }
  const core::SlotProblem problem = server.build_problem(61);
  // With a ~0.05 learned transmit fraction, only a handful of packets
  // are at risk: the level-6 frame-loss estimate collapses far below
  // the full-frame figure (1 - 0.98^143 ~ 0.94 at this loss rate).
  EXPECT_LT(frame_loss_of(problem, server, 0)[5], 0.3);
}

TEST(Server, RepetitionSuppressionOffResendsEverything) {
  ServerConfig config = small_config();
  config.repetition_suppression = false;
  Server server(config, 1);
  motion::Pose p;
  p.x = 5.0;
  p.y = 4.0;
  server.on_pose(0, 0, p);
  const TileRequest first = request_for(server, 0, 3);
  server.on_delivery_acks(0, first.tiles);
  const TileRequest second = request_for(server, 0, 3);
  EXPECT_EQ(second.tiles.size(), second.full_set.size());
  EXPECT_GT(second.demand_mbps, 0.0);
}

TEST(Server, OutOfRangeUserThrows) {
  Server server(small_config(), 2);
  EXPECT_THROW(server.predict_pose(5), std::out_of_range);
  EXPECT_THROW(server.on_bandwidth_sample(5, 10.0), std::out_of_range);
}


// ---- The per-user predicted view (pose, cell, content entry) is
// computed once and reused until one of its inputs changes. The
// reference below recomputes everything from first principles, with no
// memo: its own predictor fed the same poses, the staleness rule of the
// last build, and a separate content db for the rates and tile sizes.

/// One user's prediction inputs, as the server should see them.
struct ReferenceUser {
  motion::LinearMotionPredictor predictor;
  bool has_pose = false;
  motion::Pose last_pose;
  std::size_t last_pose_slot = 0;
  bool stale = false;  ///< As of the last build that covered the user.

  explicit ReferenceUser(const ServerConfig& config)
      : predictor(config.predictor) {}

  void observe(std::size_t t, const motion::Pose& pose) {
    predictor.observe(t, pose);
    last_pose = pose;
    has_pose = true;
    last_pose_slot = t;
  }
  motion::Pose predicted() const {
    if (!has_pose) return motion::Pose{};
    return stale ? last_pose : predictor.predict(2);
  }
};

class ServerPredictedView : public ::testing::Test {
 protected:
  static constexpr std::size_t kUsers = 2;

  ServerPredictedView() : server_(config_, kUsers), db_(config_.content) {
    for (std::size_t u = 0; u < kUsers; ++u) refs_.emplace_back(config_);
  }

  content::GridCell cell_of(const motion::Pose& pose) const {
    content::GridCell cell = content::cell_for_position(pose.x, pose.y);
    cell.gx = std::clamp(cell.gx, 0, config_.content.grid_width - 1);
    cell.gy = std::clamp(cell.gy, 0, config_.content.grid_height - 1);
    return cell;
  }

  void pose(std::size_t u, std::size_t t, const motion::Pose& p) {
    server_.on_pose(u, t, p);
    refs_[u].observe(t, p);
  }

  /// Builds slot t over every user and checks each lane's rates.
  void build(std::size_t t) {
    for (ReferenceUser& ref : refs_) {
      const std::size_t age =
          ref.has_pose ? t - std::min(t, ref.last_pose_slot) : t;
      ref.stale = age > config_.pose_staleness_slots;
    }
    const std::vector<std::size_t> members = {0, 1};
    server_.build_problem_for(t, members, problem_);
    for (std::size_t u = 0; u < kUsers; ++u) {
      const content::CrfRateFunction f =
          db_.frame_rate_function(cell_of(refs_[u].predicted()));
      for (core::QualityLevel q = 1; q <= core::kNumQualityLevels; ++q) {
        ASSERT_EQ(problem_.rate_of(u, q), f.rate(q))
            << "user " << u << " level " << q << " at slot " << t;
      }
    }
  }

  /// Checks every reader of the view against the reference.
  void check(const char* step) {
    SCOPED_TRACE(step);
    double mandatory = 0.0;
    for (std::size_t u = 0; u < kUsers; ++u) {
      const motion::Pose expected = refs_[u].predicted();
      ASSERT_EQ(server_.predict_pose(u), expected) << "user " << u;
      const content::GridCell cell = cell_of(expected);
      mandatory += db_.frame_rate_function(cell).rate(1);

      const core::QualityLevel level = 1 + static_cast<int>(u) * 3;
      server_.make_request(u, level, request_);
      int tiles[content::kTilesPerFrame];
      const int count = content::tiles_for_view(config_.fov, expected, tiles);
      std::vector<content::VideoId> ids;
      double megabits = 0.0;
      for (int i = 0; i < count; ++i) {
        const content::TileKey key{cell, tiles[i], level};
        ids.push_back(content::pack_video_id(key));
        megabits += db_.tile_size_megabits(key);
      }
      ASSERT_EQ(request_.full_set, ids) << "user " << u;
      ASSERT_EQ(request_.tiles, ids) << "user " << u;  // nothing ACKed
      ASSERT_EQ(request_.demand_mbps, cvr::megabits_to_slot_rate(megabits))
          << "user " << u;
    }
    ASSERT_EQ(server_.mandatory_load({0, 1}), mandatory);
  }

  /// A walk that crosses a 5 cm cell every few slots while turning.
  static motion::Pose walk(std::size_t t, double lane) {
    motion::Pose p;
    p.x = 1.0 + 0.023 * static_cast<double>(t);
    p.y = lane + 0.011 * static_cast<double>(t);
    p.yaw = motion::wrap_degrees(7.0 * static_cast<double>(t));
    p.pitch = 5.0;
    return p;
  }

  ServerConfig config_;
  Server server_;
  content::ContentDb db_;
  std::vector<ReferenceUser> refs_;
  core::SlotProblem problem_;
  TileRequest request_;
};

TEST_F(ServerPredictedView, TracksEveryInputOfThePrediction) {
  check("before any pose");
  build(1);
  check("first build, no pose");

  // Healthy walk: the view computed by each build (and the checks)
  // must be dropped by the next pose.
  std::size_t t = 1;
  for (; t < 30; ++t) {
    pose(0, t - 1, walk(t - 1, 2.0));
    pose(1, t - 1, walk(t - 1, 3.0));
    ASSERT_NO_FATAL_FAILURE(check("after on_pose"));
    ASSERT_NO_FATAL_FAILURE(build(t + 1));
    ASSERT_NO_FATAL_FAILURE(check("after build"));
  }

  // Pose blackout on user 0 until pose_stale flips: the prediction
  // switches from extrapolation to the last pose at the flip build.
  ASSERT_FALSE(refs_[0].stale);
  const std::size_t blackout_end = t + config_.pose_staleness_slots + 4;
  for (; t < blackout_end; ++t) {
    pose(1, t - 1, walk(t - 1, 3.0));
    ASSERT_NO_FATAL_FAILURE(build(t + 1));
    ASSERT_NO_FATAL_FAILURE(check("during blackout"));
  }
  ASSERT_TRUE(refs_[0].stale);
  ASSERT_TRUE(server_.in_safe_mode(0));

  // Recovery: the fresh pose is read while the user is still stale
  // (the last pose itself), then the next build flips back to
  // extrapolation.
  for (std::size_t k = 0; k < 4; ++k, ++t) {
    pose(0, t - 1, walk(t - 1, 2.0));
    pose(1, t - 1, walk(t - 1, 3.0));
    ASSERT_NO_FATAL_FAILURE(check("recovering, before build"));
    ASSERT_NO_FATAL_FAILURE(build(t + 1));
    ASSERT_NO_FATAL_FAILURE(check("recovering, after build"));
  }
  ASSERT_FALSE(refs_[0].stale);

  // Handoff: user 0 takes over state exported from another server that
  // saw a different walk.
  Server source(config_, kUsers);
  for (std::size_t s = 0; s < 10; ++s) {
    source.on_pose(0, t - 10 + s, walk(s, 5.0));
  }
  const proto::UserHandoff frame = source.export_handoff(0, t);
  server_.import_handoff(0, frame, t);
  refs_[0] = ReferenceUser(config_);
  refs_[0].observe(frame.pose_slot, frame.pose);
  refs_[0].stale = frame.pose_stale;
  ASSERT_NO_FATAL_FAILURE(check("after import_handoff"));

  // A crash wipes user 1.
  server_.reset_user(1);
  refs_[1] = ReferenceUser(config_);
  ASSERT_NO_FATAL_FAILURE(check("after reset_user"));

  for (std::size_t k = 0; k < 6; ++k, ++t) {
    ASSERT_NO_FATAL_FAILURE(build(t + 1));
    ASSERT_NO_FATAL_FAILURE(check("after handoff, build"));
    pose(0, t, walk(t, 2.0));
    pose(1, t, walk(t, 3.0));
    ASSERT_NO_FATAL_FAILURE(check("after handoff, on_pose"));
  }
}

}  // namespace
}  // namespace cvr::system
