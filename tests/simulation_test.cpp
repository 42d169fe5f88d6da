#include "src/sim/simulation.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/core/dv_greedy.h"
#include "src/core/firefly.h"
#include "src/core/pavq.h"

namespace cvr::sim {
namespace {

trace::TraceRepositoryConfig small_repo_config() {
  trace::TraceRepositoryConfig config;
  config.fcc_pool_size = 8;
  config.lte_pool_size = 4;
  config.fcc.duration_s = 30.0;
  config.lte.duration_s = 30.0;
  return config;
}

TraceSimConfig small_sim_config(std::size_t users = 3,
                                std::size_t slots = 300) {
  TraceSimConfig config;
  config.users = users;
  config.slots = slots;
  return config;
}

TEST(TraceSimulation, ProducesOneOutcomePerUser) {
  const trace::TraceRepository repo(small_repo_config(), 1);
  const TraceSimulation sim(small_sim_config(4), repo);
  core::DvGreedyAllocator alloc;
  const auto outcomes = sim.run(alloc, 0);
  EXPECT_EQ(outcomes.size(), 4u);
}

TEST(TraceSimulation, OutcomesWithinPhysicalRanges) {
  const trace::TraceRepository repo(small_repo_config(), 1);
  const TraceSimulation sim(small_sim_config(3, 500), repo);
  core::DvGreedyAllocator alloc;
  for (const auto& o : sim.run(alloc, 0)) {
    EXPECT_GE(o.avg_quality, 0.0);
    EXPECT_LE(o.avg_quality, 6.0);
    EXPECT_GE(o.avg_delay_ms, 0.0);
    EXPECT_GE(o.variance, 0.0);
    EXPECT_LE(o.variance, 9.0);  // samples in [0,6]
    EXPECT_GE(o.prediction_accuracy, 0.0);
    EXPECT_LE(o.prediction_accuracy, 1.0);
  }
}

TEST(TraceSimulation, Deterministic) {
  const trace::TraceRepository repo(small_repo_config(), 1);
  const TraceSimulation sim(small_sim_config(), repo);
  core::DvGreedyAllocator a, b;
  const auto x = sim.run(a, 2);
  const auto y = sim.run(b, 2);
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t u = 0; u < x.size(); ++u) {
    EXPECT_DOUBLE_EQ(x[u].avg_qoe, y[u].avg_qoe);
    EXPECT_DOUBLE_EQ(x[u].avg_delay_ms, y[u].avg_delay_ms);
  }
}

TEST(TraceSimulation, RunsDiffer) {
  const trace::TraceRepository repo(small_repo_config(), 1);
  const TraceSimulation sim(small_sim_config(), repo);
  core::DvGreedyAllocator alloc;
  const auto x = sim.run(alloc, 0);
  const auto y = sim.run(alloc, 1);
  EXPECT_NE(x[0].avg_qoe, y[0].avg_qoe);
}

TEST(TraceSimulation, PredictionAccuracyIsHigh) {
  // The Section-II premise: linear regression predicts motion with high
  // (but imperfect) accuracy.
  const trace::TraceRepository repo(small_repo_config(), 1);
  const TraceSimulation sim(small_sim_config(3, 1000), repo);
  core::DvGreedyAllocator alloc;
  for (const auto& o : sim.run(alloc, 0)) {
    EXPECT_GT(o.prediction_accuracy, 0.7);
    EXPECT_LT(o.prediction_accuracy, 1.0);
  }
}

TEST(TraceSimulation, CompareRunsAllArms) {
  const trace::TraceRepository repo(small_repo_config(), 1);
  const TraceSimulation sim(small_sim_config(2, 200), repo);
  core::DvGreedyAllocator ours;
  core::FireflyAllocator firefly;
  core::PavqAllocator pavq;
  const auto arms = sim.compare({&ours, &firefly, &pavq}, 3);
  ASSERT_EQ(arms.size(), 3u);
  EXPECT_EQ(arms[0].algorithm, "dv-greedy");
  EXPECT_EQ(arms[1].algorithm, "firefly-aqc");
  EXPECT_EQ(arms[2].algorithm, "pavq-modified");
  for (const auto& arm : arms) {
    EXPECT_EQ(arm.outcomes.size(), 2u * 3u);
  }
}

TEST(TraceSimulation, CompareRejectsNull) {
  const trace::TraceRepository repo(small_repo_config(), 1);
  const TraceSimulation sim(small_sim_config(), repo);
  EXPECT_THROW(sim.compare({nullptr}, 1), std::invalid_argument);
}

TEST(TraceSimulation, RejectsZeroUsersOrSlots) {
  const trace::TraceRepository repo(small_repo_config(), 1);
  EXPECT_THROW(TraceSimulation(small_sim_config(0), repo),
               std::invalid_argument);
  EXPECT_THROW(TraceSimulation(small_sim_config(2, 0), repo),
               std::invalid_argument);
}

TEST(TraceSimulation, HigherBetaLowersRealizedVariance) {
  const trace::TraceRepository repo(small_repo_config(), 1);
  TraceSimConfig lo = small_sim_config(3, 800);
  lo.params.beta = 0.0;
  TraceSimConfig hi = lo;
  hi.params.beta = 5.0;
  const TraceSimulation sim_lo(lo, repo);
  const TraceSimulation sim_hi(hi, repo);
  core::DvGreedyAllocator a, b;
  double var_lo = 0.0, var_hi = 0.0;
  for (const auto& o : sim_lo.run(a, 0)) var_lo += o.variance;
  for (const auto& o : sim_hi.run(b, 0)) var_hi += o.variance;
  EXPECT_LT(var_hi, var_lo);
}

TEST(TraceSimulation, ScenesChangeContentCosts) {
  // Two users on different scenes see different rate functions even
  // with identical motion/network: their outcomes differ; with a single
  // scene and identical everything else, the scene dimension vanishes.
  const trace::TraceRepository repo(small_repo_config(), 1);
  TraceSimConfig two_scene = small_sim_config(2, 400);
  two_scene.scenes = 2;
  TraceSimConfig one_scene = two_scene;
  one_scene.scenes = 1;
  core::DvGreedyAllocator a, b;
  const auto two = TraceSimulation(two_scene, repo).run(a, 0);
  const auto one = TraceSimulation(one_scene, repo).run(b, 0);
  // User 1's scene changes its rate functions, and through the shared
  // budget that perturbs everyone: both users' outcomes shift.
  EXPECT_NE(two[1].avg_qoe, one[1].avg_qoe);

  // With a single user the scene count is irrelevant (user 0 is always
  // on scene 0): identical outcomes.
  TraceSimConfig solo_two = small_sim_config(1, 400);
  solo_two.scenes = 2;
  TraceSimConfig solo_one = solo_two;
  solo_one.scenes = 1;
  core::DvGreedyAllocator c, d;
  const auto s2 = TraceSimulation(solo_two, repo).run(c, 0);
  const auto s1 = TraceSimulation(solo_one, repo).run(d, 0);
  EXPECT_DOUBLE_EQ(s2[0].avg_qoe, s1[0].avg_qoe);
}

TEST(TraceSimulation, SlotLogRecordsEverything) {
  const trace::TraceRepository repo(small_repo_config(), 1);
  const TraceSimulation sim(small_sim_config(3, 250), repo);
  core::DvGreedyAllocator alloc;
  std::vector<TraceSlotRecord> log;
  sim.run(alloc, 0, &log);
  ASSERT_EQ(log.size(), 250u * 3u);
  std::size_t hits = 0;
  for (const auto& r : log) {
    EXPECT_LT(r.slot, 250u);
    EXPECT_LT(r.user, 3u);
    EXPECT_TRUE(content::is_valid_level(r.level));
    EXPECT_GT(r.bandwidth_mbps, 0.0);
    EXPECT_GT(r.rate_mbps, 0.0);
    EXPECT_GE(r.delay_ms, 0.0);
    EXPECT_GE(r.delta_estimate, 0.0);
    EXPECT_LE(r.delta_estimate, 1.0);
    EXPECT_GE(r.qbar, 0.0);
    EXPECT_LE(r.qbar, 6.0);
    hits += r.hit ? 1 : 0;
  }
  EXPECT_GT(hits, log.size() / 2);  // mostly covered

  // Logging must not perturb outcomes.
  core::DvGreedyAllocator fresh;
  const auto with_log_outcomes = sim.run(alloc, 0);
  const auto plain = sim.run(fresh, 0);
  for (std::size_t u = 0; u < plain.size(); ++u) {
    EXPECT_DOUBLE_EQ(with_log_outcomes[u].avg_qoe, plain[u].avg_qoe);
  }
}

TEST(TraceSimulation, ZeroScenesRejected) {
  const trace::TraceRepository repo(small_repo_config(), 1);
  TraceSimConfig config = small_sim_config();
  config.scenes = 0;
  EXPECT_THROW(TraceSimulation(config, repo), std::invalid_argument);
}

TEST(TraceSimulation, ConfigErrorsNameTheField) {
  const trace::TraceRepository repo(small_repo_config(), 1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<std::string, std::function<void(TraceSimConfig&)>>>
      cases = {
          {"TraceSimConfig.users", [](auto& c) { c.users = 0; }},
          {"TraceSimConfig.slots", [](auto& c) { c.slots = 0; }},
          {"TraceSimConfig.scenes", [](auto& c) { c.scenes = 0; }},
          {"TraceSimConfig.server_mbps_per_user",
           [nan](auto& c) { c.server_mbps_per_user = nan; }},
          {"TraceSimConfig.server_mbps_per_user",
           [inf](auto& c) { c.server_mbps_per_user = inf; }},
          {"TraceSimConfig.server_mbps_per_user",
           [inf](auto& c) { c.server_mbps_per_user = -inf; }},
          {"TraceSimConfig.server_mbps_per_user",
           [](auto& c) { c.server_mbps_per_user = -1.0; }},
      };
  for (const auto& [field, corrupt] : cases) {
    TraceSimConfig config = small_sim_config();
    corrupt(config);
    try {
      TraceSimulation sim(config, repo);
      ADD_FAILURE() << field << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()).rfind(field + ":", 0), 0u)
          << error.what();
    }
  }
}

TEST(TraceSimulation, ZeroServerBudgetGivesAllOnes) {
  const trace::TraceRepository repo(small_repo_config(), 1);
  TraceSimConfig config = small_sim_config(3, 100);
  config.server_mbps_per_user = 0.0;
  const TraceSimulation sim(config, repo);
  core::DvGreedyAllocator alloc;
  std::vector<TraceSlotRecord> log;
  sim.run(alloc, 0, &log);
  ASSERT_FALSE(log.empty());
  for (const TraceSlotRecord& record : log) EXPECT_EQ(record.level, 1);
}

TEST(TraceSimulation, HigherAlphaLowersRealizedDelay) {
  const trace::TraceRepository repo(small_repo_config(), 1);
  TraceSimConfig lo = small_sim_config(3, 800);
  lo.params.alpha = 0.0;
  lo.params.beta = 0.0;
  TraceSimConfig hi = lo;
  hi.params.alpha = 0.5;
  const TraceSimulation sim_lo(lo, repo);
  const TraceSimulation sim_hi(hi, repo);
  core::DvGreedyAllocator a, b;
  double d_lo = 0.0, d_hi = 0.0;
  for (const auto& o : sim_lo.run(a, 0)) d_lo += o.avg_delay_ms;
  for (const auto& o : sim_hi.run(b, 0)) d_hi += o.avg_delay_ms;
  EXPECT_LT(d_hi, d_lo);
}

}  // namespace
}  // namespace cvr::sim
