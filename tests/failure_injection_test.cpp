// Failure injection: the system must degrade gracefully — never crash,
// never emit out-of-range metrics — under hostile network conditions,
// degenerate traces, and pathological allocator inputs.
#include <gtest/gtest.h>

#include <cmath>

#include "core_test_util.h"
#include "src/core/dv_greedy.h"
#include "src/core/firefly.h"
#include "src/core/lagrangian.h"
#include "src/core/pavq.h"
#include "src/faults/fault_schedule.h"
#include "src/sim/simulation.h"
#include "src/system/system_sim.h"

namespace cvr {
namespace {

using core::testutil::make_crf_user;

void expect_sane(const sim::UserOutcome& o) {
  EXPECT_TRUE(std::isfinite(o.avg_qoe));
  EXPECT_GE(o.avg_quality, 0.0);
  EXPECT_LE(o.avg_quality, 6.0);
  EXPECT_GE(o.avg_delay_ms, 0.0);
  EXPECT_GE(o.variance, 0.0);
  EXPECT_LE(o.variance, 9.0);
  EXPECT_GE(o.fps, 0.0);
  EXPECT_LE(o.fps, 66.1);
  EXPECT_TRUE(std::isfinite(o.fault_slots));
  EXPECT_GE(o.fault_slots, 0.0);
  EXPECT_TRUE(std::isfinite(o.time_to_recover_slots));
  EXPECT_GE(o.time_to_recover_slots, 0.0);
  EXPECT_TRUE(std::isfinite(o.qoe_dip));
  EXPECT_GE(o.qoe_dip, 0.0);
  EXPECT_TRUE(std::isfinite(o.frames_dropped_in_fault));
  EXPECT_GE(o.frames_dropped_in_fault, 0.0);
}

faults::FaultEvent make_fault(faults::FaultType type, std::size_t target,
                              std::size_t start, std::size_t duration,
                              double severity = 0.0) {
  faults::FaultEvent e;
  e.type = type;
  e.target = target;
  e.start_slot = start;
  e.duration_slots = duration;
  e.severity = severity;
  return e;
}

TEST(FailureInjection, NearTotalInterferenceCollapse) {
  // Interference bursts that kill 95% of capacity and barely ever end.
  system::SystemSimConfig config = system::setup_two_routers(4);
  config.slots = 400;
  config.channel.interference_prob = 0.5;
  config.channel.interference_depth = 0.05;
  config.channel.interference_exit = 0.02;
  core::DvGreedyAllocator alloc;
  for (const auto& o : system::SystemSim(config).run(alloc, 0)) {
    expect_sane(o);
    EXPECT_LT(o.avg_qoe, 1.0);  // the world is genuinely terrible
  }
}

TEST(FailureInjection, LossStorm) {
  system::SystemSimConfig config = system::setup_one_router(4);
  config.slots = 400;
  config.rtp.base_loss = 0.3;  // 30% of packets vanish even when idle
  core::DvGreedyAllocator alloc;
  for (const auto& o : system::SystemSim(config).run(alloc, 0)) {
    expect_sane(o);
    EXPECT_LT(o.avg_quality, 1.0);  // nearly nothing decodes
  }
}

TEST(FailureInjection, CrippledDecoder) {
  system::SystemSimConfig config = system::setup_one_router(3);
  config.slots = 300;
  config.devices.clear();  // use the shared client config below
  config.client.decoder.decoders = 1;
  config.client.decoder.decode_ms_per_tile = 9.0;  // 2 tiles already late
  core::DvGreedyAllocator alloc;
  double fps = 0.0;
  const auto outcomes = system::SystemSim(config).run(alloc, 0);
  for (const auto& o : outcomes) {
    expect_sane(o);
    fps += o.fps;
  }
  fps /= static_cast<double>(outcomes.size());
  EXPECT_LT(fps, 55.0);  // decode stage becomes the bottleneck
}

TEST(FailureInjection, TinyClientBufferThrashes) {
  system::SystemSimConfig config = system::setup_one_router(3);
  config.slots = 300;
  config.devices.clear();
  config.client.buffer_threshold = 2;  // evicts almost everything
  core::DvGreedyAllocator alloc;
  for (const auto& o : system::SystemSim(config).run(alloc, 0)) {
    expect_sane(o);
  }
}

TEST(FailureInjection, StarvedUplinkTraceSim) {
  // Server budget far below even the all-ones minimum.
  trace::TraceRepositoryConfig repo_config;
  repo_config.fcc.duration_s = 10.0;
  repo_config.lte.duration_s = 10.0;
  const trace::TraceRepository repo(repo_config, 1);
  sim::TraceSimConfig config;
  config.users = 4;
  config.slots = 300;
  config.server_mbps_per_user = 1.0;
  const sim::TraceSimulation simulation(config, repo);
  core::DvGreedyAllocator alloc;
  for (const auto& o : simulation.run(alloc, 0)) {
    expect_sane(o);
    EXPECT_LE(o.avg_quality, 1.0 + 1e-9);  // pinned at the minimum
  }
}

TEST(FaultInjection, EmptyScheduleLeavesRecoveryAccountingZero) {
  system::SystemSimConfig config = system::setup_one_router(3);
  config.slots = 300;
  core::DvGreedyAllocator alloc;
  for (const auto& o : system::SystemSim(config).run(alloc, 0)) {
    expect_sane(o);
    EXPECT_DOUBLE_EQ(o.fault_slots, 0.0);
    EXPECT_DOUBLE_EQ(o.time_to_recover_slots, 0.0);
    EXPECT_DOUBLE_EQ(o.qoe_dip, 0.0);
    EXPECT_DOUBLE_EQ(o.frames_dropped_in_fault, 0.0);
  }
}

TEST(FaultInjection, FaultsBeyondHorizonAreInert) {
  // A schedule whose every window starts after the horizon must leave
  // the run bit-identical to an empty schedule: the queries are pure.
  system::SystemSimConfig baseline = system::setup_one_router(3);
  baseline.slots = 300;
  system::SystemSimConfig faulted = baseline;
  faulted.faults.add(
      make_fault(faults::FaultType::kUserDisconnect, 0, 1000, 60));
  faulted.faults.add(
      make_fault(faults::FaultType::kRouterOutage, 0, 2000, 60, 0.1));
  faulted.faults.add(make_fault(faults::FaultType::kCacheFlush, 0, 3000, 1));
  core::DvGreedyAllocator a1;
  core::DvGreedyAllocator a2;
  const auto base = system::SystemSim(baseline).run(a1, 0);
  const auto with = system::SystemSim(faulted).run(a2, 0);
  ASSERT_EQ(base.size(), with.size());
  for (std::size_t u = 0; u < base.size(); ++u) {
    EXPECT_DOUBLE_EQ(base[u].avg_qoe, with[u].avg_qoe);
    EXPECT_DOUBLE_EQ(base[u].avg_quality, with[u].avg_quality);
    EXPECT_DOUBLE_EQ(base[u].avg_delay_ms, with[u].avg_delay_ms);
    EXPECT_DOUBLE_EQ(base[u].variance, with[u].variance);
    EXPECT_DOUBLE_EQ(base[u].fps, with[u].fps);
    EXPECT_DOUBLE_EQ(with[u].fault_slots, 0.0);
    EXPECT_DOUBLE_EQ(with[u].time_to_recover_slots, 0.0);
  }
}

TEST(FaultInjection, ChurnedUserReconnectsAndRecovers) {
  system::SystemSimConfig config = system::setup_one_router(4);
  config.slots = 600;
  config.faults.add(
      make_fault(faults::FaultType::kUserDisconnect, 1, 200, 60));
  core::DvGreedyAllocator alloc;
  const auto outcomes = system::SystemSim(config).run(alloc, 0);
  for (const auto& o : outcomes) expect_sane(o);
  // The churned user's fault accounting matches the window exactly; the
  // bystanders saw no fault at all.
  EXPECT_DOUBLE_EQ(outcomes[1].fault_slots, 60.0);
  EXPECT_DOUBLE_EQ(outcomes[1].frames_dropped_in_fault, 60.0);
  for (std::size_t u : {0u, 2u, 3u}) {
    EXPECT_DOUBLE_EQ(outcomes[u].fault_slots, 0.0);
  }
  // Reconnect works: recovery is bounded, not censored-to-horizon.
  EXPECT_GT(outcomes[1].time_to_recover_slots, 0.0);
  EXPECT_LE(outcomes[1].time_to_recover_slots, 150.0);
  EXPECT_GT(outcomes[1].qoe_dip, 0.0);  // disconnection genuinely hurt
}

TEST(FaultInjection, PoseBlackoutDegradesOnlyTheSilentUser) {
  // The ISSUE acceptance scenario: a 60-slot mid-run pose blackout for
  // one user. Paired against the fault-free run of the same seed, the
  // silent user must pay more QoE than any bystander, recover within a
  // bounded window, and keep every outcome finite.
  system::SystemSimConfig baseline = system::setup_one_router(6);
  baseline.slots = 600;
  system::SystemSimConfig faulted = baseline;
  faulted.faults.add(
      make_fault(faults::FaultType::kPoseBlackout, 2, 250, 60));
  core::DvGreedyAllocator a1;
  core::DvGreedyAllocator a2;
  const auto base = system::SystemSim(baseline).run(a1, 0);
  const auto with = system::SystemSim(faulted).run(a2, 0);
  ASSERT_EQ(base.size(), with.size());
  for (const auto& o : with) expect_sane(o);

  const double victim_drop = base[2].avg_qoe - with[2].avg_qoe;
  EXPECT_GT(victim_drop, 0.0);  // silence costs the silent user QoE
  for (std::size_t u = 0; u < with.size(); ++u) {
    if (u == 2) continue;
    // Graceful degradation: no bystander loses as much as the victim
    // (safe-mode pinning keeps the victim's stale estimates from
    // starving the healthy users through the shared budget).
    EXPECT_LT(base[u].avg_qoe - with[u].avg_qoe, victim_drop);
  }
  EXPECT_DOUBLE_EQ(with[2].fault_slots, 60.0);
  EXPECT_GT(with[2].time_to_recover_slots, 0.0);
  EXPECT_LE(with[2].time_to_recover_slots, 150.0);
}

TEST(FaultInjection, RouterOutageHitsEveryUserBehindIt) {
  system::SystemSimConfig config = system::setup_one_router(4);
  config.slots = 600;
  // 90% capacity cliff for 80 slots: everyone shares the pain, nobody
  // crashes, and the run still produces in-range metrics.
  config.faults.add(
      make_fault(faults::FaultType::kRouterOutage, 0, 200, 80, 0.1));
  core::DvGreedyAllocator alloc;
  const auto outcomes = system::SystemSim(config).run(alloc, 0);
  for (const auto& o : outcomes) {
    expect_sane(o);
    EXPECT_DOUBLE_EQ(o.fault_slots, 80.0);
    EXPECT_LE(o.time_to_recover_slots, 200.0);
  }
}

TEST(FaultInjection, AckStallStarvesFeedbackNotDelivery) {
  system::SystemSimConfig config = system::setup_one_router(4);
  config.slots = 600;
  config.faults.add(make_fault(faults::FaultType::kAckStall, 0, 150, 120));
  core::DvGreedyAllocator alloc;
  const auto outcomes = system::SystemSim(config).run(alloc, 0);
  for (const auto& o : outcomes) expect_sane(o);
  EXPECT_DOUBLE_EQ(outcomes[0].fault_slots, 120.0);
  // Tiles still flow during the stall — the user keeps displaying
  // frames, so the stall costs far fewer frames than its window length.
  EXPECT_LT(outcomes[0].frames_dropped_in_fault, 120.0);
}

TEST(FaultInjection, CacheFlushIsASurvivableBlip) {
  system::SystemSimConfig config = system::setup_one_router(4);
  config.slots = 600;
  config.faults.add(make_fault(faults::FaultType::kCacheFlush, 0, 300, 1));
  core::DvGreedyAllocator alloc;
  const auto outcomes = system::SystemSim(config).run(alloc, 0);
  for (const auto& o : outcomes) {
    expect_sane(o);
    EXPECT_DOUBLE_EQ(o.fault_slots, 1.0);  // the flush touches everyone
    EXPECT_LE(o.time_to_recover_slots, 100.0);
  }
}

TEST(FaultInjection, GeneratedChaosScheduleSurvivesAllAllocators) {
  faults::FaultScheduleConfig chaos;
  chaos.users = 4;
  chaos.routers = 1;
  chaos.slots = 500;
  chaos.intensity = 2.0;
  chaos.seed = 7;
  system::SystemSimConfig config = system::setup_one_router(4);
  config.slots = 500;
  config.faults = faults::generate_schedule(chaos);
  ASSERT_FALSE(config.faults.empty());
  core::DvGreedyAllocator dv;
  core::FireflyAllocator firefly;
  core::PavqAllocator pavq;
  for (core::Allocator* alloc :
       {static_cast<core::Allocator*>(&dv),
        static_cast<core::Allocator*>(&firefly),
        static_cast<core::Allocator*>(&pavq)}) {
    for (const auto& o : system::SystemSim(config).run(*alloc, 0)) {
      expect_sane(o);
    }
  }
}

TEST(FailureInjection, AllocatorsSurvivePathologicalContexts) {
  // delta = 0 (prediction never works), qbar at the ceiling, huge slot
  // index, saturated delay on every level.
  core::SlotProblem problem;
  problem.params = core::QoeParams{0.5, 5.0};
  for (int i = 0; i < 4; ++i) {
    auto user = make_crf_user(15.0, 0.0, 6.0, 1e9);
    for (auto& d : user.delay) d = net::kSaturatedDelay;
    problem.push_back(std::move(user));
  }
  problem.server_bandwidth = 30.0;

  core::DvGreedyAllocator dv;
  core::FireflyAllocator firefly;
  core::PavqAllocator pavq;
  core::LagrangianAllocator lagrangian;
  core::Allocator* allocators[] = {&dv, &firefly, &pavq, &lagrangian};
  for (core::Allocator* alloc : allocators) {
    const core::Allocation a = alloc->allocate(problem);
    ASSERT_EQ(a.levels.size(), 4u);
    for (core::QualityLevel q : a.levels) {
      EXPECT_TRUE(content::is_valid_level(q));
    }
    EXPECT_TRUE(std::isfinite(a.objective));
  }
}

TEST(FailureInjection, UserCountChangesMidStream) {
  // A student joins / leaves between slots: stateful allocators must
  // resync instead of crashing or mis-indexing.
  core::FireflyAllocator firefly;
  core::PavqAllocator pavq;
  core::DvGreedyAllocator dv;
  for (std::size_t users : {3, 5, 2, 8, 1, 6}) {
    core::SlotProblem problem;
    problem.params = core::QoeParams{0.02, 0.5};
    for (std::size_t n = 0; n < users; ++n) {
      problem.push_back(make_crf_user(50.0, 0.9, 2.0, 10.0));
    }
    problem.server_bandwidth = 36.0 * static_cast<double>(users);
    core::Allocator* allocators[] = {&firefly, &pavq, &dv};
    for (core::Allocator* alloc : allocators) {
      EXPECT_EQ(alloc->allocate(problem).levels.size(), users);
    }
  }
}

TEST(FailureInjection, ZeroBandwidthEstimates) {
  // An EMA driven to (near) zero must not divide-by-zero anywhere.
  core::SlotProblem problem;
  problem.params = core::QoeParams{0.1, 0.5};
  problem.push_back(make_crf_user(1e-6, 0.9, 2.0, 10.0));
  problem.server_bandwidth = 100.0;
  core::DvGreedyAllocator dv;
  const auto a = dv.allocate(problem);
  EXPECT_EQ(a.levels[0], 1);  // nothing above the minimum is feasible
  EXPECT_TRUE(std::isfinite(a.objective));
}

TEST(FailureInjection, ExtremeWeights) {
  for (double alpha : {0.0, 1e6}) {
    for (double beta : {0.0, 1e6}) {
      core::SlotProblem problem;
      problem.params = core::QoeParams{alpha, beta};
      for (int i = 0; i < 3; ++i) {
        problem.push_back(make_crf_user(60.0, 0.9, 3.0, 50.0));
      }
      problem.server_bandwidth = 150.0;
      core::DvGreedyAllocator dv;
      const auto a = dv.allocate(problem);
      EXPECT_TRUE(core::server_feasible(problem, a.levels));
      EXPECT_TRUE(std::isfinite(a.objective));
    }
  }
}

}  // namespace
}  // namespace cvr
