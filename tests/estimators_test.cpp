#include "src/net/estimators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/core/dv_greedy.h"
#include "src/faults/fault_schedule.h"
#include "src/net/mm1.h"
#include "src/system/system_sim.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace cvr::net {
namespace {

TEST(EmaThroughputEstimator, StartsAtInitial) {
  EmaThroughputEstimator est(0.2, 40.0);
  EXPECT_DOUBLE_EQ(est.estimate_mbps(), 40.0);
}

TEST(EmaThroughputEstimator, ConvergesToConstantSignal) {
  EmaThroughputEstimator est(0.2, 40.0);
  for (int i = 0; i < 200; ++i) est.observe(60.0);
  EXPECT_NEAR(est.estimate_mbps(), 60.0, 0.01);
}

TEST(EmaThroughputEstimator, SingleStepIsConvexCombination) {
  EmaThroughputEstimator est(0.25, 40.0);
  est.observe(80.0);
  EXPECT_DOUBLE_EQ(est.estimate_mbps(), 0.75 * 40.0 + 0.25 * 80.0);
}

TEST(EmaThroughputEstimator, LagsStepChange) {
  // The estimation-lag behaviour that hurts aggressive allocators: after
  // a sudden capacity drop the estimate stays optimistic for a while.
  EmaThroughputEstimator est(0.1, 60.0);
  for (int i = 0; i < 100; ++i) est.observe(60.0);
  est.observe(20.0);
  est.observe(20.0);
  EXPECT_GT(est.estimate_mbps(), 40.0);  // still far above reality
}

TEST(EmaThroughputEstimator, SmoothsNoise) {
  cvr::Rng rng(1);
  EmaThroughputEstimator est(0.05, 50.0);
  double min_seen = 1e9, max_seen = 0.0;
  for (int i = 0; i < 5000; ++i) {
    est.observe(50.0 + rng.normal(0.0, 10.0));
    min_seen = std::min(min_seen, est.estimate_mbps());
    max_seen = std::max(max_seen, est.estimate_mbps());
  }
  EXPECT_GT(min_seen, 40.0);
  EXPECT_LT(max_seen, 60.0);
}

TEST(EmaThroughputEstimator, RejectsBadInput) {
  EXPECT_THROW(EmaThroughputEstimator(0.0, 40.0), std::invalid_argument);
  EXPECT_THROW(EmaThroughputEstimator(1.1, 40.0), std::invalid_argument);
  // A NaN start would never leave the EMA: every later update computes
  // NaN + alpha * (sample - NaN).
  for (double initial : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(), -1.0}) {
    EXPECT_THROW(EmaThroughputEstimator(0.2, initial), std::invalid_argument)
        << initial;
  }
  EXPECT_NO_THROW(EmaThroughputEstimator(0.2, 0.0));
}

TEST(EmaThroughputEstimator, NegativeSampleClampsToZero) {
  // One corrupt report must never crash the server loop: a negative
  // sample behaves as a measured zero.
  EmaThroughputEstimator est(0.25, 40.0);
  est.observe(-1.0);
  EXPECT_DOUBLE_EQ(est.estimate_mbps(), 0.75 * 40.0);
  EXPECT_EQ(est.observations(), 1u);
}

TEST(EmaThroughputEstimator, NonFiniteSamplesIgnored) {
  EmaThroughputEstimator est(0.25, 40.0);
  est.observe(std::numeric_limits<double>::quiet_NaN());
  est.observe(std::numeric_limits<double>::infinity());
  est.observe(-std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(est.estimate_mbps(), 40.0);
  EXPECT_EQ(est.observations(), 0u);
  est.observe(60.0);  // still alive and learning afterwards
  EXPECT_DOUBLE_EQ(est.estimate_mbps(), 0.75 * 40.0 + 0.25 * 60.0);
}

TEST(DelayPredictor, ColdStartUsesAnalyticMm1) {
  DelayPredictor pred;
  EXPECT_FALSE(pred.trained());
  const double expected = mm1_delay(20.0, 40.0) * cvr::kSlotMillis;
  EXPECT_DOUBLE_EQ(pred.predict_ms(20.0, 40.0), expected);
}

TEST(DelayPredictor, LearnsQuadraticDelayCurve) {
  DelayPredictor pred;
  // Feed a synthetic convex delay curve; the quadratic fit should track
  // it well inside the observed range.
  auto truth = [](double r) { return 0.5 + 0.02 * r + 0.004 * r * r; };
  for (double r = 5.0; r <= 50.0; r += 1.0) pred.observe(r, truth(r));
  EXPECT_TRUE(pred.trained());
  for (double r : {10.0, 25.0, 40.0}) {
    EXPECT_NEAR(pred.predict_ms(r, 60.0), truth(r), 0.05);
  }
}

TEST(DelayPredictor, PredictionNeverNegative) {
  DelayPredictor pred;
  // Decreasing-looking noise could yield a negative quadratic somewhere.
  for (double r = 5.0; r <= 20.0; r += 1.0) pred.observe(r, 0.01);
  EXPECT_GE(pred.predict_ms(0.0, 60.0), 0.0);
  EXPECT_GE(pred.predict_ms(100.0, 60.0), 0.0);
}

TEST(DelayPredictor, NegativeSamplesClampToZero) {
  DelayPredictor a;
  DelayPredictor b;
  for (double r = 5.0; r <= 20.0; r += 1.0) {
    a.observe(r, 1.0);
    b.observe(r, 1.0);
  }
  // A negative component clamps to zero rather than throwing.
  a.observe(-3.0, -7.0);
  b.observe(0.0, 0.0);
  EXPECT_TRUE(a.trained());
  EXPECT_DOUBLE_EQ(a.predict_ms(10.0, 60.0), b.predict_ms(10.0, 60.0));
}

TEST(DelayPredictor, NonFiniteSamplesIgnored) {
  DelayPredictor pred;
  pred.observe(std::numeric_limits<double>::quiet_NaN(), 1.0);
  pred.observe(1.0, std::numeric_limits<double>::infinity());
  EXPECT_FALSE(pred.trained());
  // Predictions stay on the analytic cold-start path and stay finite.
  EXPECT_TRUE(std::isfinite(pred.predict_ms(20.0, 40.0)));
}

TEST(StaleHold, HoldsThenDecaysTowardFloor) {
  const StaleHoldConfig config;  // hold 33, decay 0.93, floor 1.0
  // Inside the hold window the estimate is untouched.
  EXPECT_DOUBLE_EQ(apply_stale_hold(60.0, 0, config), 60.0);
  EXPECT_DOUBLE_EQ(apply_stale_hold(60.0, config.hold_slots, config), 60.0);
  // Past the hold it decays monotonically...
  double prev = 60.0;
  for (std::size_t s = config.hold_slots + 1; s < config.hold_slots + 200;
       ++s) {
    const double held = apply_stale_hold(60.0, s, config);
    EXPECT_LE(held, prev);
    EXPECT_GE(held, config.floor_mbps);
    prev = held;
  }
  // ...and long silence lands on the re-probe floor.
  EXPECT_DOUBLE_EQ(apply_stale_hold(60.0, 100000, config), config.floor_mbps);
}

TEST(StaleHold, FloorNeverInflatesASmallEstimate) {
  StaleHoldConfig config;
  config.floor_mbps = 10.0;
  // An estimate already below the floor must not be *raised* by decay.
  EXPECT_LE(apply_stale_hold(2.0, 1000, config), 2.0);
}

TEST(DelayPredictor, NoisyMm1SamplesStillTrackAnalytic) {
  cvr::Rng rng(2);
  DelayPredictor pred;
  const double bandwidth = 50.0;
  for (int i = 0; i < 300; ++i) {
    const double r = rng.uniform(5.0, 40.0);
    const double d = mm1_delay(r, bandwidth) * (1.0 + rng.normal(0.0, 0.1));
    pred.observe(r, std::max(0.0, d));
  }
  // Mid-range prediction within a factor ~2 of the analytic value
  // (quadratic approximation of a hyperbola over the sampled range).
  const double analytic = mm1_delay(25.0, bandwidth);
  const double predicted = pred.predict_ms(25.0, bandwidth);
  EXPECT_GT(predicted, analytic * 0.4);
  EXPECT_LT(predicted, analytic * 2.5);
}

TEST(ProbingEstimator, StartsAtInitialAndProbeSchedule) {
  ProbingConfig config;
  ProbingThroughputEstimator est(config);
  EXPECT_DOUBLE_EQ(est.estimate_mbps(), config.initial_mbps);
  EXPECT_EQ(est.observations(), 0u);
  EXPECT_EQ(est.probes(), 0u);
  // Slot 0 never probes; thereafter every probe_period_slots-th slot.
  EXPECT_FALSE(est.probe_due(0));
  EXPECT_FALSE(est.probe_due(1));
  EXPECT_FALSE(est.probe_due(65));
  EXPECT_TRUE(est.probe_due(66));
  EXPECT_FALSE(est.probe_due(67));
  EXPECT_TRUE(est.probe_due(132));
}

TEST(ProbingEstimator, ProbeBudgetIsCappedFraction) {
  ProbingConfig config;
  config.probe_fraction = 0.25;
  config.probe_cap_mbps = 20.0;
  config.initial_mbps = 40.0;
  ProbingThroughputEstimator est(config);
  EXPECT_DOUBLE_EQ(est.probe_budget_mbps(), 10.0);  // 0.25 * 40
  // Drive the estimate high enough to hit the cap.
  for (int i = 0; i < 200; ++i) est.observe_probe(500.0);
  EXPECT_DOUBLE_EQ(est.probe_budget_mbps(), 20.0);
  EXPECT_TRUE(std::isfinite(est.probe_budget_mbps()));
}

TEST(ProbingEstimator, AlphaWeightsDiffer) {
  ProbingConfig config;
  config.alpha_passive = 0.2;
  config.alpha_probe = 0.6;
  config.initial_mbps = 40.0;
  ProbingThroughputEstimator passive(config);
  ProbingThroughputEstimator probe(config);
  passive.observe_passive(80.0);
  probe.observe_probe(80.0);
  EXPECT_DOUBLE_EQ(passive.estimate_mbps(), 0.8 * 40.0 + 0.2 * 80.0);
  EXPECT_DOUBLE_EQ(probe.estimate_mbps(), 0.4 * 40.0 + 0.6 * 80.0);
  EXPECT_EQ(probe.probes(), 1u);
  EXPECT_EQ(passive.probes(), 0u);
  EXPECT_EQ(passive.observations(), 1u);
  EXPECT_EQ(probe.observations(), 1u);
}

TEST(ProbingEstimator, HardenedAgainstBadSamples) {
  ProbingThroughputEstimator est;
  est.observe_passive(std::numeric_limits<double>::quiet_NaN());
  est.observe_probe(std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(est.estimate_mbps(), 40.0);
  EXPECT_EQ(est.observations(), 0u);
  est.observe_passive(-5.0);  // clamps to a measured zero
  EXPECT_DOUBLE_EQ(est.estimate_mbps(), 0.8 * 40.0);
  EXPECT_EQ(est.observations(), 1u);
  // Estimate can never go negative however hard it is driven down.
  for (int i = 0; i < 500; ++i) est.observe_probe(-1e9);
  EXPECT_GE(est.estimate_mbps(), 0.0);
  EXPECT_TRUE(std::isfinite(est.estimate_mbps()));
}

TEST(ProbingEstimator, RestoreRoundTripsHandoff) {
  ProbingThroughputEstimator est;
  est.restore(55.5, 42);
  EXPECT_DOUBLE_EQ(est.estimate_mbps(), 55.5);
  EXPECT_EQ(est.observations(), 42u);
  EXPECT_THROW(est.restore(-1.0, 3), std::invalid_argument);
  EXPECT_THROW(est.restore(std::numeric_limits<double>::quiet_NaN(), 3),
               std::invalid_argument);
}

TEST(ProbingConfigValidate, RejectsBadFields) {
  auto broken = [](auto mutate) {
    ProbingConfig config;
    mutate(config);
    return config;
  };
  EXPECT_THROW(validate(broken([](auto& c) { c.probe_period_slots = 0; })),
               std::invalid_argument);
  EXPECT_THROW(validate(broken([](auto& c) { c.alpha_passive = 0.0; })),
               std::invalid_argument);
  EXPECT_THROW(validate(broken([](auto& c) { c.alpha_probe = 1.5; })),
               std::invalid_argument);
  EXPECT_THROW(validate(broken([](auto& c) { c.probe_fraction = -0.1; })),
               std::invalid_argument);
  EXPECT_THROW(validate(broken([](auto& c) { c.probe_cap_mbps = -1.0; })),
               std::invalid_argument);
  EXPECT_THROW(validate(broken([](auto& c) { c.initial_mbps = -1.0; })),
               std::invalid_argument);
  EXPECT_NO_THROW(validate(ProbingConfig{}));
}

TEST(BudgetSplitTest, ConservesBudgetExactly) {
  // The conservation contract is bitwise: content is *defined* as the
  // remainder, so content + probe round-trips need not hold in IEEE but
  // content == total - probe always does.
  for (double total : {0.0, 1.0, 36.0, 40.000000000000007, 1e9}) {
    for (double probe : {0.0, 0.1, 10.0, 39.0, 1e12}) {
      const BudgetSplit split = split_probe_budget(total, probe);
      EXPECT_GE(split.probe_mbps, 0.0);
      EXPECT_LE(split.probe_mbps, total);
      EXPECT_DOUBLE_EQ(split.content_mbps, total - split.probe_mbps);
      EXPECT_GE(split.content_mbps, 0.0);
    }
  }
  // Requests are clamped: negative asks take nothing, oversized asks
  // take everything.
  EXPECT_DOUBLE_EQ(split_probe_budget(40.0, -3.0).probe_mbps, 0.0);
  EXPECT_DOUBLE_EQ(split_probe_budget(40.0, 100.0).probe_mbps, 40.0);
  EXPECT_DOUBLE_EQ(split_probe_budget(40.0, 100.0).content_mbps, 0.0);
}

// --- Estimator-arm cross-validation -----------------------------------
//
// The probing arm must be comparable to the EMA arm under the same
// fault schedules (docs/workloads.md): identical worlds, identical
// faults, only the estimator differs — and the recovery metrics must
// actually distinguish the arms.

faults::FaultEvent window(faults::FaultType type, std::size_t target,
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

system::SystemSimConfig arm_config(system::EstimatorArm arm,
                                   const faults::FaultSchedule& schedule) {
  system::SystemSimConfig config = system::setup_one_router(4);
  config.slots = 500;
  config.server.estimator_arm = arm;
  config.faults = schedule;
  return config;
}

std::vector<sim::UserOutcome> run_arm(system::EstimatorArm arm,
                                      const faults::FaultSchedule& schedule) {
  core::DvGreedyAllocator alloc;
  return system::SystemSim(arm_config(arm, schedule)).run(alloc, 0);
}

TEST(EstimatorArms, DifferUnderAckStallSchedule) {
  // Feedback blackouts are where the arms genuinely diverge: the EMA
  // arm coasts on stale-hold while the probing arm re-learns with a
  // heavier weight as soon as feedback returns.
  faults::FaultSchedule schedule;
  for (std::size_t u = 0; u < 4; ++u) {
    schedule.add(window(faults::FaultType::kAckStall, u, 120 + 30 * u, 60));
  }
  const auto ema = run_arm(system::EstimatorArm::kEma, schedule);
  const auto probing = run_arm(system::EstimatorArm::kProbing, schedule);
  ASSERT_EQ(ema.size(), probing.size());
  bool qoe_differs = false;
  for (std::size_t u = 0; u < ema.size(); ++u) {
    // Same schedule, same world: fault exposure is identical per arm...
    EXPECT_DOUBLE_EQ(ema[u].fault_slots, probing[u].fault_slots);
    EXPECT_GT(ema[u].fault_slots, 0.0);
    EXPECT_TRUE(std::isfinite(probing[u].avg_qoe));
    if (ema[u].avg_qoe != probing[u].avg_qoe) qoe_differs = true;
  }
  // ...but the realized QoE under the faults is not.
  EXPECT_TRUE(qoe_differs);
}

TEST(EstimatorArms, DifferUnderRouterOutageSchedule) {
  faults::FaultSchedule schedule;
  schedule.add(window(faults::FaultType::kRouterOutage, 0, 100, 80, 0.1));
  schedule.add(window(faults::FaultType::kRouterOutage, 0, 300, 80, 0.15));
  const auto ema = run_arm(system::EstimatorArm::kEma, schedule);
  const auto probing = run_arm(system::EstimatorArm::kProbing, schedule);
  ASSERT_EQ(ema.size(), probing.size());
  bool recovery_differs = false;
  for (std::size_t u = 0; u < ema.size(); ++u) {
    EXPECT_DOUBLE_EQ(ema[u].fault_slots, probing[u].fault_slots);
    EXPECT_GT(ema[u].fault_slots, 0.0);
    EXPECT_GE(probing[u].time_to_recover_slots, 0.0);
    if (ema[u].avg_qoe != probing[u].avg_qoe ||
        ema[u].qoe_dip != probing[u].qoe_dip ||
        ema[u].time_to_recover_slots != probing[u].time_to_recover_slots) {
      recovery_differs = true;
    }
  }
  EXPECT_TRUE(recovery_differs);
}

TEST(EstimatorArms, ProbingArmDeterministic) {
  faults::FaultSchedule schedule;
  schedule.add(window(faults::FaultType::kAckStall, 1, 150, 60));
  const auto x = run_arm(system::EstimatorArm::kProbing, schedule);
  const auto y = run_arm(system::EstimatorArm::kProbing, schedule);
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t u = 0; u < x.size(); ++u) {
    EXPECT_DOUBLE_EQ(x[u].avg_qoe, y[u].avg_qoe);
    EXPECT_DOUBLE_EQ(x[u].avg_delay_ms, y[u].avg_delay_ms);
    EXPECT_DOUBLE_EQ(x[u].qoe_dip, y[u].qoe_dip);
  }
}

// Guard: the kEma arm with a tweaked-but-unselected probing config is
// bit-identical to the default server — the probing machinery must be
// inert unless the arm selects it.
TEST(EstimatorArms, UnselectedProbingConfigInert) {
  faults::FaultSchedule empty;
  system::SystemSimConfig legacy = arm_config(system::EstimatorArm::kEma, empty);
  system::SystemSimConfig tweaked = legacy;
  tweaked.server.probing.probe_period_slots = 5;
  tweaked.server.probing.probe_fraction = 0.9;
  tweaked.server.probing.alpha_probe = 0.9;
  core::DvGreedyAllocator a, b;
  const auto x = system::SystemSim(legacy).run(a, 0);
  const auto y = system::SystemSim(tweaked).run(b, 0);
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t u = 0; u < x.size(); ++u) {
    EXPECT_DOUBLE_EQ(x[u].avg_qoe, y[u].avg_qoe);
    EXPECT_DOUBLE_EQ(x[u].avg_quality, y[u].avg_quality);
    EXPECT_DOUBLE_EQ(x[u].avg_delay_ms, y[u].avg_delay_ms);
    EXPECT_DOUBLE_EQ(x[u].fps, y[u].fps);
  }
}

TEST(EstimatorArms, ProbingChangesFaultFreeRunToo) {
  faults::FaultSchedule empty;
  const auto ema = run_arm(system::EstimatorArm::kEma, empty);
  const auto probing = run_arm(system::EstimatorArm::kProbing, empty);
  bool differs = false;
  for (std::size_t u = 0; u < ema.size(); ++u) {
    EXPECT_DOUBLE_EQ(ema[u].fault_slots, 0.0);
    EXPECT_DOUBLE_EQ(probing[u].fault_slots, 0.0);
    if (ema[u].avg_qoe != probing[u].avg_qoe) differs = true;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace cvr::net
