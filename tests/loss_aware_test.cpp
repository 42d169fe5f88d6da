// Section VIII extension: loss-aware h_n and allocation behaviour.
#include <gtest/gtest.h>

#include <array>

#include "core_test_util.h"
#include "src/core/dv_greedy.h"
#include "src/system/system_sim.h"

namespace cvr::core {
namespace {

using testutil::make_crf_user;

TEST(HValueLossAware, MatchesManualFormula) {
  auto user = make_crf_user(100.0, 0.9, 2.0, 5.0);
  for (double& success : user.success) success *= 1.0 - 0.25;
  const QoeParams params{0.02, 0.5};
  const double success = 0.9 * 0.75;
  const double weight = 4.0 / 5.0;
  const QualityLevel q = 3;
  const double expected =
      success * 3.0 - 0.02 * user.delay[2] -
      0.5 * (success * weight * (3.0 - 2.0) * (3.0 - 2.0) +
             (1.0 - success) * weight * 4.0);
  EXPECT_NEAR(h_value(user, q, params), expected, 1e-12);
}

TEST(HValueLossAware, ZeroLossTableIsNoOp) {
  auto base = make_crf_user(100.0, 0.85, 2.5, 20.0);
  auto with_zeros = base;
  for (double& success : with_zeros.success) success *= 1.0 - 0.0;
  const QoeParams params{0.05, 0.5};
  for (QualityLevel q = 1; q <= kNumQualityLevels; ++q) {
    EXPECT_DOUBLE_EQ(h_value(base, q, params), h_value(with_zeros, q, params));
  }
}

TEST(LossAwareAllocation, SteepLossCurvePushesLevelsDown) {
  SlotProblem lossless;
  lossless.params = QoeParams{0.0, 0.0};
  lossless.push_back(make_crf_user(1000.0, 1.0, 0.0, 1.0));
  lossless.server_bandwidth = 1000.0;

  // Frame loss rising steeply with level: high levels become worthless.
  const std::array<double, 6> loss = {0.0, 0.05, 0.15, 0.4, 0.7, 0.9};
  SlotProblem lossy;
  lossy.params = lossless.params;
  UserSlotContext user = make_crf_user(1000.0, 1.0, 0.0, 1.0);
  for (std::size_t l = 0; l < loss.size(); ++l) user.success[l] *= 1.0 - loss[l];
  lossy.push_back(user);
  lossy.server_bandwidth = lossless.server_bandwidth;

  DvGreedyAllocator alloc;
  const auto q_lossless = alloc.allocate(lossless).levels[0];
  const auto q_lossy = alloc.allocate(lossy).levels[0];
  EXPECT_EQ(q_lossless, 6);
  EXPECT_LT(q_lossy, q_lossless);
}

TEST(LossAwareAllocation, SystemSimImprovesUnderInterference) {
  // The Section VIII conjecture: accounting for loss should not hurt —
  // and under heavy interference it should help.
  cvr::system::SystemSimConfig base = cvr::system::setup_two_routers(4);
  base.slots = 600;
  base.rtp.congestion_loss = 0.25;  // punishing congestion loss
  cvr::system::SystemSimConfig aware = base;
  aware.server.loss_aware = true;

  DvGreedyAllocator a, b;
  double base_qoe = 0.0, aware_qoe = 0.0;
  for (std::size_t r = 0; r < 3; ++r) {
    for (const auto& o : cvr::system::SystemSim(base).run(a, r)) {
      base_qoe += o.avg_qoe;
    }
    for (const auto& o : cvr::system::SystemSim(aware).run(b, r)) {
      aware_qoe += o.avg_qoe;
    }
  }
  EXPECT_GT(aware_qoe, base_qoe * 0.98);  // never materially worse
}

}  // namespace
}  // namespace cvr::core
