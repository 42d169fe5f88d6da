// SIMD backend contract tests: dispatch rules and the scalar≡AVX2
// bit-exactness guarantee of the SoA h-table kernels
// (docs/vectorization.md).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core_test_util.h"
#include "src/core/dv_greedy.h"
#include "src/core/htable.h"
#include "src/core/simd.h"

namespace cvr::core {
namespace {

namespace simd = cvr::core::simd;
using testutil::random_problem;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Restores the dispatch default on scope exit.
struct BackendGuard {
  simd::Backend saved = simd::active_backend();
  ~BackendGuard() { simd::set_backend_for_testing(saved); }
};

std::vector<simd::Backend> testable_backends() {
  std::vector<simd::Backend> backends{simd::Backend::kScalar};
  if (simd::avx2_available()) backends.push_back(simd::Backend::kAvx2);
  return backends;
}

TEST(SimdDispatch, PaddedRoundsUpToLanes) {
  EXPECT_EQ(simd::padded(0), 0u);
  EXPECT_EQ(simd::padded(1), simd::kLanes);
  EXPECT_EQ(simd::padded(simd::kLanes), simd::kLanes);
  EXPECT_EQ(simd::padded(simd::kLanes + 1), 2 * simd::kLanes);
  EXPECT_EQ(simd::padded(121), 124u);
}

TEST(SimdDispatch, AvailableImpliesCompiled) {
  if (simd::avx2_available()) {
    EXPECT_TRUE(simd::avx2_compiled());
  }
}

TEST(SimdDispatch, BackendNames) {
  EXPECT_STREQ(simd::backend_name(simd::Backend::kScalar), "scalar");
  EXPECT_STREQ(simd::backend_name(simd::Backend::kAvx2), "avx2");
}

TEST(SimdDispatch, ForcingBackendsRoundTrips) {
  const BackendGuard guard;
  simd::set_backend_for_testing(simd::Backend::kScalar);
  EXPECT_EQ(simd::active_backend(), simd::Backend::kScalar);
  if (simd::avx2_available()) {
    simd::set_backend_for_testing(simd::Backend::kAvx2);
    EXPECT_EQ(simd::active_backend(), simd::Backend::kAvx2);
  } else {
    EXPECT_THROW(simd::set_backend_for_testing(simd::Backend::kAvx2),
                 std::invalid_argument);
  }
}

/// Builds the set under both backends and requires every table entry
/// to match bit for bit.
void expect_tables_bit_identical(const SlotProblem& problem) {
  if (!simd::avx2_available()) GTEST_SKIP() << "no AVX2 on this host/build";
  const BackendGuard guard;
  simd::set_backend_for_testing(simd::Backend::kScalar);
  HTableSet scalar_tables;
  scalar_tables.build(problem);
  simd::set_backend_for_testing(simd::Backend::kAvx2);
  HTableSet avx2_tables;
  avx2_tables.build(problem);
  ASSERT_EQ(scalar_tables.size(), avx2_tables.size());
  for (std::size_t n = 0; n < problem.user_count(); ++n) {
    for (QualityLevel q = 1; q <= kNumQualityLevels; ++q) {
      EXPECT_EQ(bits(scalar_tables[n].value(q)), bits(avx2_tables[n].value(q)))
          << "user " << n << " level " << q;
      if (q >= kNumQualityLevels) continue;
      EXPECT_EQ(bits(scalar_tables[n].increment(q)),
                bits(avx2_tables[n].increment(q)))
          << "user " << n << " step " << q;
      EXPECT_EQ(bits(scalar_tables[n].density(q)),
                bits(avx2_tables[n].density(q)))
          << "user " << n << " step " << q;
    }
  }
}

TEST(SimdHTable, BitExactAcrossRemainderLaneCounts) {
  // Every residue of N mod kLanes, plus multi-vector sizes.
  for (std::size_t users : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 15u, 31u, 121u}) {
    SCOPED_TRACE(users);
    expect_tables_bit_identical(random_problem(1000 + users, users));
  }
}

TEST(SimdHTable, BitExactWithFrameLoss) {
  SlotProblem problem = random_problem(7, 6);
  for (std::size_t n = 0; n < problem.user_count(); n += 2) {
    problem.users[n].frame_loss.assign(kNumQualityLevels, 0.25);
  }
  expect_tables_bit_identical(problem);
}

TEST(SimdHTable, BitExactOnDenormalAndExtremeInputs) {
  SlotProblem problem = random_problem(11, 9);
  // Power-of-two rescales keep the rate ordering exactly; densities
  // land near 2^±1000 and delays go denormal — the kernels must still
  // agree bit for bit (no FTZ/DAZ, no contraction).
  for (std::size_t n = 0; n < problem.user_count(); ++n) {
    auto& user = problem.users[n];
    const double scale = n % 2 == 0 ? 0x1p-1000 : 0x1p+600;
    for (double& r : user.rate) r *= scale;
    user.user_bandwidth *= scale;
    if (n % 3 == 0) {
      for (double& d : user.delay) d *= 0x1p-1060;  // denormal range
    }
  }
  expect_tables_bit_identical(problem);
}

TEST(SimdHTable, RateValidationThrowsUnderEveryBackend) {
  const BackendGuard guard;
  SlotProblem problem = random_problem(3, 4);
  problem.users[2].rate[3] = problem.users[2].rate[2];  // non-increasing
  for (simd::Backend backend : testable_backends()) {
    simd::set_backend_for_testing(backend);
    HTableSet tables;
    EXPECT_THROW(tables.build(problem), std::logic_error)
        << simd::backend_name(backend);
  }
}

TEST(SimdHTable, ShortFrameLossThrowsOutOfRange) {
  SlotProblem problem = random_problem(5, 40);
  problem.users[17].frame_loss = {0.1, 0.1};  // shorter than L: throws
  HTableSet tables;
  EXPECT_THROW(tables.build(problem), std::out_of_range);
}

TEST(SimdGreedy, AllocationsIdenticalAcrossBackends) {
  if (!simd::avx2_available()) GTEST_SKIP() << "no AVX2 on this host/build";
  const BackendGuard guard;
  using Strategy = DvGreedyAllocator::Strategy;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (std::size_t users : {1u, 5u, 19u, 64u}) {
      const SlotProblem problem = random_problem(seed, users);
      for (Strategy strategy : {Strategy::kScan, Strategy::kHeap}) {
        simd::set_backend_for_testing(simd::Backend::kScalar);
        DvGreedyAllocator scalar_dv(DvGreedyAllocator::Mode::kCombined,
                                    strategy);
        const Allocation a = scalar_dv.allocate(problem);
        simd::set_backend_for_testing(simd::Backend::kAvx2);
        DvGreedyAllocator avx2_dv(DvGreedyAllocator::Mode::kCombined,
                                  strategy);
        const Allocation b = avx2_dv.allocate(problem);
        EXPECT_EQ(a.levels, b.levels) << "seed " << seed << " N " << users;
        EXPECT_EQ(bits(a.objective), bits(b.objective));
      }
    }
  }
}

}  // namespace
}  // namespace cvr::core
