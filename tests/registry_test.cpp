#include "src/core/registry.h"

#include <gtest/gtest.h>

#include "core_test_util.h"
#include "src/core/pavq.h"

namespace cvr::core {
namespace {

TEST(Registry, EveryListedNameConstructs) {
  for (const std::string& name : allocator_names()) {
    const auto allocator = make_allocator(name);
    ASSERT_NE(allocator, nullptr) << name;
    EXPECT_FALSE(allocator->name().empty());
  }
}

TEST(Registry, UnknownNameIsNull) {
  EXPECT_EQ(make_allocator("nope"), nullptr);
  EXPECT_EQ(make_allocator(""), nullptr);
}

TEST(Registry, NamesMatchAllocatorSelfReports) {
  EXPECT_EQ(make_allocator("dv")->name(), "dv-greedy");
  EXPECT_EQ(make_allocator("density")->name(), "density-greedy");
  EXPECT_EQ(make_allocator("value")->name(), "value-greedy");
  EXPECT_EQ(make_allocator("firefly")->name(), "firefly-aqc");
  EXPECT_EQ(make_allocator("pavq")->name(), "pavq-modified");
  EXPECT_EQ(make_allocator("lagrangian")->name(), "lagrangian");
  EXPECT_EQ(make_allocator("optimal")->name(), "optimal-bruteforce");
  EXPECT_EQ(make_allocator("dp")->name(), "optimal-dp");
}

TEST(Registry, ContextSelectsPavqVariant) {
  // Trace-simulation PAVQ bypasses smoothing (perfect knowledge): on a
  // problem whose bandwidth just changed, the two variants must differ
  // after warm-up on different inputs.
  auto sim_pavq = make_allocator("pavq", AllocatorContext::kTraceSimulation);
  auto sys_pavq = make_allocator("pavq", AllocatorContext::kSystem);
  SlotProblem rich = testutil::random_problem(1, 4);
  SlotProblem poor = rich;
  for (auto& user : poor.users) user.user_bandwidth = 21.0;
  // Warm both on the rich problem, then hit them with the poor one: the
  // system variant's smoothed view lags.
  for (int t = 0; t < 50; ++t) {
    sim_pavq->allocate(rich);
    sys_pavq->allocate(rich);
  }
  const auto sim_levels = sim_pavq->allocate(poor).levels;
  const auto sys_levels = sys_pavq->allocate(poor).levels;
  EXPECT_NE(sim_levels, sys_levels);
}

TEST(Registry, AllocatorsAreIndependentInstances) {
  auto a = make_allocator("firefly");
  auto b = make_allocator("firefly");
  EXPECT_NE(a.get(), b.get());
}

}  // namespace
}  // namespace cvr::core
