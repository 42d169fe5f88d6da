// SlotArena reuse semantics and the zero-allocation contract of the
// per-slot hot path: in steady state, the allocator path and the
// system slot's delay refit, problem build and tile requests perform
// zero heap allocations per slot, and a whole system slot (pose ingest
// through ACK feedback) at most the content-DB memo's first-visit
// entries.
//
// The counting allocator below replaces the global operator new/delete
// for THIS binary only and counts every heap allocation; the zero-alloc
// tests warm the path up (first slots grow vector capacities), then
// assert the count stays flat across subsequent slots.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include "src/content/rate_function.h"
#include "src/core/dv_greedy.h"
#include "src/core/firefly.h"
#include "src/core/htable.h"
#include "src/core/pavq.h"
#include "src/core/slot_arena.h"
#include "src/fleet/fleet_sim.h"
#include "src/net/estimators.h"
#include "src/system/server.h"
#include "src/system/slot_pipeline.h"
#include "src/system/system_sim.h"
#include "src/util/rng.h"
#include "tests/core_test_util.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// Global replacement set (new/new[]/delete/delete[], throwing +
// nothrow + sized). Only the allocation count matters; delete stays
// count-free so gtest's own teardown noise cannot skew a measurement.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace cvr::core {
namespace {

using testutil::make_crf_user;

/// Fills the arena's problem for slot `t` the way a sim loop does:
/// every user context overwritten from a rate function, scalars set.
void fill_slot(SlotArena& arena, std::size_t users, std::size_t t,
               SlotProblem*& out) {
  SlotProblem& problem = arena.acquire(users);
  problem.params = QoeParams{0.02, 0.5};
  problem.server_bandwidth = 30.0 * static_cast<double>(users);
  for (std::size_t u = 0; u < users; ++u) {
    const content::CrfRateFunction f(
        14.2, 1.45, 1.0 + 0.05 * static_cast<double>(u + t));
    problem.users[u] = UserSlotContext::from_rate_function(
        f, 40.0 + 5.0 * static_cast<double>(u), 0.9,
        0.5 * static_cast<double>(t), static_cast<double>(t + 1));
  }
  out = &problem;
}

/// A fresh SlotProblem with the identical fills, for the equivalence
/// oracle.
SlotProblem fresh_slot(std::size_t users, std::size_t t) {
  SlotProblem problem;
  problem.params = QoeParams{0.02, 0.5};
  problem.server_bandwidth = 30.0 * static_cast<double>(users);
  for (std::size_t u = 0; u < users; ++u) {
    const content::CrfRateFunction f(
        14.2, 1.45, 1.0 + 0.05 * static_cast<double>(u + t));
    problem.users.push_back(UserSlotContext::from_rate_function(
        f, 40.0 + 5.0 * static_cast<double>(u), 0.9,
        0.5 * static_cast<double>(t), static_cast<double>(t + 1)));
  }
  return problem;
}

TEST(SlotArena, TwoConsecutiveSlotsEqualTwoFreshProblems) {
  SlotArena arena;
  DvGreedyAllocator arena_alloc;
  DvGreedyAllocator fresh_alloc;
  Allocation recycled;
  for (std::size_t t = 0; t < 2; ++t) {
    SlotProblem* problem = nullptr;
    fill_slot(arena, 8, t, problem);
    const SlotProblem fresh = fresh_slot(8, t);
    ASSERT_EQ(problem->user_count(), fresh.user_count());
    for (std::size_t u = 0; u < fresh.user_count(); ++u) {
      EXPECT_EQ(problem->users[u].rate, fresh.users[u].rate);
      EXPECT_EQ(problem->users[u].delay, fresh.users[u].delay);
      EXPECT_EQ(problem->users[u].delta, fresh.users[u].delta);
      EXPECT_EQ(problem->users[u].qbar, fresh.users[u].qbar);
      EXPECT_EQ(problem->users[u].slot, fresh.users[u].slot);
      EXPECT_EQ(problem->users[u].user_bandwidth,
                fresh.users[u].user_bandwidth);
    }
    arena_alloc.allocate_into(*problem, recycled);
    const Allocation direct = fresh_alloc.allocate(fresh);
    EXPECT_EQ(recycled.levels, direct.levels);
    EXPECT_EQ(recycled.objective, direct.objective);
  }
}

TEST(SlotArena, ShrinkThenGrowKeepsEntriesOverwritten) {
  SlotArena arena;
  SlotProblem* problem = nullptr;
  fill_slot(arena, 10, 0, problem);
  const double rate_before = problem->users[7].rate[3];
  fill_slot(arena, 4, 1, problem);   // churn down
  fill_slot(arena, 10, 2, problem);  // back up: entries 4..9 recycled
  EXPECT_EQ(problem->user_count(), 10u);
  const SlotProblem fresh = fresh_slot(10, 2);
  for (std::size_t u = 0; u < 10; ++u) {
    EXPECT_EQ(problem->users[u].rate, fresh.users[u].rate) << "user " << u;
  }
  // Sanity: slot 2 differs from slot 0, so the check above is not vacuous.
  EXPECT_NE(problem->users[7].rate[3], rate_before);
}

/// The acceptance check: once capacities have stabilised, a full
/// build-slot -> allocate cycle performs zero heap allocations, for
/// every hot-path allocator.
template <typename AllocatorT>
void expect_zero_alloc_steady_state(AllocatorT&& allocator) {
  SlotArena arena;
  Allocation allocation;
  SlotProblem* problem = nullptr;
  constexpr std::size_t kUsers = 16;
  // Warm-up: grows users vector, levels, tables, heap scratch.
  for (std::size_t t = 0; t < 3; ++t) {
    fill_slot(arena, kUsers, t, problem);
    allocator.allocate_into(*problem, allocation);
  }
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t t = 3; t < 13; ++t) {
    fill_slot(arena, kUsers, t, problem);
    allocator.allocate_into(*problem, allocation);
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << (after - before)
                           << " heap allocations in 10 steady-state slots";
}

TEST(ZeroAllocation, DvGreedyHeapSteadyState) {
  expect_zero_alloc_steady_state(DvGreedyAllocator(
      DvGreedyAllocator::Mode::kCombined, DvGreedyAllocator::Strategy::kHeap));
}

TEST(ZeroAllocation, DvGreedyScanSteadyState) {
  expect_zero_alloc_steady_state(DvGreedyAllocator(
      DvGreedyAllocator::Mode::kCombined, DvGreedyAllocator::Strategy::kScan));
}

TEST(ZeroAllocation, PavqSteadyState) {
  expect_zero_alloc_steady_state(PavqAllocator());
}

TEST(ZeroAllocation, FireflySteadyState) {
  expect_zero_alloc_steady_state(FireflyAllocator());
}

TEST(ZeroAllocation, HTableSetRebuildSteadyState) {
  SlotArena arena;
  SlotProblem* problem = nullptr;
  HTableSet tables;
  for (std::size_t t = 0; t < 2; ++t) {
    fill_slot(arena, 16, t, problem);
    tables.build(*problem);
  }
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t t = 2; t < 12; ++t) {
    fill_slot(arena, 16, t, problem);
    tables.build(*problem);
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
}

TEST(ZeroAllocation, HTableSetIncrementalRebuildSteadyState) {
  // The dirty-row path specifically: after warm-up, each slot mutates a
  // single user and rebuilds. The fingerprint compare, dirty bitmap,
  // and partial kernel sweep must all run allocation-free — including
  // the occasional clean rebuild (no user changed at all).
  SlotArena arena;
  SlotProblem* problem = nullptr;
  HTableSet tables;
  constexpr std::size_t kUsers = 16;
  for (std::size_t t = 0; t < 2; ++t) {
    fill_slot(arena, kUsers, t, problem);
    tables.build(*problem);
  }
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t t = 2; t < 12; ++t) {
    const std::size_t u = t % kUsers;
    const content::CrfRateFunction f(
        14.2, 1.45, 1.0 + 0.05 * static_cast<double>(u + 7 * t));
    problem->users[u] = UserSlotContext::from_rate_function(
        f, 40.0 + 5.0 * static_cast<double>(u), 0.9,
        0.5 * static_cast<double>(t), static_cast<double>(t + 1));
    tables.build(*problem);
    tables.build(*problem);  // fully-clean rebuild: nothing dirty
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
}

/// Runs `slot(t)` for t in [0, warm_up) and then over 10 steady-state
/// slots, and returns the heap allocations of those 10 slots.
template <typename SlotFn>
std::size_t steady_state_allocations(std::size_t warm_up, SlotFn&& slot) {
  for (std::size_t t = 0; t < warm_up; ++t) slot(t);
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t t = warm_up; t < warm_up + 10; ++t) slot(t);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(ZeroAllocation, DelayPredictorSteadyState) {
  // Every slot delivers, so every slot adds a sample and refits the
  // quadratic over the full 256-sample ring before pricing six levels.
  net::DelayPredictor delay;
  cvr::Rng rng(41);
  double sink = 0.0;
  const std::size_t allocations = steady_state_allocations(600, [&](auto) {
    const double rate = rng.uniform(1.0, 60.0);
    delay.observe(rate, 0.5 + 0.003 * rate * rate + rng.uniform(0.0, 0.4));
    for (int q = 1; q <= 6; ++q) sink += delay.predict_ms(8.0 * q, 70.0);
  });
  EXPECT_TRUE(delay.trained());
  EXPECT_GT(sink, 0.0);
  EXPECT_EQ(allocations, 0u) << "heap allocations in 10 steady-state slots";
}

TEST(ZeroAllocation, ServerBuildAndRequestSteadyState) {
  // A 15-user server through the estimate -> problem -> request part of
  // a slot: pose, delay and bandwidth feedback, build_problem_for into a
  // recycled problem, and make_request into recycled requests. Users
  // sway across a few cells, so windows advance and delay fits refit.
  constexpr std::size_t kUsers = 15;
  system::Server server(system::ServerConfig{}, kUsers);
  std::vector<std::size_t> members(kUsers);
  std::iota(members.begin(), members.end(), std::size_t{0});
  SlotProblem problem;
  std::vector<system::TileRequest> requests(kUsers);
  cvr::Rng rng(47);
  const std::size_t allocations = steady_state_allocations(400, [&](auto t) {
    const double phase = static_cast<double>(t % 16);
    for (std::size_t u = 0; u < kUsers; ++u) {
      motion::Pose pose;
      pose.x = 1.0 + 0.5 * static_cast<double>(u) + 0.01 * phase;
      pose.y = 2.0 + 0.005 * phase;
      pose.yaw = 10.0 * phase;
      server.on_pose(u, t, pose);
      const double rate = rng.uniform(5.0, 50.0);
      server.on_delay_sample(u, rate, 0.002 * rate * rate);
      server.on_bandwidth_sample(u, rng.uniform(40.0, 60.0));
    }
    server.build_problem_for(t + 1, members, problem);
    for (std::size_t u = 0; u < kUsers; ++u) {
      const auto level = static_cast<QualityLevel>(1 + (t + u) % 6);
      server.make_request(u, level, requests[u]);
    }
  });
  EXPECT_EQ(problem.users.size(), kUsers);
  EXPECT_FALSE(requests[0].full_set.empty());
  EXPECT_EQ(allocations, 0u) << "heap allocations in 10 steady-state slots";
}

TEST(ZeroAllocation, SystemSimSteadyStateSlot) {
  // The paper's 15-user two-router prototype, driven slot by slot
  // exactly as SystemSim::run does: router step, the edge server's
  // pose ingest + build + solve + requests, router service, then every
  // member's transmission, decode, display and ACK round trip. After
  // the warm-up (client buffers filled to their thresholds, every
  // recycled vector and table at its high-water size), what is left is
  // growth on first visits to a cell: the content-DB memo's storage
  // (one chunk per 256 new cells, plus its index doubling). The walking
  // users reach about three new cells per slot, which costs about 6
  // allocations in these 500 slots (the node-based path before them
  // made about 340 per slot); the bound allows one per ten slots.
  constexpr std::size_t kUsers = 15;
  constexpr std::size_t kWarmUp = 1500;
  constexpr std::size_t kMeasured = 500;
  system::SystemSimConfig config = system::setup_two_routers(kUsers);
  config.slots = kWarmUp + kMeasured;
  DvGreedyAllocator allocator;
  system::SimRun run(config, 0, allocator, nullptr, nullptr);
  system::EdgeServer edge(run.server_config, kUsers);
  edge.budget = edge.server.server_bandwidth();
  edge.members.resize(kUsers);
  std::iota(edge.members.begin(), edge.members.end(), std::size_t{0});
  const auto slot = [&](std::size_t t) {
    system::step_routers(run.net, config.faults, t);
    system::step_server(run, edge, allocator, t);
    const std::vector<double>& granted =
        system::serve_routers(run, static_cast<std::int64_t>(t));
    for (std::size_t u = 0; u < kUsers; ++u) {
      system::serve_member(run, edge, u, t, granted[u]);
    }
  };
  for (std::size_t t = 0; t < kWarmUp; ++t) slot(t);
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t t = kWarmUp; t < kWarmUp + kMeasured; ++t) slot(t);
  const std::size_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_GT(run.worlds[0].client.buffer().released_total(), 0u)
      << "warm-up too short: client buffers never reached their threshold";
  EXPECT_LE(allocations, kMeasured / 10)
      << allocations << " heap allocations in " << kMeasured
      << " steady-state slots";
}

TEST(ZeroAllocation, FleetSimSteadyStateSlots) {
  // FleetSim::run owns its slot loop, so the steady-state cost is
  // measured as the difference between a 1000-slot and a 2000-slot run
  // of the same fleet (same seed, so the same first 1000 slots): 24
  // users on 4 servers with periodic checkpoints, every user's carried
  // state encoded into its recycled frame. What remains is first-visit
  // growth, as in the SystemSim slot above: about 90 allocations in
  // the extra 1000 slots (the node-based path before made about 590
  // per slot); the bound allows one per four slots.
  const auto run_allocations = [](std::size_t slots) {
    fleet::FleetConfig config;
    config.base = system::setup_two_routers(24);
    config.base.slots = slots;
    config.servers = 4;
    config.backhaul_mbps = 1600.0;
    const fleet::FleetSim fleet(config);
    DvGreedyAllocator allocator;
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    fleet.run(allocator, 0);
    return g_allocations.load(std::memory_order_relaxed) - before;
  };
  const std::size_t short_run = run_allocations(1000);
  const std::size_t long_run = run_allocations(2000);
  ASSERT_GE(long_run, short_run);
  EXPECT_LE(long_run - short_run, 250u)
      << (long_run - short_run)
      << " heap allocations in the 1000 extra steady-state slots";
}

}  // namespace
}  // namespace cvr::core
