// Solver comparison — every way this library can solve the per-slot
// problem (5)-(7), on one table: objective value (as a fraction of the
// exact optimum where computable) and wall-clock per slot. Shows why the
// paper's Algorithm 1 is the right deployment choice: near-exact value
// at microsecond latency.
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "src/content/rate_function.h"
#include "src/core/dv_greedy.h"
#include "src/core/firefly.h"
#include "src/core/fractional.h"
#include "src/core/lagrangian.h"
#include "src/core/optimal.h"
#include "src/core/pavq.h"
#include "src/util/rng.h"

namespace {

using namespace cvr;
using namespace cvr::core;

SlotProblem random_problem(std::uint64_t seed, std::size_t users) {
  Rng rng(seed);
  SlotProblem problem;
  problem.params = QoeParams{0.02, 0.5};
  for (std::size_t n = 0; n < users; ++n) {
    const content::CrfRateFunction f(14.2, 1.45, rng.lognormal(0.0, 0.25));
    problem.push_back(UserSlotContext::from_rate_function(
        f, rng.uniform(20.0, 100.0), rng.uniform(0.6, 1.0),
        rng.uniform(0.0, 6.0), rng.uniform(1.0, 500.0)));
  }
  problem.server_bandwidth = 36.0 * static_cast<double>(users);
  return problem;
}

}  // namespace

int main() {
  bench::print_header("Solver comparison on the per-slot problem (5)-(7)");

  for (std::size_t users : {5, 15, 30}) {
    constexpr std::size_t kInstances = 200;
    DvGreedyAllocator dv;
    LagrangianAllocator lagrangian;
    PavqAllocator pavq = PavqAllocator::perfect_knowledge();
    FireflyAllocator firefly;
    DpAllocator dp(0.05);

    struct Row {
      const char* name;
      double value = 0.0;
      double micros = 0.0;
    };
    Row rows[] = {{"dv-greedy (Alg. 1)"}, {"lagrangian"}, {"pavq"},
                  {"firefly"},            {"dp-exact"}};
    Allocator* solvers[] = {&dv, &lagrangian, &pavq, &firefly, &dp};

    double fractional_total = 0.0, dual_total = 0.0;
    for (std::size_t i = 0; i < kInstances; ++i) {
      const SlotProblem problem = random_problem(users * 7919 + i, users);
      for (int s = 0; s < 5; ++s) {
        const auto start = std::chrono::steady_clock::now();
        const Allocation a = solvers[s]->allocate(problem);
        rows[s].micros += std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - start)
                              .count();
        rows[s].value += a.objective;
      }
      fractional_total += fractional_upper_bound(problem);
      dual_total += lagrangian_dual_bound(problem);
    }

    const double exact = rows[4].value;  // DP at 0.05 Mbps grid
    std::printf("\nN = %zu (%zu instances; values normalised to DP exact)\n",
                users, kInstances);
    std::printf("  %-20s %14s %14s\n", "solver", "value/exact", "us/slot");
    for (const Row& row : rows) {
      std::printf("  %-20s %14.4f %14.2f\n", row.name, row.value / exact,
                  row.micros / kInstances);
    }
    std::printf("  %-20s %14.4f %14s\n", "fractional bound",
                fractional_total / exact, "-");
    std::printf("  %-20s %14.4f %14s\n", "lagrangian dual",
                dual_total / exact, "-");
  }

  std::printf(
      "\nshape: Algorithm 1 and the Lagrangian solver both sit within a\n"
      "fraction of a percent of exact at ~100-1000x the DP's speed; the\n"
      "two upper bounds certify optimality gaps without an exact solver.\n"
      "Notes: PAVQ can exceed 1.0 because its dual price enforces the\n"
      "budget only on average (per-slot violations are allowed); Firefly\n"
      "is QoE-oblivious, so its objective value can go negative; values\n"
      "slightly above 1.0 reflect the DP's conservative 0.05 Mbps grid.\n");
  return 0;
}
