// Micro-benchmarks (google-benchmark): per-slot allocator latency vs
// user count. The paper runs Algorithm 1 every 15 ms slot for up to 15
// users on the server; these benches show the allocator is orders of
// magnitude below that budget even at hundreds of users, and compare it
// against the baselines and exact solvers.
//
// `--perf-out=PATH` additionally writes a machine-readable
// BENCH_micro_allocator.json-style baseline (schema cvr-bench-perf-v1,
// measured with telemetry::ScopedTimer over a fixed iteration count —
// independent of google-benchmark's adaptive timing);
// `--machine=NOTE` annotates it with the capture environment.
// `--sweep` skips google-benchmark and prints a slots/sec scaling table
// over N in {5, 30, 100, 1000, 10000} for every per-slot solver (the
// O(N^2 L) paper-literal scan sits out the N=10000 row).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/content/rate_function.h"
#include "src/core/dv_greedy.h"
#include "src/core/firefly.h"
#include "src/core/fractional.h"
#include "src/core/lagrangian.h"
#include "src/core/optimal.h"
#include "src/core/pavq.h"
#include "src/telemetry/telemetry.h"
#include "src/util/rng.h"

namespace {

using namespace cvr;
using namespace cvr::core;

SlotProblem make_problem(std::size_t users, std::uint64_t seed = 99) {
  Rng rng(seed);
  SlotProblem problem;
  problem.params = QoeParams{0.02, 0.5};
  double total_min = 0.0;
  for (std::size_t n = 0; n < users; ++n) {
    const content::CrfRateFunction f(14.2, 1.45, rng.lognormal(0.0, 0.25));
    problem.push_back(UserSlotContext::from_rate_function(
        f, rng.uniform(20.0, 100.0), rng.uniform(0.6, 1.0),
        rng.uniform(0.0, 6.0), rng.uniform(1.0, 500.0)));
    total_min += problem.rate_of(problem.user_count() - 1, 1);
  }
  problem.server_bandwidth = 36.0 * static_cast<double>(users);
  return problem;
}

void BM_DvScan(benchmark::State& state) {
  const SlotProblem problem = make_problem(static_cast<std::size_t>(state.range(0)));
  // The paper-literal scan ("dv-scan"), next to the default heap below.
  DvGreedyAllocator alloc(DvGreedyAllocator::Mode::kCombined,
                          DvGreedyAllocator::Strategy::kScan);
  for (auto _ : state) {
    benchmark::DoNotOptimize(alloc.allocate(problem));
  }
}
BENCHMARK(BM_DvScan)->Arg(5)->Arg(15)->Arg(30)->Arg(60)->Arg(120)->Arg(240);

void BM_Dv(benchmark::State& state) {
  const SlotProblem problem = make_problem(static_cast<std::size_t>(state.range(0)));
  DvGreedyAllocator alloc(DvGreedyAllocator::Mode::kCombined,
                          DvGreedyAllocator::Strategy::kHeap);
  for (auto _ : state) {
    benchmark::DoNotOptimize(alloc.allocate(problem));
  }
}
BENCHMARK(BM_Dv)->Arg(5)->Arg(15)->Arg(30)->Arg(60)->Arg(120)->Arg(240);

void BM_Pavq(benchmark::State& state) {
  const SlotProblem problem = make_problem(static_cast<std::size_t>(state.range(0)));
  PavqAllocator alloc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(alloc.allocate(problem));
  }
}
BENCHMARK(BM_Pavq)->Arg(5)->Arg(30)->Arg(120);

void BM_Firefly(benchmark::State& state) {
  const SlotProblem problem = make_problem(static_cast<std::size_t>(state.range(0)));
  FireflyAllocator alloc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(alloc.allocate(problem));
  }
}
BENCHMARK(BM_Firefly)->Arg(5)->Arg(30)->Arg(120);

void BM_BruteForce(benchmark::State& state) {
  const SlotProblem problem = make_problem(static_cast<std::size_t>(state.range(0)));
  BruteForceAllocator alloc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(alloc.allocate(problem));
  }
}
BENCHMARK(BM_BruteForce)->Arg(3)->Arg(5)->Arg(7);

void BM_DpExact(benchmark::State& state) {
  const SlotProblem problem = make_problem(static_cast<std::size_t>(state.range(0)));
  DpAllocator alloc(0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(alloc.allocate(problem));
  }
}
BENCHMARK(BM_DpExact)->Arg(5)->Arg(15)->Arg(30);

void BM_FractionalBound(benchmark::State& state) {
  const SlotProblem problem = make_problem(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fractional_upper_bound(problem));
  }
}
BENCHMARK(BM_FractionalBound)->Arg(5)->Arg(30)->Arg(120);

/// Times `allocator` over each user count with ScopedTimer into a fresh
/// registry, and folds the percentiles into one perf-report arm whose
/// "phases" are the user counts ("allocate_n<N>").
telemetry::ArmPerf measure_arm(const std::string& name,
                               core::Allocator& allocator,
                               const std::vector<std::size_t>& sizes) {
  // Iterations per size: enough samples for a stable p50 at the small
  // sizes, scaled down at N >= 1000 so the allocate_n10000 phase keeps
  // the whole baseline capture under a few seconds per arm.
  const auto iters_for = [](std::size_t n) -> std::size_t {
    return n >= 1000 ? 30 : 200;
  };
  telemetry::MetricsRegistry registry;
  telemetry::ArmPerf arm;
  arm.algorithm = name;
  const auto start = std::chrono::steady_clock::now();
  for (const std::size_t n : sizes) {
    const SlotProblem problem = make_problem(n);
    const auto id =
        registry.histogram("allocate_n" + std::to_string(n) + "_us",
                           telemetry::default_duration_edges_us());
    allocator.reset();
    const std::size_t iters = iters_for(n);
    for (std::size_t i = 0; i < iters; ++i) {
      telemetry::ScopedTimer timer(&registry, id);
      benchmark::DoNotOptimize(allocator.allocate(problem));
    }
    arm.slots += iters;
  }
  arm.wall_ms_total = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  if (arm.wall_ms_total > 0.0) {
    arm.slots_per_sec =
        static_cast<double>(arm.slots) / (arm.wall_ms_total / 1000.0);
  }
  arm.snapshot = registry.snapshot();
  for (const std::size_t n : sizes) {
    const auto it = arm.snapshot.histograms.find("allocate_n" +
                                                 std::to_string(n) + "_us");
    if (it == arm.snapshot.histograms.end()) continue;
    telemetry::PhasePerf perf;
    perf.phase = it->first.substr(0, it->first.size() - 3);  // drop "_us"
    perf.count = it->second.count;
    perf.p50_us = it->second.quantile(0.50);
    perf.p95_us = it->second.quantile(0.95);
    perf.p99_us = it->second.quantile(0.99);
    perf.mean_us = it->second.mean();
    perf.total_ms = it->second.sum / 1000.0;
    arm.phases.push_back(std::move(perf));
  }
  return arm;
}

void write_perf_baseline(const std::string& path, const std::string& machine) {
  telemetry::PerfReport report;
  report.mode = telemetry::Mode::kCounters;
  const std::vector<std::size_t> sizes = {5, 15, 30, 120};
  // The near-linear solvers additionally capture an allocate_n10000
  // phase; the paper-literal scan is excluded there — its O(N^2 L)
  // ascent would dominate the run for no extra signal.
  const std::vector<std::size_t> sizes_with_large = {5, 15, 30, 120, 10000};
  {
    DvGreedyAllocator alloc(DvGreedyAllocator::Mode::kCombined,
                            DvGreedyAllocator::Strategy::kScan);
    report.arms.push_back(measure_arm("dv_scan", alloc, sizes));
  }
  {
    DvGreedyAllocator alloc(DvGreedyAllocator::Mode::kCombined,
                            DvGreedyAllocator::Strategy::kHeap);
    report.arms.push_back(measure_arm("dv", alloc, sizes_with_large));
  }
  {
    PavqAllocator alloc;
    report.arms.push_back(measure_arm("pavq", alloc, sizes_with_large));
  }
  {
    FireflyAllocator alloc;
    report.arms.push_back(measure_arm("firefly", alloc, sizes_with_large));
  }
  telemetry::write_perf_json(path, report, "micro_allocator", machine);
  std::printf("perf baseline written: %s\n", path.c_str());
}

/// User-count scaling sweep: slots/sec per solver at N in {5, 30, 100,
/// 1000}, through the same allocate_into hot path the sim loop uses
/// (recycled Allocation, no per-slot result copies). Iteration counts
/// scale down with N so the N=1000 rows finish quickly; exact solvers
/// are excluded (brute force is exponential, DP is quadratic in the
/// discretised budget and already covered by google-benchmark above).
void run_sweep() {
  const std::vector<std::size_t> sizes = {5, 30, 100, 1000, 10000};
  struct Solver {
    const char* name;
    std::unique_ptr<core::Allocator> allocator;
  };
  std::vector<Solver> solvers;
  solvers.push_back({"dv_scan", std::make_unique<DvGreedyAllocator>(
                                    DvGreedyAllocator::Mode::kCombined,
                                    DvGreedyAllocator::Strategy::kScan)});
  solvers.push_back({"dv", std::make_unique<DvGreedyAllocator>(
                               DvGreedyAllocator::Mode::kCombined,
                               DvGreedyAllocator::Strategy::kHeap)});
  solvers.push_back({"pavq", std::make_unique<PavqAllocator>()});
  solvers.push_back({"firefly", std::make_unique<FireflyAllocator>()});
  solvers.push_back({"lagrangian", std::make_unique<LagrangianAllocator>()});
  std::printf("%-12s %8s %14s %12s\n", "solver", "users", "slots/sec",
              "us/slot");
  for (const std::size_t n : sizes) {
    const SlotProblem problem = make_problem(n);
    const std::size_t iters = std::max<std::size_t>(20, 20000 / n);
    for (Solver& solver : solvers) {
      // The paper-literal scan's O(N^2 L) ascent takes seconds per slot
      // at N=10000 — skip it there; every other solver is near-linear.
      if (n > 1000 && std::string_view(solver.name) == "dv_scan") continue;
      solver.allocator->reset();
      Allocation out;
      solver.allocator->allocate_into(problem, out);  // warm scratch
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < iters; ++i) {
        solver.allocator->allocate_into(problem, out);
        benchmark::DoNotOptimize(out.objective);
      }
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      const double slots_per_sec =
          secs > 0.0 ? static_cast<double>(iters) / secs : 0.0;
      std::printf("%-12s %8zu %14.1f %12.3f\n", solver.name, n, slots_per_sec,
                  slots_per_sec > 0.0 ? 1e6 / slots_per_sec : 0.0);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string perf_out;
  std::string machine;
  bool sweep = false;
  std::vector<char*> bench_argv;
  bench_argv.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--perf-out=", 0) == 0) {
      perf_out = arg.substr(11);
    } else if (arg.rfind("--machine=", 0) == 0) {
      machine = arg.substr(10);
    } else if (arg == "--sweep") {
      sweep = true;
    } else {
      bench_argv.push_back(argv[i]);
    }
  }
  if (sweep) {
    run_sweep();
    if (!perf_out.empty()) write_perf_baseline(perf_out, machine);
    return 0;
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!perf_out.empty()) write_perf_baseline(perf_out, machine);
  return 0;
}
