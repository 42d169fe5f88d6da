// cvr_sim_cli — configurable experiment runner over the public API.
//
//   $ ./cvr_sim_cli --mode trace --users 10 --seconds 60 --algorithm all
//   $ ./cvr_sim_cli --mode system --routers 2 --users 15 --repeats 3
//   $ ./cvr_sim_cli --help
//
// `trace` mode runs the Section-IV simulation platform (perfect
// knowledge); `system` mode runs the Sections V-VI prototype emulation
// (estimates, RTP loss, decode deadlines). Algorithms: dv, density,
// value, firefly, pavq, optimal (trace mode, <= 8 users), or all.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/core/registry.h"
#include "src/sim/simulation.h"
#include "src/system/system_sim.h"
#include "src/system/timeline.h"
#include "src/util/csv.h"
#include "src/util/flags.h"
#include "src/util/units.h"

namespace {

using namespace cvr;

std::vector<std::unique_ptr<core::Allocator>> make_allocators(
    const std::string& which, bool trace_mode, std::size_t users) {
  const core::AllocatorContext context =
      trace_mode ? core::AllocatorContext::kTraceSimulation
                 : core::AllocatorContext::kSystem;
  std::vector<std::unique_ptr<core::Allocator>> out;
  if (which != "all") {
    if (auto allocator = core::make_allocator(which, context)) {
      out.push_back(std::move(allocator));
    }
    return out;
  }
  for (const std::string& name : core::allocator_names()) {
    // "all" means the comparison set, not every solver: skip the exact
    // methods unless they are cheap enough to include, and "dv-scan",
    // the plain reference scan (identical results to "dv").
    if (name == "dp" || name == "dv-scan") continue;
    if (name == "optimal" && !(trace_mode && users <= 6)) continue;
    out.push_back(core::make_allocator(name, context));
  }
  return out;
}

void print_results(const std::vector<sim::ArmResult>& arms) {
  std::printf("%-20s %10s %10s %12s %10s %8s\n", "algorithm", "QoE",
              "quality", "delay ms", "variance", "fps");
  for (const auto& arm : arms) {
    std::printf("%-20s %10.3f %10.3f %12.3f %10.3f %8.1f\n",
                arm.algorithm.c_str(), arm.mean_qoe(), arm.mean_quality(),
                arm.mean_delay_ms(), arm.mean_variance(), arm.mean_fps());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "trace";
  std::string algorithm = "all";
  std::int64_t users = 5;
  std::int64_t routers = 1;
  std::int64_t repeats = 5;
  double seconds = 30.0;
  double alpha = -1.0;  // -1 = mode default (0.02 trace / 0.1 system)
  double beta = 0.5;
  std::int64_t seed = 2022;
  bool loss_aware = false;
  std::string timeline_path;
  bool help = false;

  FlagParser parser;
  parser.add("mode", &mode, "experiment mode: trace | system");
  parser.add("algorithm", &algorithm,
             "dv | density | value | firefly | pavq | optimal | all");
  parser.add("users", &users, "number of users");
  parser.add("routers", &routers, "system mode: routers (2 = interference)");
  parser.add("repeats", &repeats, "independent runs/repeats to average");
  parser.add("seconds", &seconds, "simulated seconds per run");
  parser.add("alpha", &alpha, "delay weight (-1 = mode default)");
  parser.add("beta", &beta, "variance weight");
  parser.add("seed", &seed, "master random seed");
  parser.add("loss-aware", &loss_aware,
             "system mode: enable the Section-VIII loss-aware extension");
  parser.add("timeline", &timeline_path,
             "system mode: write a per-slot flight-recorder CSV here "
             "(first algorithm, repeat 0)");
  parser.add("help", &help, "print usage");

  if (!parser.parse(argc, argv) || help) {
    for (const auto& error : parser.errors()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
    }
    std::fputs(parser.usage("cvr_sim_cli").c_str(), help ? stdout : stderr);
    return help ? 0 : 1;
  }
  if (users < 1 || users > 128 || repeats < 1 || seconds <= 0.0 ||
      (mode != "trace" && mode != "system") || (routers != 1 && routers != 2)) {
    std::fprintf(stderr, "invalid arguments\n%s",
                 parser.usage("cvr_sim_cli").c_str());
    return 1;
  }

  const auto slots = static_cast<std::size_t>(seconds / kSlotSeconds);
  const bool trace_mode = mode == "trace";
  auto allocators =
      make_allocators(algorithm, trace_mode, static_cast<std::size_t>(users));
  if (allocators.empty()) {
    std::fprintf(stderr, "no algorithm matches '%s'\n", algorithm.c_str());
    return 1;
  }
  std::vector<core::Allocator*> arm_ptrs;
  for (auto& a : allocators) arm_ptrs.push_back(a.get());

  if (trace_mode) {
    trace::TraceRepositoryConfig repo_config;
    repo_config.fcc.duration_s = seconds;
    repo_config.lte.duration_s = seconds;
    const trace::TraceRepository repo(repo_config,
                                      static_cast<std::uint64_t>(seed));
    sim::TraceSimConfig config;
    config.users = static_cast<std::size_t>(users);
    config.slots = slots;
    config.params = core::QoeParams{alpha < 0 ? 0.02 : alpha, beta};
    config.seed = static_cast<std::uint64_t>(seed);
    const sim::TraceSimulation simulation(config, repo);
    std::printf("trace mode: %lld users x %lld runs x %zu slots "
                "(alpha=%.3f beta=%.3f)\n\n",
                static_cast<long long>(users), static_cast<long long>(repeats),
                slots, config.params.alpha, config.params.beta);
    print_results(
        simulation.compare(arm_ptrs, static_cast<std::size_t>(repeats)));
  } else {
    system::SystemSimConfig config =
        routers == 2 ? system::setup_two_routers(static_cast<std::size_t>(users))
                     : system::setup_one_router(static_cast<std::size_t>(users));
    config.slots = slots;
    config.seed = static_cast<std::uint64_t>(seed);
    config.server.params = core::QoeParams{alpha < 0 ? 0.1 : alpha, beta};
    config.server.loss_aware = loss_aware;
    const system::SystemSim simulation(config);
    std::printf("system mode: %lld users, %lld router(s), %lld repeats x %zu "
                "slots (alpha=%.3f beta=%.3f%s)\n\n",
                static_cast<long long>(users), static_cast<long long>(routers),
                static_cast<long long>(repeats), slots,
                config.server.params.alpha, config.server.params.beta,
                loss_aware ? ", loss-aware" : "");
    print_results(
        simulation.compare(arm_ptrs, static_cast<std::size_t>(repeats)));
    if (!timeline_path.empty()) {
      system::Timeline timeline;
      simulation.run(*arm_ptrs.front(), 0, &timeline);
      write_csv_file(timeline_path, timeline.to_csv());
      std::printf("\nwrote %zu timeline records (%s, repeat 0) to %s\n",
                  timeline.size(),
                  std::string(arm_ptrs.front()->name()).c_str(),
                  timeline_path.c_str());
    }
  }
  return 0;
}
