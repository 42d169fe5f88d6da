// Workload-realism bench: the realistic radio + codec pack under fault
// pressure (docs/workloads.md).
//
// Compares the synthetic channel/content model against the realism pack
// (Wi-Fi contention + HEVC frame sizes) and the two bandwidth-estimator
// arms (passive EMA vs active probing) over generated fault schedules
// of increasing intensity. Modes:
//
//   * default           — EMA-vs-probing QoE delta table across the
//                         fault-intensity grid (>= 3 intensities), with
//                         recovery metrics per arm;
//   * --sweep           — adds the synthetic and wifi+hevc/EMA rows at
//                         every intensity (the full workload grid);
//   * --check           — exit non-zero unless (a) the pack with every
//                         knob off is bit-identical to a spec that
//                         never mentions it, (b) the estimator arms
//                         genuinely diverge at every fault intensity,
//                         and (c) every outcome is finite (CI smoke);
//   * --perf-out=PATH   — writes a cvr-bench-perf-v1 baseline with
//                         three *fixed* arms (synthetic, wifi_hevc,
//                         wifi_hevc_probing — independent of the other
//                         flags, so the committed
//                         BENCH_workload_realism.json stays comparable
//                         across invocations). scripts/perf_gate.py
//                         gates wall-clock ratios with
//                         --normalize-by synthetic and the
//                         deterministic wl_ counters bit-exactly with
//                         --service-prefix wl_.
//
// Every reported number except wall-clock throughput derives from the
// seeded simulation: rerunning with the same flags reproduces the
// table bit-for-bit.
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/dv_greedy.h"
#include "src/faults/fault_schedule.h"
#include "src/sim/metrics.h"
#include "src/system/system_sim.h"
#include "src/telemetry/telemetry.h"
#include "src/util/flags.h"

namespace {

using namespace cvr;

struct Options {
  std::int64_t users = 6;
  std::int64_t slots = 400;
  std::int64_t seed = 2022;
  std::string intensities = "0.5,1.0,2.0";
  std::string report;  // unused CSV hook kept symmetric with fig benches
  std::string perf_out;
  std::string machine;
  bool sweep = false;
  bool check = false;
};

std::vector<double> parse_intensities(const std::string& csv) {
  std::vector<double> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string token =
        csv.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!token.empty()) out.push_back(std::stod(token));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (out.empty()) {
    throw std::invalid_argument("workload_realism: empty --intensities");
  }
  return out;
}

/// The workload knobs of one scenario arm.
struct ArmSpec {
  bool wifi = false;
  bool hevc = false;
  system::EstimatorArm estimator = system::EstimatorArm::kEma;
};

system::SystemSimConfig make_config(const Options& options,
                                    const ArmSpec& arm, double intensity) {
  system::SystemSimConfig config =
      system::setup_one_router(static_cast<std::size_t>(options.users));
  config.slots = static_cast<std::size_t>(options.slots);
  config.seed = static_cast<std::uint64_t>(options.seed);
  config.channel.contention.enabled = arm.wifi;
  config.server.hevc.enabled = arm.hevc;
  config.server.estimator_arm = arm.estimator;
  if (intensity > 0.0) {
    faults::FaultScheduleConfig faults;
    faults.users = config.users;
    faults.routers = config.routers;
    faults.slots = config.slots;
    faults.seed = config.seed;
    faults.intensity = intensity;
    config.faults = faults::generate_schedule(faults);
  }
  return config;
}

struct ScenarioResult {
  double mean_qoe = 0.0;
  double mean_quality = 0.0;
  double mean_fps = 0.0;
  double mean_dip = 0.0;
  double mean_ttr = 0.0;
  bool finite = true;
  std::vector<sim::UserOutcome> outcomes;
};

ScenarioResult run_scenario(const system::SystemSimConfig& config,
                            telemetry::Collector* collector = nullptr) {
  core::DvGreedyAllocator allocator;
  ScenarioResult result;
  result.outcomes =
      system::SystemSim(config).run(allocator, 0, nullptr, collector);
  const double n = static_cast<double>(result.outcomes.size());
  for (const auto& o : result.outcomes) {
    result.mean_qoe += o.avg_qoe / n;
    result.mean_quality += o.avg_quality / n;
    result.mean_fps += o.fps / n;
    result.mean_dip += o.qoe_dip / n;
    result.mean_ttr += o.time_to_recover_slots / n;
    result.finite = result.finite && std::isfinite(o.avg_qoe) &&
                    std::isfinite(o.avg_delay_ms) && std::isfinite(o.fps);
  }
  return result;
}

void print_delta_table(const Options& options,
                       const std::vector<double>& intensities) {
  std::printf(
      "workload_realism: users=%lld slots=%lld seed=%lld "
      "(wifi+hevc on, EMA vs probing)\n",
      static_cast<long long>(options.users),
      static_cast<long long>(options.slots),
      static_cast<long long>(options.seed));
  std::printf("%10s %10s %10s %10s %9s %9s %9s %9s\n", "intensity",
              "ema_qoe", "probe_qoe", "delta", "ema_dip", "probe_dip",
              "ema_ttr", "probe_ttr");
  const ArmSpec ema{true, true, system::EstimatorArm::kEma};
  const ArmSpec probing{true, true, system::EstimatorArm::kProbing};
  for (const double intensity : intensities) {
    const ScenarioResult e =
        run_scenario(make_config(options, ema, intensity));
    const ScenarioResult p =
        run_scenario(make_config(options, probing, intensity));
    std::printf("%10.2f %10.4f %10.4f %+10.4f %9.4f %9.4f %9.2f %9.2f\n",
                intensity, e.mean_qoe, p.mean_qoe, p.mean_qoe - e.mean_qoe,
                e.mean_dip, p.mean_dip, e.mean_ttr, p.mean_ttr);
  }
}

void print_sweep(const Options& options,
                 const std::vector<double>& intensities) {
  struct Row {
    const char* name;
    ArmSpec spec;
  };
  const std::vector<Row> rows = {
      {"synthetic", {false, false, system::EstimatorArm::kEma}},
      {"wifi_hevc", {true, true, system::EstimatorArm::kEma}},
      {"wifi_hevc_probing", {true, true, system::EstimatorArm::kProbing}},
  };
  std::printf("%-18s %10s %10s %10s %9s %9s %9s\n", "arm", "intensity",
              "mean_qoe", "quality", "fps", "dip", "ttr");
  for (const Row& row : rows) {
    for (const double intensity : intensities) {
      const ScenarioResult r =
          run_scenario(make_config(options, row.spec, intensity));
      std::printf("%-18s %10.2f %10.4f %10.4f %9.2f %9.4f %9.2f\n", row.name,
                  intensity, r.mean_qoe, r.mean_quality, r.mean_fps,
                  r.mean_dip, r.mean_ttr);
    }
  }
}

bool run_check(const Options& options,
               const std::vector<double>& intensities) {
  // (a) defaults-off bit-identity: tweak every pack field while leaving
  // the switches off; the run must be bitwise unchanged.
  const ArmSpec off{false, false, system::EstimatorArm::kEma};
  system::SystemSimConfig plain = make_config(options, off, 0.0);
  system::SystemSimConfig tweaked = plain;
  tweaked.channel.contention.enabled = false;
  tweaked.channel.contention.contention_overhead = 0.3;
  tweaked.channel.contention.collision_prob_per_station = 0.4;
  tweaked.server.hevc.enabled = false;
  tweaked.server.hevc.gop_length = 8;
  tweaked.server.hevc.size_sigma = 0.9;
  tweaked.server.probing.probe_period_slots = 5;
  tweaked.server.probing.alpha_probe = 0.9;
  const ScenarioResult a = run_scenario(plain);
  const ScenarioResult b = run_scenario(tweaked);
  for (std::size_t u = 0; u < a.outcomes.size(); ++u) {
    if (a.outcomes[u].avg_qoe != b.outcomes[u].avg_qoe ||
        a.outcomes[u].fps != b.outcomes[u].fps) {
      std::fprintf(stderr,
                   "check: FAILED — disabled pack changed user %zu "
                   "(qoe %.17g vs %.17g)\n",
                   u, a.outcomes[u].avg_qoe, b.outcomes[u].avg_qoe);
      return false;
    }
  }
  // (b) + (c): the estimator arms diverge at every intensity and every
  // outcome is finite.
  const ArmSpec ema{true, true, system::EstimatorArm::kEma};
  const ArmSpec probing{true, true, system::EstimatorArm::kProbing};
  for (const double intensity : intensities) {
    const ScenarioResult e =
        run_scenario(make_config(options, ema, intensity));
    const ScenarioResult p =
        run_scenario(make_config(options, probing, intensity));
    if (!e.finite || !p.finite) {
      std::fprintf(stderr, "check: FAILED — non-finite outcome at "
                           "intensity %.2f\n", intensity);
      return false;
    }
    if (e.mean_qoe == p.mean_qoe) {
      std::fprintf(stderr,
                   "check: FAILED — estimator arms identical at intensity "
                   "%.2f (qoe %.17g)\n",
                   intensity, e.mean_qoe);
      return false;
    }
  }
  std::printf("check: OK (defaults inert, %zu intensities distinguish the "
              "estimator arms)\n", intensities.size());
  return true;
}

/// One perf arm: a full run with its own registry; wall clock around
/// run() gives the throughput metric, the wl_ counters the
/// deterministic workload outcomes. QoE can be negative, so the milli
/// encoding carries a +10 offset (wl_*_offset_milli = (x + 10) * 1000).
telemetry::ArmPerf measure_arm(const std::string& name, const Options& options,
                               const ArmSpec& spec, double intensity) {
  constexpr int kTimingRepeats = 3;
  const system::SystemSimConfig config =
      make_config(options, spec, intensity);
  double wall_ms = 0.0;
  telemetry::MetricsSnapshot snapshot;
  for (int repeat = 0; repeat < kTimingRepeats; ++repeat) {
    telemetry::MetricsRegistry registry;
    telemetry::Collector collector(telemetry::Mode::kCounters, &registry);
    const auto start = std::chrono::steady_clock::now();
    const ScenarioResult result = run_scenario(config, &collector);
    const double elapsed = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (repeat == 0 || elapsed < wall_ms) wall_ms = elapsed;
    registry.add(registry.counter("wl_mean_qoe_offset_milli"),
                 static_cast<std::uint64_t>(
                     std::llround((result.mean_qoe + 10.0) * 1000.0)));
    registry.add(registry.counter("wl_mean_quality_milli"),
                 static_cast<std::uint64_t>(
                     std::llround(result.mean_quality * 1000.0)));
    registry.add(registry.counter("wl_mean_fps_milli"),
                 static_cast<std::uint64_t>(
                     std::llround(result.mean_fps * 1000.0)));
    registry.add(registry.counter("wl_mean_dip_milli"),
                 static_cast<std::uint64_t>(
                     std::llround(result.mean_dip * 1000.0)));
    snapshot = registry.snapshot();
  }
  return telemetry::summarize_arm(name, snapshot, wall_ms);
}

void write_perf_baseline(const Options& options) {
  telemetry::PerfReport perf;
  perf.mode = telemetry::Mode::kCounters;
  Options arm_options;  // fixed arms: flags must not skew the baseline
  perf.arms.push_back(measure_arm(
      "synthetic", arm_options,
      {false, false, system::EstimatorArm::kEma}, 0.0));
  perf.arms.push_back(measure_arm(
      "wifi_hevc", arm_options,
      {true, true, system::EstimatorArm::kEma}, 0.0));
  perf.arms.push_back(measure_arm(
      "wifi_hevc_probing", arm_options,
      {true, true, system::EstimatorArm::kProbing}, 0.0));
  telemetry::write_perf_json(options.perf_out, perf, "workload_realism",
                             options.machine);
  std::printf("perf baseline written: %s\n", options.perf_out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  FlagParser parser;
  bool help = false;
  parser.add("users", &options.users, "connected users (one router)");
  parser.add("slots", &options.slots, "run horizon (slots)");
  parser.add("seed", &options.seed, "master seed");
  parser.add("intensities", &options.intensities,
             "comma-separated fault intensities for the delta table");
  parser.add("sweep", &options.sweep,
             "full arm x intensity sweep (synthetic row included)");
  parser.add("check", &options.check,
             "exit non-zero unless defaults are inert and the estimator "
             "arms diverge at every intensity");
  parser.add("perf-out", &options.perf_out,
             "write cvr-bench-perf-v1 baseline JSON to this path");
  parser.add("machine", &options.machine,
             "capture-environment note for the perf baseline");
  parser.add("help", &help, "print usage");
  if (!parser.parse(argc, argv) || help) {
    std::fputs(parser.usage("workload_realism").c_str(),
               help ? stdout : stderr);
    for (const std::string& error : parser.errors()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
    }
    return help ? 0 : 1;
  }

  try {
    const std::vector<double> intensities =
        parse_intensities(options.intensities);
    if (options.check) {
      if (!run_check(options, intensities)) return 1;
    } else if (options.sweep) {
      print_sweep(options, intensities);
    } else {
      print_delta_table(options, intensities);
    }
    if (!options.perf_out.empty()) write_perf_baseline(options);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return 0;
}
