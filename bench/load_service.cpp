// Open-loop load-service bench: users-per-server at the p99 slot-latency
// SLO (docs/load_service.md).
//
// Runs system::LoadServer under shaped traffic and prints the admission
// funnel, population, latency, and SLO verdict. Modes:
//
//   * default           — one run at the flag settings;
//   * --sweep           — offered-load sweep (0.4 .. 1.6) at the chosen
//                         shape: the capacity knee in one table;
//   * --check-slo       — exit non-zero unless the run met its SLO with
//                         zero deadline misses and drained cleanly (the
//                         CI smoke gate);
//   * --perf-out=PATH   — additionally writes a cvr-bench-perf-v1
//                         baseline with two *fixed* arms (uniform and
//                         exponential at load 0.8 — independent of the
//                         other flags, so the committed
//                         BENCH_load_service.json stays comparable
//                         across invocations). scripts/perf_gate.py
//                         gates the wall-clock ratios with
//                         --normalize-by uniform and the deterministic
//                         svc_* counters bit-exactly with
//                         --service-prefix svc_.
//
// Every reported number except wall-clock throughput derives from the
// seeded simulation: rerunning with the same flags reproduces the
// report bit-for-bit (tests/load_server_test.cpp holds the same
// contract at unit level).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/sim/traffic_gen.h"
#include "src/system/load_server.h"
#include "src/telemetry/telemetry.h"
#include "src/util/flags.h"

namespace {

using namespace cvr;

struct Options {
  std::string shape = "exponential";
  double load = 0.8;
  std::int64_t slots = 2000;
  std::int64_t users = 32;
  std::int64_t seed = 1;
  double qos_ms = 20.0;
  double slo_ms = 20.0;
  double connect_speed = 200.0;
  double mean_session_slots = 660.0;
  std::string allocator = "dv";
  std::string telemetry = "counters";
  std::string perf_out;
  std::string machine;
  bool sweep = false;
  bool check_slo = false;
};

system::LoadServiceConfig make_config(const Options& options) {
  system::LoadServiceConfig config;
  config.traffic.shape = sim::parse_shape(options.shape);
  config.traffic.load = options.load;
  config.traffic.qos_ms = options.qos_ms;
  config.traffic.connect_speed = options.connect_speed;
  config.traffic.mean_session_slots = options.mean_session_slots;
  config.traffic.seed = static_cast<std::uint64_t>(options.seed);
  config.capacity_users = static_cast<std::size_t>(options.users);
  config.allocator = options.allocator;
  config.slo_p99_ms = options.slo_ms;
  return config;
}

void print_report(const system::LoadServiceConfig& config,
                  const system::LoadServiceReport& report) {
  std::printf(
      "load_service: shape=%s load=%.2f users=%zu horizon=%zu allocator=%s "
      "seed=%llu\n",
      sim::shape_name(config.traffic.shape), config.traffic.load,
      config.capacity_users, report.horizon_slots, config.allocator.c_str(),
      static_cast<unsigned long long>(config.traffic.seed));
  std::printf(
      "  admission: offered %llu  admitted %llu  degraded %llu  "
      "rejected %llu  (reject rate %.1f%%)\n",
      static_cast<unsigned long long>(report.offered),
      static_cast<unsigned long long>(report.admitted),
      static_cast<unsigned long long>(report.degraded),
      static_cast<unsigned long long>(report.rejected),
      100.0 * report.reject_rate);
  std::printf(
      "  population: active mean %.2f peak %zu   accept queue mean %.2f "
      "peak %zu\n",
      report.mean_active_users, report.peak_active_users,
      report.mean_queue_depth, report.peak_queue_depth);
  std::printf(
      "  latency: mean %.3f ms  p99 %.3f ms  samples %llu  deadline misses "
      "%llu\n",
      report.mean_delay_ms, report.p99_delay_ms,
      static_cast<unsigned long long>(report.delay_samples),
      static_cast<unsigned long long>(report.deadline_misses));
  std::printf(
      "  slo: p99 <= %.2f ms -> %s   sustained users/server: %.2f\n",
      config.slo_p99_ms, report.slo_met ? "MET" : "VIOLATED",
      report.sustained_users);
  std::printf(
      "  sessions: completed %llu  mean QoE %.3f  drained %s "
      "(drain %zu slots)\n",
      static_cast<unsigned long long>(report.completed_sessions),
      report.mean_session_qoe, report.drained ? "yes" : "no",
      report.drain_slots);
}

system::LoadServiceReport run_once(const system::LoadServiceConfig& config,
                                   std::size_t slots,
                                   telemetry::Mode mode) {
  system::LoadServer server(config);
  if (mode == telemetry::Mode::kOff) return server.run(slots);
  telemetry::MetricsRegistry registry;
  telemetry::Collector collector(mode, &registry);
  return server.run(slots, &collector);
}

void run_sweep(const Options& options) {
  const std::vector<double> loads = {0.4, 0.6, 0.8, 1.0, 1.2, 1.6};
  std::printf("%-6s %10s %10s %10s %10s %12s %9s\n", "load", "offered",
              "rejected", "p99_ms", "misses", "sustained", "slo");
  for (const double load : loads) {
    Options point = options;
    point.load = load;
    const system::LoadServiceConfig config = make_config(point);
    const system::LoadServiceReport report =
        run_once(config, static_cast<std::size_t>(options.slots),
                 telemetry::Mode::kOff);
    std::printf("%-6.2f %10llu %10llu %10.3f %10llu %12.2f %9s\n", load,
                static_cast<unsigned long long>(report.offered),
                static_cast<unsigned long long>(report.rejected),
                report.p99_delay_ms,
                static_cast<unsigned long long>(report.deadline_misses),
                report.sustained_users, report.slo_met ? "MET" : "VIOLATED");
  }
}

/// One perf arm: a full service run with its own registry; wall clock
/// around run() gives the throughput metric, the svc_* counters the
/// deterministic service metrics.
telemetry::ArmPerf measure_arm(const std::string& name,
                               const system::LoadServiceConfig& config,
                               std::size_t slots) {
  // Best-of-3 wall clock: the gate compares cross-arm throughput
  // ratios, and a single scheduler preemption on a short run skews a
  // one-shot ratio past any sane tolerance. The reports (and so every
  // svc_ counter) are bit-identical across repeats, so only the last
  // repeat's registry is kept.
  constexpr int kTimingRepeats = 3;
  double wall_ms = 0.0;
  telemetry::MetricsSnapshot snapshot;
  for (int repeat = 0; repeat < kTimingRepeats; ++repeat) {
    telemetry::MetricsRegistry registry;
    telemetry::Collector collector(telemetry::Mode::kCounters, &registry);
    system::LoadServer server(config);
    const auto start = std::chrono::steady_clock::now();
    const system::LoadServiceReport report = server.run(slots, &collector);
    const double elapsed = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (repeat == 0 || elapsed < wall_ms) wall_ms = elapsed;
    // Deterministic service summary metrics, counter-encoded so the
    // gate can require bit-exact agreement: milli-users and
    // microseconds keep three decimal digits through the integer
    // encoding.
    registry.add(
        registry.counter("svc_sustained_users_milli"),
        static_cast<std::uint64_t>(report.sustained_users * 1000.0));
    registry.add(registry.counter("svc_p99_delay_micro"),
                 static_cast<std::uint64_t>(report.p99_delay_ms * 1000.0));
    snapshot = registry.snapshot();
  }
  return telemetry::summarize_arm(name, snapshot, wall_ms);
}

void write_perf_baseline(const Options& options) {
  telemetry::PerfReport perf;
  perf.mode = telemetry::Mode::kCounters;
  // Long enough (~100 ms of wall clock per arm) that the cross-arm
  // throughput ratio the CI gate checks is stable against scheduler
  // noise; combined with best-of-3 timing in measure_arm.
  constexpr std::size_t kBaselineSlots = 12000;
  for (const char* shape : {"uniform", "exponential"}) {
    Options arm_options;  // fixed arms: flags must not skew the baseline
    arm_options.shape = shape;
    arm_options.allocator = options.allocator;
    const system::LoadServiceConfig config = make_config(arm_options);
    perf.arms.push_back(measure_arm(shape, config, kBaselineSlots));
  }
  telemetry::write_perf_json(options.perf_out, perf, "load_service",
                             options.machine);
  std::printf("perf baseline written: %s\n", options.perf_out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  FlagParser parser;
  bool help = false;
  parser.add("shape", &options.shape,
             "traffic shape: uniform|normal|peaks|gamma|exponential");
  parser.add("load", &options.load,
             "offered concurrency as a fraction of user-slot capacity");
  parser.add("slots", &options.slots, "arrival horizon (slots)");
  parser.add("users", &options.users, "user-slot capacity of the server");
  parser.add("seed", &options.seed, "master seed");
  parser.add("qos", &options.qos_ms, "per-session QoS delay budget (ms)");
  parser.add("slo", &options.slo_ms, "service p99 delay SLO (ms)");
  parser.add("connect-speed", &options.connect_speed,
             "admissions completed per second (ramp pacing)");
  parser.add("session-slots", &options.mean_session_slots,
             "mean session length (slots)");
  parser.add("allocator", &options.allocator, "allocation policy name");
  parser.add("telemetry", &options.telemetry,
             "telemetry mode: off|counters|trace");
  parser.add("perf-out", &options.perf_out,
             "write cvr-bench-perf-v1 baseline JSON to this path");
  parser.add("machine", &options.machine,
             "capture-environment note for the perf baseline");
  parser.add("sweep", &options.sweep, "offered-load sweep table");
  parser.add("check-slo", &options.check_slo,
             "exit non-zero unless SLO met, zero misses, drained");
  parser.add("help", &help, "print usage");
  if (!parser.parse(argc, argv) || help) {
    std::fputs(parser.usage("load_service").c_str(),
               help ? stdout : stderr);
    for (const std::string& error : parser.errors()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
    }
    return help ? 0 : 1;
  }

  try {
    if (options.sweep) {
      run_sweep(options);
    } else {
      const system::LoadServiceConfig config = make_config(options);
      const system::LoadServiceReport report =
          run_once(config, static_cast<std::size_t>(options.slots),
                   telemetry::parse_mode(options.telemetry));
      print_report(config, report);
      if (options.check_slo &&
          !(report.slo_met && report.deadline_misses == 0 &&
            report.drained)) {
        std::fprintf(stderr,
                     "check-slo: FAILED (slo_met=%d misses=%llu drained=%d)\n",
                     report.slo_met ? 1 : 0,
                     static_cast<unsigned long long>(report.deadline_misses),
                     report.drained ? 1 : 0);
        return 1;
      }
    }
    if (!options.perf_out.empty()) write_perf_baseline(options);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return 0;
}
