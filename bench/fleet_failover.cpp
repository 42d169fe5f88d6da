// Fleet failover bench: kill/recover scenario sweep (docs/fleet.md).
//
// Runs fleet::FleetSim over a K-server fleet with a seeded mid-run
// server crash and reports the failover metrics the fleet-QoE means
// hide: affected users, re-admission fraction, time-to-reabsorb,
// migration counts, per-server budget utilization. Modes:
//
//   * default           — one scenario at the flag settings;
//   * --sweep           — assignment-mode x outage-length sweep (the
//                         kill/recover table);
//   * --check-recovery  — exit non-zero unless >=99% of affected users
//                         were re-admitted with none lost and every
//                         re-admission landed within 50 slots (the CI
//                         smoke gate for the K=4 crash-1 scenario);
//   * --report=PREFIX   — standard CSV set via report::write_report
//                         (the resilience CSV carries the fleet
//                         home_server/migrations columns);
//   * --perf-out=PATH   — additionally writes a cvr-bench-perf-v1
//                         baseline with three *fixed* arms: sharded and
//                         mirrored at the K=4 crash-1 scenario, plus
//                         sharded_k8 (the same crash at K=8, 24 users)
//                         — all independent of the other flags, so the
//                         committed BENCH_fleet_failover.json stays
//                         comparable across invocations. Each arm
//                         carries a synthetic fleet_slots_per_sec phase
//                         next to the per-slot "slot" latency histogram.
//                         scripts/perf_gate.py gates wall-clock ratios
//                         with --normalize-by sharded and the
//                         deterministic fleet_ counters bit-exactly
//                         with --service-prefix fleet_.
//
// Every reported number except wall-clock throughput derives from the
// seeded simulation: rerunning with the same flags reproduces the
// report bit-for-bit (tests/fleet_test.cpp holds the same contract at
// unit level).
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/dv_greedy.h"
#include "src/faults/fault_schedule.h"
#include "src/fleet/fleet_sim.h"
#include "src/report/report.h"
#include "src/sim/metrics.h"
#include "src/system/system_sim.h"
#include "src/telemetry/telemetry.h"
#include "src/util/flags.h"

namespace {

using namespace cvr;

struct Options {
  std::int64_t servers = 4;
  std::int64_t users = 12;
  std::int64_t slots = 500;
  std::int64_t seed = 2022;
  std::int64_t crash_server = 1;
  std::int64_t crash_slot = 150;
  std::int64_t crash_duration = 300;
  std::string assignment = "sharded";
  std::string budget = "equal";
  std::string report;
  std::string perf_out;
  std::string machine;
  bool sweep = false;
  bool check_recovery = false;
};

fleet::AssignmentMode parse_assignment(const std::string& name) {
  if (name == "sharded") return fleet::AssignmentMode::kShardedHash;
  if (name == "mirrored") return fleet::AssignmentMode::kMirrored;
  throw std::invalid_argument("fleet_failover: unknown assignment '" + name +
                              "' (sharded|mirrored)");
}

fleet::BudgetPolicy parse_budget(const std::string& name) {
  if (name == "equal") return fleet::BudgetPolicy::kEqual;
  if (name == "proportional") return fleet::BudgetPolicy::kProportionalUsers;
  throw std::invalid_argument("fleet_failover: unknown budget '" + name +
                              "' (equal|proportional)");
}

fleet::FleetConfig make_config(const Options& options) {
  fleet::FleetConfig config;
  config.base =
      system::setup_two_routers(static_cast<std::size_t>(options.users));
  config.base.slots = static_cast<std::size_t>(options.slots);
  config.base.seed = static_cast<std::uint64_t>(options.seed);
  if (options.crash_duration > 0) {
    faults::FaultEvent crash;
    crash.type = faults::FaultType::kServerCrash;
    crash.target = static_cast<std::size_t>(options.crash_server);
    crash.start_slot = static_cast<std::size_t>(options.crash_slot);
    crash.duration_slots = static_cast<std::size_t>(options.crash_duration);
    config.base.faults.add(crash);
  }
  config.servers = static_cast<std::size_t>(options.servers);
  config.assignment = parse_assignment(options.assignment);
  config.budget = parse_budget(options.budget);
  return config;
}

double mean_qoe(const std::vector<sim::UserOutcome>& outcomes) {
  if (outcomes.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& o : outcomes) sum += o.avg_qoe;
  return sum / static_cast<double>(outcomes.size());
}

double mean_qoe_dip(const std::vector<sim::UserOutcome>& outcomes) {
  if (outcomes.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& o : outcomes) sum += o.qoe_dip;
  return sum / static_cast<double>(outcomes.size());
}

void print_report(const fleet::FleetConfig& config,
                  const fleet::FleetRunResult& result) {
  const fleet::FleetStats& s = result.stats;
  std::printf(
      "fleet_failover: servers=%zu users=%zu slots=%zu assignment=%s "
      "budget=%s seed=%llu\n",
      config.servers, config.base.users, config.base.slots,
      config.assignment == fleet::AssignmentMode::kMirrored ? "mirrored"
                                                            : "sharded",
      config.budget == fleet::BudgetPolicy::kProportionalUsers
          ? "proportional"
          : "equal",
      static_cast<unsigned long long>(config.base.seed));
  std::printf(
      "  faults: crashes %zu  recoveries %zu  affected users %zu\n",
      s.crashes, s.recoveries, s.affected_users);
  std::printf(
      "  failover: reabsorbed %zu (%.1f%%)  lost %zu  "
      "time-to-reabsorb mean %.2f max %zu slots\n",
      s.reabsorbed_users, 100.0 * s.reabsorbed_fraction, s.lost_users,
      s.mean_reabsorb_slots, s.max_reabsorb_slots);
  std::printf(
      "  migration: migrations %zu  handoff frames %zu  retry attempts %zu  "
      "rejects %zu\n",
      s.migrations, s.handoff_frames, s.retry_attempts, s.rejects);
  std::printf("  qoe: fleet mean %.4f  mean dip %.4f\n",
              mean_qoe(result.outcomes), mean_qoe_dip(result.outcomes));
  std::printf("  %-8s %16s %18s %14s\n", "server", "user-slots",
              "mean budget Mbps", "utilization");
  for (std::size_t k = 0; k < s.per_server.size(); ++k) {
    const fleet::FleetServerStats& p = s.per_server[k];
    std::printf("  %-8zu %16zu %18.2f %14.3f\n", k, p.served_user_slots,
                p.mean_budget_mbps, p.mean_utilization);
  }
}

fleet::FleetRunResult run_once(const fleet::FleetConfig& config,
                               telemetry::Collector* collector = nullptr) {
  core::DvGreedyAllocator allocator;
  return fleet::FleetSim(config).run(allocator, 0, nullptr, collector);
}

void run_sweep(const Options& options) {
  // Kill/recover grid: both assignment modes across outage lengths,
  // from a transient blip to an outage outlasting the run.
  const std::vector<std::int64_t> durations = {50, 150, 300};
  std::printf("%-10s %9s %9s %12s %9s %9s %7s %10s %9s\n", "mode",
              "outage", "affected", "reabsorbed", "mean_ttr", "max_ttr",
              "lost", "migrations", "mean_qoe");
  for (const char* mode : {"sharded", "mirrored"}) {
    for (const std::int64_t duration : durations) {
      Options point = options;
      point.assignment = mode;
      point.crash_duration = duration;
      const fleet::FleetConfig config = make_config(point);
      const fleet::FleetRunResult result = run_once(config);
      const fleet::FleetStats& s = result.stats;
      std::printf("%-10s %9lld %9zu %11.1f%% %9.2f %9zu %7zu %10zu %9.4f\n",
                  mode, static_cast<long long>(duration), s.affected_users,
                  100.0 * s.reabsorbed_fraction, s.mean_reabsorb_slots,
                  s.max_reabsorb_slots, s.lost_users, s.migrations,
                  mean_qoe(result.outcomes));
    }
  }
}

/// One perf arm: a full fleet run with its own registry; wall clock
/// around run() gives the throughput metric, the fleet_ counters (plus
/// the counter-encoded summary metrics) the deterministic failover
/// metrics.
telemetry::ArmPerf measure_arm(const std::string& name,
                               const fleet::FleetConfig& config) {
  // Best-of-3 wall clock: the gate compares cross-arm throughput
  // ratios, and a single scheduler preemption on a short run skews a
  // one-shot ratio past any sane tolerance. The stats (and so every
  // fleet_ counter) are bit-identical across repeats, so only the last
  // repeat's registry is kept.
  constexpr int kTimingRepeats = 3;
  double wall_ms = 0.0;
  telemetry::MetricsSnapshot snapshot;
  for (int repeat = 0; repeat < kTimingRepeats; ++repeat) {
    telemetry::MetricsRegistry registry;
    telemetry::Collector collector(telemetry::Mode::kCounters, &registry);
    const auto start = std::chrono::steady_clock::now();
    const fleet::FleetRunResult result = run_once(config, &collector);
    const double elapsed = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (repeat == 0 || elapsed < wall_ms) wall_ms = elapsed;
    // Deterministic failover summary metrics, counter-encoded so the
    // gate can require bit-exact agreement: milli units keep three
    // decimal digits through the integer encoding.
    const fleet::FleetStats& s = result.stats;
    registry.add(registry.counter("fleet_affected_users"),
                 static_cast<std::uint64_t>(s.affected_users));
    registry.add(registry.counter("fleet_lost_users"),
                 static_cast<std::uint64_t>(s.lost_users));
    registry.add(
        registry.counter("fleet_reabsorbed_milli"),
        static_cast<std::uint64_t>(s.reabsorbed_fraction * 1000.0));
    registry.add(
        registry.counter("fleet_mean_reabsorb_slots_milli"),
        static_cast<std::uint64_t>(s.mean_reabsorb_slots * 1000.0));
    registry.add(registry.counter("fleet_max_reabsorb_slots"),
                 static_cast<std::uint64_t>(s.max_reabsorb_slots));
    registry.add(registry.counter("fleet_mean_qoe_milli"),
                 static_cast<std::uint64_t>(
                     mean_qoe(result.outcomes) * 1000.0));
    snapshot = registry.snapshot();
  }
  telemetry::ArmPerf arm = telemetry::summarize_arm(name, snapshot, wall_ms);
  // Throughput as a phase entry, alongside the per-slot latency the
  // "slot" phase histogram already carries (p50/p95/p99 over every
  // slot of the run). The fields hold slots-per-second values: p50/p95
  // are the throughputs implied by the matching slot-latency quantiles,
  // mean is the aggregate slots/wall figure the arm header also
  // reports. Under perf_gate.py --normalize-by phase entries are
  // advisory; the gating comparison is the arm-level slots_per_sec.
  telemetry::PhasePerf throughput;
  throughput.phase = "fleet_slots_per_sec";
  throughput.count = arm.slots;
  throughput.mean_us = arm.slots_per_sec;
  throughput.total_ms = arm.wall_ms_total;
  for (const telemetry::PhasePerf& phase : arm.phases) {
    if (phase.phase != "slot") continue;
    if (phase.p50_us > 0.0) throughput.p50_us = 1.0e6 / phase.p50_us;
    if (phase.p95_us > 0.0) throughput.p95_us = 1.0e6 / phase.p95_us;
    if (phase.p99_us > 0.0) throughput.p99_us = 1.0e6 / phase.p99_us;
    std::printf(
        "  %-18s fleet_slots_per_sec %10.1f  slot p50 %.1f us  p95 %.1f us\n",
        name.c_str(), arm.slots_per_sec, phase.p50_us, phase.p95_us);
  }
  arm.phases.push_back(throughput);
  return arm;
}

void write_perf_baseline(const Options& options) {
  telemetry::PerfReport perf;
  perf.mode = telemetry::Mode::kCounters;
  for (const char* mode : {"sharded", "mirrored"}) {
    Options arm_options;  // fixed arms: flags must not skew the baseline
    arm_options.assignment = mode;
    perf.arms.push_back(measure_arm(mode, make_config(arm_options)));
  }
  // Fixed K=8 scale arm (the ROADMAP's "K servers x per-server
  // throughput" axis): same crash scenario, doubled fleet and user
  // population.
  Options k8;
  k8.servers = 8;
  k8.users = 24;
  perf.arms.push_back(measure_arm("sharded_k8", make_config(k8)));
  telemetry::write_perf_json(options.perf_out, perf, "fleet_failover",
                             options.machine);
  std::printf("perf baseline written: %s\n", options.perf_out.c_str());
}

void write_csv_report(const Options& options,
                      const fleet::FleetRunResult& result) {
  sim::ArmResult arm;
  arm.algorithm = "fleet_" + options.assignment;
  arm.outcomes = result.outcomes;
  const std::vector<std::string> paths =
      report::write_report({arm}, options.report);
  for (const std::string& path : paths) {
    std::printf("wrote %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  FlagParser parser;
  bool help = false;
  parser.add("servers", &options.servers, "fleet size K");
  parser.add("users", &options.users, "connected users (two routers)");
  parser.add("slots", &options.slots, "run horizon (slots)");
  parser.add("seed", &options.seed, "master seed");
  parser.add("crash-server", &options.crash_server,
             "server id killed by the scenario");
  parser.add("crash-slot", &options.crash_slot, "slot the crash lands on");
  parser.add("crash-duration", &options.crash_duration,
             "outage length in slots (0 = no crash)");
  parser.add("assignment", &options.assignment,
             "user->server assignment: sharded|mirrored");
  parser.add("budget", &options.budget,
             "backhaul split policy: equal|proportional");
  parser.add("report", &options.report,
             "CSV prefix for report::write_report output");
  parser.add("perf-out", &options.perf_out,
             "write cvr-bench-perf-v1 baseline JSON to this path");
  parser.add("machine", &options.machine,
             "capture-environment note for the perf baseline");
  parser.add("sweep", &options.sweep,
             "assignment-mode x outage-length sweep table");
  parser.add("check-recovery", &options.check_recovery,
             "exit non-zero unless >=99% reabsorbed, none lost, "
             "max time-to-reabsorb <= 50 slots");
  parser.add("help", &help, "print usage");
  if (!parser.parse(argc, argv) || help) {
    std::fputs(parser.usage("fleet_failover").c_str(), help ? stdout : stderr);
    for (const std::string& error : parser.errors()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
    }
    return help ? 0 : 1;
  }

  try {
    if (options.sweep) {
      run_sweep(options);
    } else {
      const fleet::FleetConfig config = make_config(options);
      const fleet::FleetRunResult result = run_once(config);
      print_report(config, result);
      if (!options.report.empty()) write_csv_report(options, result);
      if (options.check_recovery) {
        const fleet::FleetStats& s = result.stats;
        const bool ok = s.affected_users > 0 &&
                        s.reabsorbed_fraction >= 0.99 &&
                        s.lost_users == 0 && s.max_reabsorb_slots <= 50;
        if (!ok) {
          std::fprintf(
              stderr,
              "check-recovery: FAILED (affected=%zu reabsorbed=%.3f "
              "lost=%zu max_ttr=%zu)\n",
              s.affected_users, s.reabsorbed_fraction, s.lost_users,
              s.max_reabsorb_slots);
          return 1;
        }
      }
    }
    if (!options.perf_out.empty()) write_perf_baseline(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return 0;
}
