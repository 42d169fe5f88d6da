// The repository benchmark: three serial workloads driven through the
// public entry points fleet::FleetSim::run, system::LoadServer::run and
// system::SystemSim::run (see README.md in this directory).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --list-metrics
//
// One invocation builds the workload's inputs from the seed several
// times (set-up), runs the workload untraced until S seconds have been
// measured, then runs it once more with a kTrace collector and a
// Timeline. It checks the outputs, prints a per-layer table, and ends
// with one JSON line: end-to-end metrics with --trace 0, per-layer
// metrics with --trace 1. With --trace 1 it also writes the traced run's
// first repeat as Chrome-trace JSON to PERFBENCH_TRACE_DIR/NAME.json.
#include <cpuid.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "layers.h"
#include "src/core/registry.h"
#include "src/core/simd.h"
#include "src/faults/fault_schedule.h"
#include "src/fleet/fleet_sim.h"
#include "src/net/mm1.h"
#include "src/sim/traffic_gen.h"
#include "src/system/load_server.h"
#include "src/system/slot_pipeline.h"
#include "src/system/system_sim.h"
#include "src/telemetry/telemetry.h"
#include "src/util/stats.h"
#include "src/util/units.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_TRACE_DIR
#define PERFBENCH_TRACE_DIR "traces"
#endif

namespace {

using namespace cvr;
using Clock = std::chrono::steady_clock;

/// The p-quantile, linear between order statistics; 0 without samples,
/// as for a layer the workload never runs.
double quantile(const std::vector<double>& samples, double p) {
  return samples.empty() ? 0.0 : Cdf(samples).quantile(p);
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// Metric catalogue: every metric the benchmark emits, with its unit.
// BENCHMARK.json lists exactly these (test_perfbench.py checks it).

struct MetricDef {
  std::string name;
  std::string unit;
  bool per_layer;
};

// The layers whose self time the traced run reports, keyed by the
// telemetry phase name that marks them.
struct LayerDef {
  const char* phase;
  const char* layer;
};
constexpr LayerDef kLayers[] = {
    {"pose_ingest", "system.pose_ingest"},
    {"predict", "motion.predict"},
    {"problem_build", "system.problem_build"},
    {"alloc_solve", "core.alloc_solve"},
    {"content_fetch", "content.fetch"},
    {"transport", "net.transport"},
    {"decode", "system.decode"},
    {"feedback", "net.feedback"},
    {"admission", "system.admission"},
};
constexpr const char* kUnattributed = "slot.unattributed";

const std::vector<MetricDef>& metric_catalogue() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"user_slots_per_s", "1/s", false},
        {"setup_s", "s", false},
        {"peak_rss_mb", "MB", false},
        {"qoe_mean", "qoe", false},
        {"fps_mean", "frames/s", false},
        {"sustained_users", "users", false},
        {"reabsorbed_fraction", "ratio", false},
        {"admit_fraction", "ratio", false},
        // Simulated delivery statistics that swing by tens of percent
        // from seed to seed (README.md): reported, but not bounded.
        {"delay_mean_ms", "ms", true},
        {"delay_p99_ms", "ms", true},
        {"miss_fraction", "ratio", true},
    };
    std::vector<std::string> layers;
    for (const LayerDef& l : kLayers) layers.push_back(l.layer);
    layers.push_back(kUnattributed);
    for (const std::string& layer : layers) {
      d.push_back({layer + ".self_ms", "ms", true});
      d.push_back({layer + ".share", "ratio", true});
      d.push_back({layer + ".p50_us", "us", true});
      d.push_back({layer + ".p99_us", "us", true});
      d.push_back({layer + ".calls", "count", true});
    }
    const MetricDef rest[] = {
        {"slot.p50_us", "us", true},
        {"slot.p99_us", "us", true},
        {"slot.calls", "count", true},
        {"core.alloc_iterations", "count", true},
        {"content.tiles_requested", "count", true},
        {"motion.coverage_hit_ratio", "ratio", true},
        {"net.packets_sent", "count", true},
        {"net.packet_loss_ratio", "ratio", true},
        {"system.frames_on_time_ratio", "ratio", true},
        {"proto.pose_uploads", "count", true},
        {"fleet.handoff_frames", "count", true},
        {"fleet.migrations", "count", true},
        {"fleet.retry_attempts", "count", true},
        {"fleet.migration_rejects", "count", true},
        {"fleet.orphan_user_slots", "count", true},
        {"system.admission.admitted", "count", true},
        {"system.admission.degraded", "count", true},
        {"system.admission.rejected", "count", true},
        {"system.admission.queue_depth_mean", "sessions", true},
        {"setup.schedule_ms", "ms", true},
        {"setup.construct_ms", "ms", true},
        {"setup.worlds_ms", "ms", true},
        {"telemetry.overhead_ratio", "ratio", true},
    };
    d.insert(d.end(), std::begin(rest), std::end(rest));
    return d;
  }();
  return defs;
}

// ---------------------------------------------------------------------------
// Run outputs.

/// FNV-1a over the bit patterns of a run's outputs: two runs agree on
/// every output bit exactly when their digests agree (up to collisions).
class Digest {
 public:
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void add_outcome(Digest& d, const sim::UserOutcome& o) {
  for (double v : {o.avg_qoe, o.avg_quality, o.avg_level, o.avg_delay_ms,
                   o.variance, o.prediction_accuracy, o.fps, o.fault_slots,
                   o.time_to_recover_slots, o.qoe_dip,
                   o.frames_dropped_in_fault, o.home_server, o.migrations}) {
    d.add(v);
  }
}

/// What one run produced: a digest of every output, the simulated
/// metrics derived from it, and the user-slots it served.
struct RunOutputs {
  std::uint64_t digest = 0;
  std::map<std::string, double> sim;
  double user_slots = 0.0;
  std::vector<std::string> errors;  ///< Failed correctness checks.
};

struct OutcomeMeans {
  double qoe = 0.0, fps = 0.0, delay_ms = 0.0;
};

OutcomeMeans means_of(const std::vector<sim::UserOutcome>& outcomes) {
  OutcomeMeans m;
  for (const sim::UserOutcome& o : outcomes) {
    m.qoe += o.avg_qoe;
    m.fps += o.fps;
    m.delay_ms += o.avg_delay_ms;
  }
  const double n = static_cast<double>(outcomes.size());
  m.qoe /= n;
  m.fps /= n;
  m.delay_ms /= n;
  return m;
}

/// Accumulates the traced run's Timeline records, one repeat at a time,
/// and checks every record.
class TimelineStats {
 public:
  void add(const system::Timeline& timeline) {
    for (const system::SlotRecord& r : timeline.records()) {
      ++records_;
      if (r.level < 1 || r.level > content::kNumQualityLevels) ++bad_level_;
      for (double v : {r.delta_estimate, r.bandwidth_estimate_mbps,
                       r.demand_mbps, r.granted_mbps, r.capacity_mbps,
                       r.delay_ms, r.displayed_quality}) {
        if (!std::isfinite(v)) ++non_finite_;
      }
      // Delivery delay of the frames the link carried: an absent user
      // has no demand, and a saturated link reads as the model's penalty
      // value; both count in miss_fraction instead.
      if (r.demand_mbps > 0.0 && r.delay_ms < net::kSaturatedDelay) {
        delays_.push_back(r.delay_ms);
      }
      if (!r.frame_on_time) ++missed_;
    }
  }

  double records() const { return static_cast<double>(records_); }

  void finish(RunOutputs& out) const {
    if (records_ == 0) out.errors.push_back("timeline is empty");
    if (bad_level_ > 0) {
      out.errors.push_back("timeline: " + std::to_string(bad_level_) +
                           " records with a level outside [1, 6]");
    }
    if (non_finite_ > 0) {
      out.errors.push_back("timeline: " + std::to_string(non_finite_) +
                           " non-finite values");
    }
    out.sim["delay_p99_ms"] = quantile(delays_, 0.99);
    out.sim["miss_fraction"] =
        static_cast<double>(missed_) / static_cast<double>(records_);
  }

 private:
  std::size_t records_ = 0, bad_level_ = 0, non_finite_ = 0, missed_ = 0;
  std::vector<double> delays_;
};

// ---------------------------------------------------------------------------
// Workloads.

struct SetupTimes {
  double schedule_ms = 0.0;
  double construct_ms = 0.0;
  double worlds_ms = 0.0;
  double total_ms() const { return schedule_ms + construct_ms + worlds_ms; }
};

/// One run of a workload is repeats() calls of run_repeat(), then
/// finish(). The traced run gives each repeat its own trace buffer.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from the seed (config, generated fault schedule
  /// or traffic, simulator construction and validation).
  virtual SetupTimes setup(std::uint64_t seed) = 0;
  virtual std::size_t repeats() const { return 1; }
  /// Whether run_repeat() fills a Timeline.
  virtual bool has_timeline() const { return true; }
  virtual void run_repeat(std::size_t repeat, telemetry::Collector* collector,
                          system::Timeline* timeline) = 0;
  /// Digest, simulated metrics and checks of the repeats run since the
  /// last finish().
  virtual RunOutputs finish() = 0;
};

const char* layer_of(const std::string& phase) {
  for (const LayerDef& l : kLayers) {
    if (phase == l.phase) return l.layer;
  }
  return nullptr;
}

/// Maps one repeat's trace to layer spans. Fleet and system runs have
/// a slot span per slot, which roots the spans sharing its slot index.
/// The load service has none: the run() call, [begin_us, end_us) on the
/// collector's clock, is the single root of every span.
std::vector<perfbench::Span> layer_spans(const telemetry::TraceBuffer& trace,
                                         bool slot_roots, double begin_us,
                                         double end_us) {
  std::vector<perfbench::Span> out;
  if (!slot_roots) {
    perfbench::Span root;
    root.layer = "run";
    root.group = 0;
    root.ts_us = begin_us;
    root.dur_us = end_us - begin_us;
    root.root = true;
    out.push_back(root);
  }
  for (const telemetry::TraceEvent& e : trace.events()) {
    perfbench::Span s;
    s.group = slot_roots ? e.slot : 0;
    s.ts_us = e.ts_us;
    s.dur_us = e.dur_us;
    if (e.name == telemetry::phase_name(telemetry::Phase::kSlot)) {
      s.root = slot_roots;
      s.layer = "slot";
    } else {
      const char* layer = layer_of(e.name);
      s.layer = layer != nullptr ? layer : "other." + e.name;
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::unique_ptr<core::Allocator> system_allocator() {
  return core::make_allocator("dv", core::AllocatorContext::kSystem);
}

/// fleet_chaos: K=8 sharded servers, 48 users on two routers, under a
/// generated chaos schedule with server scope.
class FleetChaos : public Workload {
 public:
  static constexpr std::size_t kServers = 8;
  static constexpr std::size_t kUsers = 48;
  static constexpr std::size_t kSlots = 2000;
  static constexpr std::size_t kRepeats = 4;
  // The chaos schedule is part of the workload, not of the seed: event
  // counts are Poisson draws, and one router outage or crash more or
  // less moves every simulated metric by tens of percent (README.md).
  static constexpr std::uint64_t kChaosSeed = 2022;
  // Each server's backhaul share equals one router's aggregate, so a
  // surviving server has the headroom to re-admit a crashed peer's
  // users (at the nominal 100 Mbps share, admission rejects orphans and
  // loses up to half of them).
  static constexpr double kBackhaulMbps = 400.0 * kServers;

  SetupTimes setup(std::uint64_t seed) override {
    SetupTimes t;
    auto start = Clock::now();
    fleet::FleetConfig config;
    config.base = system::setup_two_routers(kUsers);
    config.base.slots = kSlots;
    config.base.seed = seed;
    config.base.allocator_threads = 0;
    config.servers = kServers;
    config.backhaul_mbps = kBackhaulMbps;
    config.threads = 1;
    faults::FaultScheduleConfig chaos;
    chaos.users = kUsers;
    chaos.routers = config.base.routers;
    // Events start early enough for every orphan's retry window to close
    // inside the run, so the re-absorption funnel is complete.
    chaos.slots = kSlots - config.backoff.timeout_slots - 1;
    chaos.seed = kChaosSeed;
    chaos.intensity = 1.0;
    chaos.servers = kServers;
    config.base.faults = faults::generate_schedule(chaos);
    t.schedule_ms = ms_since(start);

    start = Clock::now();
    sim_ = std::make_unique<fleet::FleetSim>(config);
    allocator_ = system_allocator();
    t.construct_ms = ms_since(start);

    start = Clock::now();
    for (std::size_t r = 0; r < kRepeats; ++r) {
      if (system::build_user_worlds(sim_->config().base, r).size() != kUsers) {
        throw std::logic_error("fleet_chaos: wrong world count");
      }
    }
    t.worlds_ms = ms_since(start);
    return t;
  }

  std::size_t repeats() const override { return kRepeats; }

  void run_repeat(std::size_t repeat, telemetry::Collector* collector,
                  system::Timeline* timeline) override {
    results_.push_back(sim_->run(*allocator_, repeat, timeline, collector));
  }

  RunOutputs finish() override {
    RunOutputs out;
    Digest d;
    std::vector<sim::UserOutcome> outcomes;
    std::size_t affected = 0, reabsorbed = 0, lost = 0;
    double served = 0.0;
    for (const fleet::FleetRunResult& result : results_) {
      for (const sim::UserOutcome& o : result.outcomes) add_outcome(d, o);
      outcomes.insert(outcomes.end(), result.outcomes.begin(),
                      result.outcomes.end());
      const fleet::FleetStats& s = result.stats;
      for (std::size_t v :
           {s.crashes, s.recoveries, s.migrations, s.handoff_frames,
            s.retry_attempts, s.rejects, s.affected_users,
            s.reabsorbed_users, s.lost_users, s.max_reabsorb_slots}) {
        d.add(static_cast<std::uint64_t>(v));
      }
      d.add(s.reabsorbed_fraction);
      d.add(s.mean_reabsorb_slots);
      for (const fleet::FleetServerStats& p : s.per_server) {
        d.add(static_cast<std::uint64_t>(p.served_user_slots));
        d.add(p.mean_budget_mbps);
        d.add(p.mean_utilization);
        served += static_cast<double>(p.served_user_slots);
      }
      if (s.reabsorbed_users + s.lost_users != s.affected_users) {
        out.errors.push_back(
            "fleet funnel: reabsorbed " + std::to_string(s.reabsorbed_users) +
            " + lost " + std::to_string(s.lost_users) + " != affected " +
            std::to_string(s.affected_users));
      }
      if (s.crashes == 0) out.errors.push_back("fleet: no server crashed");
      affected += s.affected_users;
      reabsorbed += s.reabsorbed_users;
      lost += s.lost_users;
    }
    out.digest = d.value();

    const OutcomeMeans m = means_of(outcomes);
    const double runs = static_cast<double>(results_.size());
    out.sim["qoe_mean"] = m.qoe;
    out.sim["fps_mean"] = m.fps;
    out.sim["delay_mean_ms"] = m.delay_ms;
    out.sim["sustained_users"] = served / (runs * kSlots);
    out.sim["reabsorbed_fraction"] =
        affected == 0 ? 1.0
                      : static_cast<double>(reabsorbed) /
                            static_cast<double>(affected);
    out.sim["admit_fraction"] =
        affected == 0 ? 1.0
                      : static_cast<double>(affected - lost) /
                            static_cast<double>(affected);
    out.user_slots = served;
    results_.clear();
    return out;
  }

 private:
  std::unique_ptr<fleet::FleetSim> sim_;
  std::unique_ptr<core::Allocator> allocator_;
  std::vector<fleet::FleetRunResult> results_;
};

/// service_2k: the open-loop load service at capacity 2000, offered
/// load 0.8, bandwidth and connect speed scaled with capacity.
class Service2k : public Workload {
 public:
  static constexpr std::size_t kCapacity = 2000;
  static constexpr std::size_t kSlots = 4000;

  SetupTimes setup(std::uint64_t seed) override {
    SetupTimes t;
    auto start = Clock::now();
    system::LoadServiceConfig config;
    const double scale = static_cast<double>(kCapacity) /
                         static_cast<double>(config.capacity_users);
    config.capacity_users = kCapacity;
    config.server_bandwidth_mbps *= scale;
    config.traffic.connect_speed *= scale;
    config.traffic.load = 0.8;
    config.traffic.seed = seed;
    config.allocator = "dv";
    config.allocator_threads = 0;
    // The benchmark generates the arrival stream the service will see,
    // so the run can be checked against it.
    sim::TrafficGenerator traffic(config.traffic, config.capacity_users);
    std::vector<sim::SessionRequest> arrivals;
    offered_ = 0;
    for (std::size_t slot = 0; slot < kSlots; ++slot) {
      arrivals.clear();
      traffic.arrivals_for_slot(slot, arrivals);
      offered_ += arrivals.size();
    }
    t.schedule_ms = ms_since(start);

    start = Clock::now();
    server_ = std::make_unique<system::LoadServer>(config);
    t.construct_ms = ms_since(start);
    return t;
  }

  bool has_timeline() const override { return false; }

  void run_repeat(std::size_t, telemetry::Collector* collector,
                  system::Timeline*) override {
    report_ = server_->run(kSlots, collector);
  }

  RunOutputs finish() override {
    const system::LoadServiceReport& r = report_;
    RunOutputs out;
    Digest d;
    for (std::uint64_t v :
         {std::uint64_t{r.horizon_slots}, std::uint64_t{r.drain_slots},
          std::uint64_t{r.drained}, r.offered, r.admitted, r.degraded,
          r.rejected, std::uint64_t{r.peak_active_users},
          std::uint64_t{r.peak_queue_depth}, r.delay_samples,
          r.deadline_misses, std::uint64_t{r.slo_met},
          r.completed_sessions}) {
      d.add(v);
    }
    for (double v : {r.reject_rate, r.mean_active_users, r.mean_queue_depth,
                     r.mean_delay_ms, r.p99_delay_ms, r.sustained_users,
                     r.mean_session_qoe}) {
      d.add(v);
    }
    out.digest = d.value();

    if (r.offered != r.admitted + r.degraded + r.rejected) {
      out.errors.push_back("service funnel: offered " +
                           std::to_string(r.offered) +
                           " != admitted + degraded + rejected");
    }
    if (!r.drained) out.errors.push_back("service did not drain");
    if (r.offered != offered_) {
      out.errors.push_back("service saw " + std::to_string(r.offered) +
                           " sessions, traffic generated " +
                           std::to_string(offered_));
    }
    if (r.delay_samples == 0 || r.offered == 0) {
      out.errors.push_back("service served nothing");
      return out;
    }
    const double samples = static_cast<double>(r.delay_samples);
    const double miss = static_cast<double>(r.deadline_misses) / samples;
    out.sim["qoe_mean"] = r.mean_session_qoe;
    // A session displays a frame when its slot meets the delivery budget.
    out.sim["fps_mean"] = (1.0 - miss) / kSlotSeconds;
    out.sim["delay_mean_ms"] = r.mean_delay_ms;
    out.sim["delay_p99_ms"] = r.p99_delay_ms;
    out.sim["sustained_users"] = r.sustained_users;
    out.sim["reabsorbed_fraction"] = 1.0;  // nothing is orphaned
    out.sim["miss_fraction"] = miss;
    out.sim["admit_fraction"] =
        static_cast<double>(r.admitted + r.degraded) /
        static_cast<double>(r.offered);
    // The user-slots of the post-warm-up arrival window: the warm-up
    // fill and the drain are served but not counted.
    out.user_slots = samples;
    return out;
  }

 private:
  std::unique_ptr<system::LoadServer> server_;
  std::uint64_t offered_ = 0;
  system::LoadServiceReport report_;
};

/// paper_fig8: the paper's setup 2 (15 users, two routers) over its
/// five repeats, no faults.
class PaperFig8 : public Workload {
 public:
  static constexpr std::size_t kUsers = 15;
  static constexpr std::size_t kRepeats = 5;

  SetupTimes setup(std::uint64_t seed) override {
    SetupTimes t;
    auto start = Clock::now();
    system::SystemSimConfig config = system::setup_two_routers(kUsers);
    config.seed = seed;
    config.allocator_threads = 0;
    t.schedule_ms = ms_since(start);

    start = Clock::now();
    sim_ = std::make_unique<system::SystemSim>(config);
    allocator_ = system_allocator();
    t.construct_ms = ms_since(start);

    start = Clock::now();
    for (std::size_t r = 0; r < kRepeats; ++r) {
      if (system::build_user_worlds(sim_->config(), r).size() != kUsers) {
        throw std::logic_error("paper_fig8: wrong world count");
      }
    }
    t.worlds_ms = ms_since(start);
    return t;
  }

  std::size_t repeats() const override { return kRepeats; }

  void run_repeat(std::size_t repeat, telemetry::Collector* collector,
                  system::Timeline* timeline) override {
    const std::vector<sim::UserOutcome> rep =
        sim_->run(*allocator_, repeat, timeline, collector);
    outcomes_.insert(outcomes_.end(), rep.begin(), rep.end());
  }

  RunOutputs finish() override {
    RunOutputs out;
    Digest d;
    for (const sim::UserOutcome& o : outcomes_) add_outcome(d, o);
    out.digest = d.value();
    const OutcomeMeans m = means_of(outcomes_);
    out.sim["qoe_mean"] = m.qoe;
    out.sim["fps_mean"] = m.fps;
    out.sim["delay_mean_ms"] = m.delay_ms;
    // No faults: every user is served in every slot.
    out.sim["sustained_users"] = static_cast<double>(kUsers);
    out.sim["reabsorbed_fraction"] = 1.0;
    out.sim["admit_fraction"] = 1.0;
    out.user_slots = static_cast<double>(outcomes_.size() *
                                         sim_->config().slots);
    outcomes_.clear();
    return out;
  }

 private:
  std::unique_ptr<system::SystemSim> sim_;
  std::unique_ptr<core::Allocator> allocator_;
  std::vector<sim::UserOutcome> outcomes_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "fleet_chaos") return std::make_unique<FleetChaos>();
  if (name == "service_2k") return std::make_unique<Service2k>();
  if (name == "paper_fig8") return std::make_unique<PaperFig8>();
  return nullptr;
}

// ---------------------------------------------------------------------------
// Machine fingerprint.

std::string cpu_model() {
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (static_cast<unsigned char>(c) < 0x20) continue;
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string fingerprint_json(const std::string& workload) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  // The library honours these overrides; record them so a result
  // captured under one is recognisable.
  const char* fleet_env = std::getenv("CVR_FLEET_THREADS");
  const char* scalar_env = std::getenv("CVR_FORCE_SCALAR");
  std::string out = "{\"nproc\": " +
                    std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"cpu\": \"" + json_escape(cpu_model()) + "\"";
  out += ", \"compiler\": \"" + json_escape(compiler) + "\"";
  out += ", \"build_type\": \"" + std::string(PERFBENCH_BUILD_TYPE) + "\"";
  out += ", \"simd_backend\": \"" +
         std::string(core::simd::backend_name(core::simd::active_backend())) +
         "\"";
  out += ", \"process_threads\": 1";
  out += std::string(", \"fleet_threads\": ") +
         (workload == "fleet_chaos" ? "1" : "null");
  out += ", \"allocator_threads\": 0";
  out += ", \"CVR_FLEET_THREADS\": \"" +
         json_escape(fleet_env ? fleet_env : "") + "\"";
  out += ", \"CVR_FORCE_SCALAR\": \"" +
         json_escape(scalar_env ? scalar_env : "") + "\"}";
  return out;
}

// ---------------------------------------------------------------------------
// Driver.

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool list_metrics = false;
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      o.list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(arg + ": missing value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace") {
      o.trace = std::stoi(value);
    } else {
      throw std::invalid_argument("unknown flag " + arg);
    }
  }
  if (o.list_metrics) return o;
  if (make_workload(o.workload) == nullptr) {
    throw std::invalid_argument("--workload: unknown workload '" +
                                o.workload + "'");
  }
  if (!have_seed) throw std::invalid_argument("--seed: required");
  if (!(o.seconds > 0.0)) {
    throw std::invalid_argument("--seconds: must be positive");
  }
  if (o.trace != 0 && o.trace != 1) {
    throw std::invalid_argument("--trace: expected 0 or 1");
  }
  return o;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// The host's speed drifts over tens of seconds, so set-up is sampled
// across the same stretch of time as the runs: kMinSetups builds up
// front, then builds of a spare workload after every run until
// kSetupShare of that run's time is spent.
constexpr int kMinSetups = 7;
constexpr double kSetupShare = 0.05;

/// The traced run: every repeat under its own kTrace collector (one
/// shared registry), spans attributed per repeat, the Timeline checked
/// per repeat. Only the first repeat's trace is kept, for the artefact.
struct TracedRun {
  RunOutputs out;
  telemetry::MetricsSnapshot snapshot;
  perfbench::Attribution attribution;
  telemetry::TraceBuffer first_trace;
  std::vector<double> slot_us;  ///< Host time of each slot.
  double wall_ms = 0.0;
  double user_slots_due = 0.0;  ///< Timeline records (fleet and system).
};

/// Host time of each slot of a run without slot spans: the extent from
/// the start of the first to the end of the last phase span carrying
/// the slot's index.
std::vector<double> slot_extents(const telemetry::TraceBuffer& trace) {
  std::map<std::int64_t, std::pair<double, double>> extent;
  for (const telemetry::TraceEvent& e : trace.events()) {
    const double end = e.ts_us + e.dur_us;
    const auto [it, fresh] = extent.try_emplace(e.slot, e.ts_us, end);
    if (!fresh) {
      it->second.first = std::min(it->second.first, e.ts_us);
      it->second.second = std::max(it->second.second, end);
    }
  }
  std::vector<double> out;
  for (const auto& [slot, span] : extent) out.push_back(span.second - span.first);
  return out;
}

TracedRun traced_run(Workload& workload) {
  TracedRun traced;
  telemetry::MetricsRegistry registry;
  TimelineStats timeline_stats;
  for (std::size_t r = 0; r < workload.repeats(); ++r) {
    telemetry::TraceBuffer trace;
    telemetry::Collector collector(telemetry::Mode::kTrace, &registry, &trace);
    system::Timeline timeline;
    const double begin_us = collector.now_us();
    workload.run_repeat(r, &collector,
                        workload.has_timeline() ? &timeline : nullptr);
    const double end_us = collector.now_us();
    traced.wall_ms += (end_us - begin_us) / 1000.0;
    timeline_stats.add(timeline);
    perfbench::merge(traced.attribution,
                     perfbench::attribute(layer_spans(
                         trace, workload.has_timeline(), begin_us, end_us)));
    if (!workload.has_timeline()) {
      const std::vector<double> slots = slot_extents(trace);
      traced.slot_us.insert(traced.slot_us.end(), slots.begin(), slots.end());
    }
    if (r == 0) traced.first_trace = std::move(trace);
  }
  if (workload.has_timeline()) traced.slot_us = traced.attribution.root_us;
  traced.out = workload.finish();
  if (workload.has_timeline()) {
    timeline_stats.finish(traced.out);
    traced.user_slots_due = timeline_stats.records();
  }
  traced.snapshot = registry.snapshot();
  return traced;
}

/// Per-layer metrics from the traced run.
void layer_metrics(const TracedRun& traced,
                   std::map<std::string, double>& m) {
  const perfbench::Attribution& attr = traced.attribution;
  const double root_total = attr.root_total_us();
  const auto put_layer = [&](const std::string& layer,
                             const std::vector<double>& self) {
    double total = 0.0;
    for (double v : self) total += v;
    m[layer + ".self_ms"] = total / 1000.0;
    m[layer + ".share"] = ratio(total, root_total);
    m[layer + ".p50_us"] = quantile(self, 0.5);
    m[layer + ".p99_us"] = quantile(self, 0.99);
    m[layer + ".calls"] = static_cast<double>(self.size());
  };
  for (const LayerDef& l : kLayers) {
    const auto it = attr.layers.find(l.layer);
    put_layer(l.layer, it == attr.layers.end() ? std::vector<double>{}
                                               : it->second.self_us);
  }
  put_layer(kUnattributed, attr.unattributed_us);
  m["slot.p50_us"] = quantile(traced.slot_us, 0.5);
  m["slot.p99_us"] = quantile(traced.slot_us, 0.99);
  m["slot.calls"] = static_cast<double>(traced.slot_us.size());

  const telemetry::MetricsSnapshot& snap = traced.snapshot;
  const auto counter = [&](const char* name) {
    return static_cast<double>(snap.counter_or(name));
  };
  const double due = traced.user_slots_due;
  m["core.alloc_iterations"] = counter("alloc_iterations");
  m["content.tiles_requested"] = counter("tiles_requested");
  m["motion.coverage_hit_ratio"] = ratio(counter("coverage_hits"), due);
  m["net.packets_sent"] = counter("packets_sent");
  m["net.packet_loss_ratio"] =
      ratio(counter("packets_lost"), counter("packets_sent"));
  m["system.frames_on_time_ratio"] = ratio(counter("frames_on_time"), due);
  m["proto.pose_uploads"] = counter("pose_uploads");
  m["fleet.handoff_frames"] = counter("fleet_handoff_frames");
  m["fleet.migrations"] = counter("fleet_migrations");
  m["fleet.retry_attempts"] = counter("fleet_retry_attempts");
  m["fleet.migration_rejects"] = counter("fleet_migration_rejects");
  m["fleet.orphan_user_slots"] = counter("fleet_orphan_user_slots");
  m["system.admission.admitted"] = counter("svc_admitted");
  m["system.admission.degraded"] = counter("svc_degraded");
  m["system.admission.rejected"] = counter("svc_rejected");
  const auto queue = snap.histograms.find("svc_queue_depth");
  m["system.admission.queue_depth_mean"] =
      queue == snap.histograms.end() ? 0.0 : queue->second.mean();
}

void print_layer_table(const std::map<std::string, double>& m,
                       double root_total_us, bool slot_roots) {
  std::printf("%-22s %12s %8s %12s %12s %10s\n", "layer (traced run)",
              "self ms", "share", "p50 us", "p99 us", "calls");
  std::vector<std::string> rows;
  for (const LayerDef& l : kLayers) rows.push_back(l.layer);
  rows.push_back(kUnattributed);
  for (const std::string& layer : rows) {
    std::printf("%-22s %12.3f %8.4f %12.3f %12.3f %10.0f\n", layer.c_str(),
                m.at(layer + ".self_ms"), m.at(layer + ".share"),
                m.at(layer + ".p50_us"), m.at(layer + ".p99_us"),
                m.at(layer + ".calls"));
  }
  std::printf("%-22s %12.3f %8.4f %12.3f %12.3f %10.0f\n",
              slot_roots ? "slot (total)" : "run() (total)",
              root_total_us / 1000.0, 1.0, m.at("slot.p50_us"),
              m.at("slot.p99_us"), m.at("slot.calls"));
}

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, bool per_layer,
                        const std::map<std::string, double>& m) {
  for (const auto& [name, value] : m) {
    bool known = false;
    for (const MetricDef& def : metric_catalogue()) known |= name == def.name;
    if (!known) throw std::logic_error("metric not catalogued: " + name);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : metric_catalogue()) {
    if (def.per_layer != per_layer) continue;
    const auto it = m.find(def.name);
    if (it == m.end()) {
      throw std::logic_error("metric not computed: " + def.name);
    }
    // A non-finite value has already failed the run's checks; 0 keeps
    // the line valid JSON.
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(it->second) ? it->second : 0.0);
    json += first ? "" : ", ";
    first = false;
    json += "\"" + def.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            def.unit + "\"}";
  }
  return json + "}}";
}

int run_benchmark(const Options& opt) {
  std::unique_ptr<Workload> workload = make_workload(opt.workload);
  const bool slot_roots = workload->has_timeline();
  std::vector<std::string> errors;
  std::size_t attempted = 0, failed = 0;
  const auto record = [&](const RunOutputs& out) {
    ++attempted;
    if (out.errors.empty()) return;
    ++failed;
    errors.insert(errors.end(), out.errors.begin(), out.errors.end());
  };

  std::vector<double> setup_total, setup_schedule, setup_construct,
      setup_worlds;
  const auto time_setup = [&](Workload& w) {
    const SetupTimes t = w.setup(opt.seed);
    setup_total.push_back(t.total_ms());
    setup_schedule.push_back(t.schedule_ms);
    setup_construct.push_back(t.construct_ms);
    setup_worlds.push_back(t.worlds_ms);
    return t.total_ms();
  };
  // The last of these builds is the one that runs.
  for (int i = 0; i < kMinSetups; ++i) time_setup(*workload);
  std::unique_ptr<Workload> spare = make_workload(opt.workload);

  // Untraced runs until `seconds` of run time is measured; the median
  // discounts a cold first run.
  std::vector<double> rates, walls;
  RunOutputs reference;
  double measured_ms = 0.0;
  while (measured_ms < opt.seconds * 1000.0) {
    const auto start = Clock::now();
    for (std::size_t r = 0; r < workload->repeats(); ++r) {
      workload->run_repeat(r, nullptr, nullptr);
    }
    RunOutputs out = workload->finish();
    const double wall_ms = ms_since(start);
    if (walls.empty()) {
      reference = out;
    } else if (out.digest != reference.digest) {
      out.errors.push_back("untraced run " + std::to_string(walls.size()) +
                           " differs from the first");
    }
    record(out);
    measured_ms += wall_ms;
    walls.push_back(wall_ms);
    rates.push_back(out.user_slots / (wall_ms / 1000.0));
    for (double spent = 0.0; spent < kSetupShare * wall_ms;) {
      spent += time_setup(*spare);
    }
  }
  const double rss_mb = peak_rss_mb();

  TracedRun traced = traced_run(*workload);
  if (traced.out.digest != reference.digest) {
    traced.out.errors.push_back("traced run differs from the untraced runs");
  }
  const perfbench::Attribution& attr = traced.attribution;
  double self_sum = attr.unattributed_total_us();
  for (const auto& [layer, times] : attr.layers) {
    self_sum += times.total_us();
    if (layer.rfind("other.", 0) == 0) {
      traced.out.errors.push_back("span of unmapped phase " + layer);
    }
  }
  const double root_total = attr.root_total_us();
  if (attr.stray_spans > 0) {
    traced.out.errors.push_back(std::to_string(attr.stray_spans) +
                                " spans are not nested in their slot");
  }
  if (attr.min_self_us() < -perfbench::kNestSlackUs) {
    traced.out.errors.push_back("a layer self time is negative");
  }
  if (!(root_total > 0.0) ||
      std::abs(self_sum - root_total) > 1e-6 * root_total) {
    traced.out.errors.push_back("layer self times do not sum to slot time");
  }
  record(traced.out);

  std::map<std::string, double> m;
  m["user_slots_per_s"] = median(rates);
  m["setup_s"] = median(setup_total) / 1000.0;
  m["peak_rss_mb"] = rss_mb;
  for (const auto& [name, value] : traced.out.sim) m[name] = value;
  layer_metrics(traced, m);
  m["setup.schedule_ms"] = median(setup_schedule);
  m["setup.construct_ms"] = median(setup_construct);
  m["setup.worlds_ms"] = median(setup_worlds);
  m["telemetry.overhead_ratio"] = ratio(traced.wall_ms, median(walls));
  for (const auto& [name, value] : m) {
    if (!std::isfinite(value)) errors.push_back(name + " is not finite");
  }

  std::printf("perfbench %s seed=%llu: %zu timed runs, %.1f s measured\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), walls.size(),
              measured_ms / 1000.0);
  std::printf("set-up: %zu builds, median %.3f ms, p10 %.3f ms, p90 %.3f ms\n",
              setup_total.size(), median(setup_total),
              quantile(setup_total, 0.1),
              quantile(setup_total, 0.9));
  std::printf("run rates (user-slots/s):");
  for (double r : rates) std::printf(" %.0f", r);
  std::printf("\nfingerprint %s\n", fingerprint_json(opt.workload).c_str());
  print_layer_table(m, root_total, slot_roots);
  for (const std::string& e : errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  if (opt.trace == 1) {
    const std::filesystem::path dir(PERFBENCH_TRACE_DIR);
    std::filesystem::create_directories(dir);
    const std::string path = (dir / (opt.workload + ".json")).string();
    traced.first_trace.write(path);
    std::printf("trace of repeat 0 written: %s (%zu spans)\n", path.c_str(),
                traced.first_trace.size());
  }
  std::printf("%s\n", result_json(errors.empty(), attempted, failed,
                                  opt.trace == 1, m)
                          .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse(argc, argv);
    if (opt.list_metrics) {
      for (const MetricDef& def : metric_catalogue()) {
        std::printf("%s %s %s\n", def.name.c_str(), def.unit.c_str(),
                    def.per_layer ? "per_layer" : "end_to_end");
      }
      return 0;
    }
    return run_benchmark(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
