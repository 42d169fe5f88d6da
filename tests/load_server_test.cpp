#include "src/system/load_server.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/telemetry/telemetry.h"
#include "src/util/rng.h"

namespace cvr::system {
namespace {

LoadServiceConfig small_config(double load = 0.5,
                               sim::TrafficShape shape =
                                   sim::TrafficShape::kUniform) {
  LoadServiceConfig config;
  config.traffic.shape = shape;
  config.traffic.load = load;
  config.traffic.mean_session_slots = 120.0;  // fast churn for tests
  config.traffic.seed = 11;
  config.capacity_users = 12;
  config.warmup_slots = 100;
  return config;
}

void expect_reports_equal(const LoadServiceReport& a,
                          const LoadServiceReport& b) {
  EXPECT_EQ(a.horizon_slots, b.horizon_slots);
  EXPECT_EQ(a.drain_slots, b.drain_slots);
  EXPECT_EQ(a.drained, b.drained);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.reject_rate, b.reject_rate);
  EXPECT_EQ(a.mean_active_users, b.mean_active_users);
  EXPECT_EQ(a.peak_active_users, b.peak_active_users);
  EXPECT_EQ(a.mean_queue_depth, b.mean_queue_depth);
  EXPECT_EQ(a.peak_queue_depth, b.peak_queue_depth);
  EXPECT_EQ(a.delay_samples, b.delay_samples);
  EXPECT_EQ(a.mean_delay_ms, b.mean_delay_ms);
  EXPECT_EQ(a.p99_delay_ms, b.p99_delay_ms);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.slo_met, b.slo_met);
  EXPECT_EQ(a.sustained_users, b.sustained_users);
  EXPECT_EQ(a.mean_session_qoe, b.mean_session_qoe);
  EXPECT_EQ(a.completed_sessions, b.completed_sessions);
}

// The whole report is a pure function of the config: two fresh servers
// (and two runs of the same server) agree bit-for-bit.
TEST(LoadServer, ReportIsBitReproducible) {
  const LoadServiceConfig config =
      small_config(0.8, sim::TrafficShape::kExponential);
  LoadServer first(config);
  LoadServer second(config);
  const LoadServiceReport a = first.run(1500);
  const LoadServiceReport b = second.run(1500);
  expect_reports_equal(a, b);
  const LoadServiceReport c = first.run(1500);  // rerun re-seeds
  expect_reports_equal(a, c);
}

// Telemetry is measurement metadata only: attaching a collector must
// not change a single bit of the report, and the svc_* counters must
// mirror the report exactly (that is what lets perf_gate.py gate them).
TEST(LoadServer, TelemetryDoesNotPerturbAndCountersMatch) {
  const LoadServiceConfig config =
      small_config(1.2, sim::TrafficShape::kPeaks);
  LoadServer bare(config);
  const LoadServiceReport expected = bare.run(1500);

  telemetry::MetricsRegistry registry;
  telemetry::Collector collector(telemetry::Mode::kCounters, &registry);
  LoadServer observed(config);
  const LoadServiceReport report = observed.run(1500, &collector);
  expect_reports_equal(report, expected);

  const telemetry::MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter_or("svc_offered_sessions"), report.offered);
  EXPECT_EQ(snapshot.counter_or("svc_admitted"), report.admitted);
  EXPECT_EQ(snapshot.counter_or("svc_degraded"), report.degraded);
  EXPECT_EQ(snapshot.counter_or("svc_rejected"), report.rejected);
  EXPECT_EQ(snapshot.counter_or("svc_deadline_misses"),
            report.deadline_misses);
  const auto queue = snapshot.histograms.find("svc_queue_depth");
  ASSERT_NE(queue, snapshot.histograms.end());
  EXPECT_EQ(queue->second.count, report.horizon_slots);
}

// Golden values: the report of two fixed configs, pinned as hex-exact
// doubles. Any change to the service loop's arithmetic — table reuse,
// allocator shortcuts, quantile selection — must leave every bit here
// untouched; the perf gate only sees the quantized svc_* counters.
// The ramp (default 8 slots per level) caps most young sessions.
TEST(LoadServerGolden, ExponentialLoadReportIsPinned) {
  LoadServer server(small_config(0.8, sim::TrafficShape::kExponential));
  const LoadServiceReport report = server.run(1500);
  EXPECT_EQ(report.offered, 129u);
  EXPECT_EQ(report.admitted, 107u);
  EXPECT_EQ(report.degraded, 0u);
  EXPECT_EQ(report.rejected, 22u);
  EXPECT_EQ(report.completed_sessions, 107u);
  EXPECT_EQ(report.delay_samples, 13173u);
  EXPECT_EQ(report.deadline_misses, 0u);
  EXPECT_EQ(report.drain_slots, 414u);
  EXPECT_TRUE(report.slo_met);
  EXPECT_EQ(report.p99_delay_ms, 0x1.899b7e83d1c8fp+1);
  EXPECT_EQ(report.mean_delay_ms, 0x1.eeb9882c8c0dfp-1);
  EXPECT_EQ(report.mean_session_qoe, 0x1.8e09f23fc2868p+0);
  EXPECT_EQ(report.sustained_users, 0x1.2d18de5ab277fp+3);
  EXPECT_EQ(report.reject_rate, 0x1.5d457515d4575p-3);
}

// Degrade-heavy: a squeezed budget pins most sessions at level 1.
TEST(LoadServerGolden, DegradeHeavyReportIsPinned) {
  LoadServiceConfig config = small_config(1.5);
  config.capacity_users = 24;
  config.server_bandwidth_mbps = 180.0;
  LoadServer server(config);
  const LoadServiceReport report = server.run(2500);
  EXPECT_EQ(report.offered, 772u);
  EXPECT_EQ(report.admitted, 24u);
  EXPECT_EQ(report.degraded, 187u);
  EXPECT_EQ(report.rejected, 561u);
  EXPECT_EQ(report.completed_sessions, 211u);
  EXPECT_EQ(report.delay_samples, 26127u);
  EXPECT_EQ(report.deadline_misses, 0u);
  EXPECT_EQ(report.drain_slots, 257u);
  EXPECT_TRUE(report.slo_met);
  EXPECT_EQ(report.p99_delay_ms, 0x1.0cb9ba29ceb7bp+0);
  EXPECT_EQ(report.mean_delay_ms, 0x1.62f9c6ce79ddp-2);
  EXPECT_EQ(report.mean_session_qoe, 0x1.b2b53bf0f3a0fp-1);
  EXPECT_EQ(report.sustained_users, 0x1.5c5c28f5c28f6p+3);
  EXPECT_EQ(report.reject_rate, 0x1.740feac6f6b71p-1);
}

TEST(LoadServer, LowLoadMeetsTheSloAndDrains) {
  const LoadServiceConfig config = small_config(0.25);
  LoadServer server(config);
  const LoadServiceReport report = server.run(1500);
  EXPECT_GT(report.offered, 0u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_EQ(report.deadline_misses, 0u);
  EXPECT_TRUE(report.slo_met);
  EXPECT_TRUE(report.drained);
  EXPECT_GT(report.sustained_users, 0.0);
  EXPECT_GT(report.completed_sessions, 0u);
}

TEST(LoadServer, AdmissionFunnelAccountsForEveryOfferedSession) {
  for (const double load : {0.4, 1.0, 1.8}) {
    LoadServer server(small_config(load, sim::TrafficShape::kGamma));
    const LoadServiceReport report = server.run(1500);
    EXPECT_EQ(report.offered,
              report.admitted + report.degraded + report.rejected)
        << "at load " << load;
  }
}

TEST(LoadServer, RejectRateMonotoneInOfferedLoad) {
  double previous = -1.0;
  for (const double load : {0.4, 0.8, 1.2, 1.6, 2.4}) {
    LoadServer server(small_config(load));
    const LoadServiceReport report = server.run(2000);
    EXPECT_GE(report.reject_rate, previous) << "at load " << load;
    previous = report.reject_rate;
  }
  EXPECT_GT(previous, 0.0);  // the sweep must actually reach overload
}

TEST(LoadServer, CapacityAndQueueBoundsHold) {
  LoadServiceConfig config = small_config(2.5);
  config.max_queue_depth = 5;
  LoadServer server(config);
  const LoadServiceReport report = server.run(2000);
  EXPECT_LE(report.peak_active_users, config.capacity_users);
  EXPECT_LE(report.peak_queue_depth, config.max_queue_depth);
  EXPECT_GT(report.rejected, 0u);
}

// Squeeze the budget so the degrade band actually binds: B carries
// ~11 mandatory rates, the band starts around 9.
TEST(LoadServer, BandwidthPressureProducesDegradeAdmissions) {
  LoadServiceConfig config = small_config(1.5);
  config.capacity_users = 24;
  config.server_bandwidth_mbps = 180.0;
  LoadServer server(config);
  const LoadServiceReport report = server.run(2500);
  EXPECT_GT(report.degraded, 0u);
  EXPECT_GT(report.rejected, 0u);
}

TEST(LoadServer, ConnectSpeedPacesAdmissionsThroughTheQueue) {
  // A slow accept loop (~0.45 admissions/slot) under a burst-heavy
  // shape must leave visible queueing.
  LoadServiceConfig config = small_config(2.0, sim::TrafficShape::kPeaks);
  config.traffic.connect_speed = 30.0;
  LoadServer server(config);
  const LoadServiceReport report = server.run(2000);
  EXPECT_GT(report.peak_queue_depth, 0u);
}

TEST(LoadServer, ConfigValidation) {
  LoadServiceConfig bad = small_config();
  bad.capacity_users = 0;
  EXPECT_THROW(LoadServer{bad}, std::invalid_argument);
  bad = small_config();
  bad.server_bandwidth_mbps = 0.0;
  EXPECT_THROW(LoadServer{bad}, std::invalid_argument);
  bad = small_config();
  bad.user_bandwidth_jitter = 1.0;
  EXPECT_THROW(LoadServer{bad}, std::invalid_argument);
  bad = small_config();
  bad.delta_min = 0.9;
  bad.delta_max = 0.5;
  EXPECT_THROW(LoadServer{bad}, std::invalid_argument);
  bad = small_config();
  bad.allocator = "no-such-policy";
  EXPECT_THROW(LoadServer{bad}, std::invalid_argument);
  bad = small_config();
  bad.traffic.load = -1.0;
  EXPECT_THROW(LoadServer{bad}, std::invalid_argument);
}

TEST(LoadServer, RejectsAllocatorThreadsNamingTheField) {
  LoadServiceConfig bad = small_config();
  bad.allocator_threads = 2;
  try {
    LoadServer server(bad);
    ADD_FAILURE() << "allocator_threads = 2 was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what())
                  .rfind("LoadServiceConfig.allocator_threads:", 0),
              0u)
        << error.what();
  }
}

void expect_rejected_naming(const LoadServiceConfig& bad,
                            const std::string& prefix) {
  try {
    LoadServer server(bad);
    ADD_FAILURE() << prefix << " value was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()).rfind(prefix, 0), 0u) << error.what();
  }
}

TEST(LoadServer, RejectsBadQoeWeightsNamingTheField) {
  for (double value : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(), -0.1}) {
    LoadServiceConfig bad = small_config();
    bad.params.alpha = value;
    expect_rejected_naming(bad, "LoadServiceConfig.params.alpha:");
    bad = small_config();
    bad.params.beta = value;
    expect_rejected_naming(bad, "LoadServiceConfig.params.beta:");
  }
  LoadServiceConfig zero = small_config();
  zero.params = core::QoeParams{0.0, 0.0};
  EXPECT_NO_THROW(LoadServer{zero});
}

// The nearest-rank p99 over the full sample set, by selection — the
// reference the tail keeper must reproduce bit for bit.
double full_set_p99(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::size_t index = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(samples.size())));
  index = index == 0 ? 0 : index - 1;
  if (index >= samples.size()) index = samples.size() - 1;
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(index);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

TEST(NearestRankTail, MatchesTheFullSetWithHeavyTies) {
  for (std::size_t bound : {1u, 99u, 100u, 101u, 1000u, 12345u}) {
    const std::size_t tail = NearestRankTail::tail_size(bound);
    ASSERT_GE(tail, 1u);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, tail - 1, tail,
                          tail + 1, bound / 2, bound - 1, bound}) {
      if (n > bound) continue;
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        cvr::Rng rng(seed * 7919 + n);
        NearestRankTail keeper(bound);
        std::vector<double> all;
        for (std::size_t i = 0; i < n; ++i) {
          // Eight distinct values: ties everywhere, including at the rank.
          const double v = static_cast<double>(rng.uniform_int(0, 7)) * 0.5;
          keeper.add(v);
          all.push_back(v);
        }
        EXPECT_EQ(keeper.count(), n);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(keeper.quantile()),
                  std::bit_cast<std::uint64_t>(full_set_p99(all)))
            << "bound " << bound << " n " << n << " seed " << seed;
      }
    }
  }
}

TEST(NearestRankTail, MatchesTheFullSetOnDistinctValuesAtTheBound) {
  // Distinct values in random order: the kept tail must hold exactly the
  // samples ranked at or above the p99 when n equals the bound.
  constexpr std::size_t kBound = 5000;
  cvr::Rng rng(3);
  NearestRankTail keeper(kBound);
  std::vector<double> all;
  for (std::size_t i = 0; i < kBound; ++i) {
    const double v = rng.uniform(0.0, 100.0);
    keeper.add(v);
    all.push_back(v);
  }
  EXPECT_EQ(keeper.quantile(), full_set_p99(all));
}

TEST(NearestRankTail, RejectsMoreSamplesThanItsBound) {
  NearestRankTail keeper(3);
  for (int i = 0; i < 4; ++i) keeper.add(1.0);
  EXPECT_THROW(keeper.quantile(), std::logic_error);
}

TEST(LoadServer, PopulationAtCapacityFillsTheTailBound) {
  // Long sessions arriving far faster than they leave keep the server at
  // capacity_users for the whole post-warm-up window, so the window
  // holds exactly capacity_users * (slots - warmup_slots) samples: the
  // tail's bound is tight.
  // About 4 arrivals per slot (lambda = load * capacity / mean stay)
  // keep the accept queue non-empty, and a full queue refills every
  // departure before the next slot is served.
  LoadServiceConfig config = small_config(2000.0);
  config.capacity_users = 6;
  config.warmup_slots = 60;
  config.traffic.mean_session_slots = 3000.0;
  config.traffic.connect_speed = 1000.0;
  const std::size_t slots = 300;
  const LoadServiceReport report = LoadServer(config).run(slots);
  EXPECT_EQ(report.delay_samples,
            config.capacity_users * (slots - config.warmup_slots));
  EXPECT_GT(report.p99_delay_ms, 0.0);
  EXPECT_GE(report.p99_delay_ms, report.mean_delay_ms);
}

TEST(LoadServer, EmptyWindowReportsAZeroP99) {
  LoadServiceConfig config = small_config();
  config.warmup_slots = 400;
  for (std::size_t slots : {std::size_t{400}, std::size_t{250}}) {
    LoadServiceReport report;
    EXPECT_NO_THROW(report = LoadServer(config).run(slots));
    EXPECT_EQ(report.delay_samples, 0u);
    EXPECT_EQ(report.p99_delay_ms, 0.0);
    EXPECT_EQ(report.mean_delay_ms, 0.0);
  }
}

}  // namespace
}  // namespace cvr::system
