#include "src/telemetry/telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "src/experiments/ensemble.h"
#include "src/report/report.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace cvr::telemetry {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry: histograms

TEST(Metrics, ExponentialEdgesAreGeometric) {
  const auto edges = exponential_edges(1.0, 2.0, 5);
  ASSERT_EQ(edges.size(), 5u);
  EXPECT_DOUBLE_EQ(edges[0], 1.0);
  EXPECT_DOUBLE_EQ(edges[1], 2.0);
  EXPECT_DOUBLE_EQ(edges[4], 16.0);
}

TEST(Metrics, HistogramBucketEdges) {
  MetricsRegistry registry;
  // Buckets: (-inf,1), [1,10), [10,100), [100,+inf).
  const auto id = registry.histogram("h", {1.0, 10.0, 100.0});
  registry.record(id, 0.5);    // underflow
  registry.record(id, 1.0);    // exactly on an edge -> second bucket
  registry.record(id, 9.99);   // second bucket
  registry.record(id, 10.0);   // third bucket
  registry.record(id, 1000.0); // overflow
  const auto snapshot = registry.snapshot();
  const HistogramData& h = snapshot.histograms.at("h");
  ASSERT_EQ(h.counts.size(), 4u);  // edges + 1
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[1], 2u);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_EQ(h.counts[3], 1u);
  EXPECT_EQ(h.count, 5u);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 1000.0);
  EXPECT_DOUBLE_EQ(h.sum, 0.5 + 1.0 + 9.99 + 10.0 + 1000.0);
}

TEST(Metrics, HistogramQuantilesAreOrderedAndBounded) {
  MetricsRegistry registry;
  const auto id = registry.histogram("h", default_duration_edges_us());
  for (int i = 1; i <= 1000; ++i) registry.record(id, static_cast<double>(i));
  const auto snapshot = registry.snapshot();
  const HistogramData& h = snapshot.histograms.at("h");
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, h.min);
  EXPECT_LE(p99, h.max);
  // Geometric buckets give coarse quantiles; half an octave is plenty.
  EXPECT_NEAR(p50, 500.0, 300.0);
}

// A rank between one bucket's last sample and the next bucket's first
// (here p = 0.6 -> rank 2.4, between buckets holding ranks 0-2 and 3-4)
// must not interpolate backwards from the next bucket's lower edge.
TEST(Metrics, HistogramQuantileIsMonotoneAcrossBucketGaps) {
  HistogramData h;
  h.edges = {1.0, 2.0, 4.0};
  h.counts = {0, 3, 2, 0};
  h.count = 5;
  h.min = 1.0;
  h.max = 3.5;
  double previous = h.quantile(0.0);
  for (int i = 1; i <= 100; ++i) {
    const double p = i / 100.0;
    const double q = h.quantile(p);
    EXPECT_LE(previous, q) << "p = " << p;
    previous = q;
  }
}

TEST(Metrics, HistogramRejectsBadEdges) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.histogram("empty", {}), std::invalid_argument);
  EXPECT_THROW(registry.histogram("unsorted", {2.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(registry.histogram("dupes", {1.0, 1.0}),
               std::invalid_argument);
}

TEST(Metrics, ReregisteringSameNameReturnsSameId) {
  MetricsRegistry registry;
  const auto a = registry.counter("c");
  const auto b = registry.counter("c");
  registry.add(a, 2);
  registry.add(b, 3);
  EXPECT_EQ(registry.snapshot().counter_or("c"), 5u);
}

// ---------------------------------------------------------------------------
// MetricsRegistry: cross-thread merge

TEST(Metrics, CounterMergeAcrossThreadsEqualsSerialTotal) {
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  MetricsRegistry registry;
  const auto id = registry.counter("hits");
  const auto hist = registry.histogram("lat", {1.0, 10.0, 100.0});
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&registry, id, hist] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        registry.add(id, 1);
        registry.record(hist, 5.0);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter_or("hits"), kThreads * kPerThread);
  const HistogramData& h = snapshot.histograms.at("lat");
  EXPECT_EQ(h.count, kThreads * kPerThread);
  EXPECT_EQ(h.counts[1], kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(h.sum, 5.0 * static_cast<double>(kThreads * kPerThread));
}

// ---------------------------------------------------------------------------
// TraceBuffer

TEST(Trace, JsonGolden) {
  TraceBuffer buffer;
  buffer.set_process_name(0, "server");
  buffer.set_thread_name(0, 4, "alloc_solve");
  TraceEvent event;
  event.pid = 0;
  event.tid = 4;
  event.name = "alloc_solve";
  event.ts_us = 1.5;
  event.dur_us = 2.25;
  event.slot = 7;
  buffer.add(event);
  const std::string expected =
      "{\"traceEvents\":["
      "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"server\"}},\n"
      "{\"ph\":\"M\",\"pid\":0,\"tid\":4,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"alloc_solve\"}},\n"
      "{\"ph\":\"X\",\"pid\":0,\"tid\":4,\"name\":\"alloc_solve\","
      "\"cat\":\"phase\",\"ts\":1.500,\"dur\":2.250,"
      "\"args\":{\"slot\":7}}"
      "],\"displayTimeUnit\":\"ms\"}\n";
  EXPECT_EQ(buffer.to_json(), expected);
}

TEST(Trace, AppendShiftsPidsAndPrefixesProcesses) {
  TraceBuffer arm;
  arm.set_process_name(0, "server");
  TraceEvent event;
  event.pid = 1;
  event.name = "decode";
  arm.add(event);

  TraceBuffer merged;
  merged.append(arm, 10, "dv");
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged.events()[0].pid, 11u);
  EXPECT_NE(merged.to_json().find("\"dv/server\""), std::string::npos);
}

TEST(Trace, JsonEscapesSpecials) {
  TraceBuffer buffer;
  buffer.set_process_name(0, "a\"b\\c");
  const std::string json = buffer.to_json();
  EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Collector + spans

TEST(Collector, OffModeCollectsNothing) {
  Collector collector(Mode::kOff, nullptr);
  EXPECT_FALSE(collector.counting());
  collector.count(Counter::kSlots);  // must be a harmless no-op
  { PhaseSpan span(&collector, Phase::kSlot, 0, 1); }
  { PhaseSpan span(nullptr, Phase::kSlot, 0, 1); }
}

TEST(Collector, NonOffModeRequiresRegistry) {
  EXPECT_THROW(Collector(Mode::kCounters, nullptr), std::invalid_argument);
  EXPECT_THROW(Collector(Mode::kTrace, nullptr), std::invalid_argument);
}

TEST(Collector, SpansAndCountersLandInRegistry) {
  MetricsRegistry registry;
  TraceBuffer trace;
  Collector collector(Mode::kTrace, &registry, &trace);
  { PhaseSpan span(&collector, Phase::kAllocSolve, 0, 3); }
  collector.count(Counter::kSlots);
  collector.count_allocation({1, 3, 2});  // raises = 0 + 2 + 1
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.histograms.at("phase_alloc_solve_us").count, 1u);
  EXPECT_EQ(snapshot.counter_or("slots_processed"), 1u);
  EXPECT_EQ(snapshot.counter_or("alloc_invocations"), 1u);
  EXPECT_EQ(snapshot.counter_or("alloc_iterations"), 3u);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.events()[0].name, "alloc_solve");
  EXPECT_EQ(trace.events()[0].slot, 3);
}

TEST(Collector, ParseModeRoundTripsAndThrows) {
  EXPECT_EQ(parse_mode("off"), Mode::kOff);
  EXPECT_EQ(parse_mode("counters"), Mode::kCounters);
  EXPECT_EQ(parse_mode("trace"), Mode::kTrace);
  EXPECT_THROW(parse_mode("verbose"), std::invalid_argument);
  EXPECT_STREQ(mode_name(Mode::kCounters), "counters");
}

// ---------------------------------------------------------------------------
// Ensemble integration: the determinism guard

experiments::EnsembleSpec guard_spec(experiments::EnsembleSpec::Platform p) {
  experiments::EnsembleSpec spec;
  spec.platform = p;
  spec.users = 3;
  spec.slots = 120;
  spec.repeats = 2;
  spec.algorithms = {"dv", "firefly"};
  return spec;
}

void expect_bitwise_equal(const std::vector<sim::ArmResult>& a,
                          const std::vector<sim::ArmResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t arm = 0; arm < a.size(); ++arm) {
    ASSERT_EQ(a[arm].outcomes.size(), b[arm].outcomes.size());
    for (std::size_t i = 0; i < a[arm].outcomes.size(); ++i) {
      const auto& x = a[arm].outcomes[i];
      const auto& y = b[arm].outcomes[i];
      EXPECT_EQ(x.avg_qoe, y.avg_qoe);
      EXPECT_EQ(x.avg_quality, y.avg_quality);
      EXPECT_EQ(x.avg_level, y.avg_level);
      EXPECT_EQ(x.avg_delay_ms, y.avg_delay_ms);
      EXPECT_EQ(x.variance, y.variance);
      EXPECT_EQ(x.prediction_accuracy, y.prediction_accuracy);
      EXPECT_EQ(x.fps, y.fps);
    }
  }
}

TEST(TelemetryGuard, TracePlatformOutcomesIdenticalAcrossModes) {
  auto spec = guard_spec(experiments::EnsembleSpec::Platform::kTrace);
  const auto off = experiments::run_ensemble(spec);
  spec.telemetry = Mode::kCounters;
  const auto counters = experiments::run_ensemble(spec);
  spec.telemetry = Mode::kTrace;
  const auto traced = experiments::run_ensemble(spec);
  expect_bitwise_equal(off, counters);
  expect_bitwise_equal(off, traced);
}

TEST(TelemetryGuard, SystemPlatformOutcomesIdenticalAcrossModes) {
  auto spec = guard_spec(experiments::EnsembleSpec::Platform::kSystem);
  const auto off = experiments::run_ensemble(spec);
  spec.telemetry = Mode::kTrace;
  const auto traced = experiments::run_ensemble(spec);
  expect_bitwise_equal(off, traced);
}

TEST(TelemetryGuard, ParallelCountersMatchSerial) {
  auto spec = guard_spec(experiments::EnsembleSpec::Platform::kTrace);
  spec.telemetry = Mode::kCounters;
  const auto serial = experiments::run_ensemble_with_perf(spec);
  spec.threads = 4;
  const auto parallel = experiments::run_ensemble_with_perf(spec);
  expect_bitwise_equal(serial.arms, parallel.arms);
  ASSERT_EQ(serial.perf.arms.size(), parallel.perf.arms.size());
  for (std::size_t a = 0; a < serial.perf.arms.size(); ++a) {
    // Counters are exact event counts, so thread scheduling must not
    // change them (durations legitimately differ).
    EXPECT_EQ(serial.perf.arms[a].snapshot.counters,
              parallel.perf.arms[a].snapshot.counters);
  }
}

// ---------------------------------------------------------------------------
// Ensemble integration: perf report and trace file

TEST(TelemetryPerf, ReportCarriesPhasesAndSaneQuantiles) {
  auto spec = guard_spec(experiments::EnsembleSpec::Platform::kSystem);
  spec.telemetry = Mode::kCounters;
  const auto run = experiments::run_ensemble_with_perf(spec);
  ASSERT_EQ(run.perf.arms.size(), 2u);
  const ArmPerf& arm = run.perf.arms[0];
  EXPECT_EQ(arm.algorithm, "dv-greedy");
  EXPECT_EQ(arm.slots, spec.slots * spec.repeats);
  EXPECT_EQ(arm.alloc_invocations, spec.slots * spec.repeats);
  EXPECT_GT(arm.alloc_iterations, 0u);
  ASSERT_FALSE(arm.phases.empty());
  for (const PhasePerf& phase : arm.phases) {
    EXPECT_GT(phase.count, 0u);
    EXPECT_LE(phase.p50_us, phase.p95_us);
    EXPECT_LE(phase.p95_us, phase.p99_us);
  }
  const std::string json = perf_report_json(run.perf, "test");
  EXPECT_NE(json.find("\"schema\": \"cvr-bench-perf-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"phase\": \"alloc_solve\""), std::string::npos);
}

TEST(TelemetryPerf, OffModeYieldsEmptyPerf) {
  const auto run = experiments::run_ensemble_with_perf(
      guard_spec(experiments::EnsembleSpec::Platform::kTrace));
  EXPECT_TRUE(run.perf.empty());
}

TEST(TelemetryPerf, TraceOutWritesLoadableJson) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "cvr_telemetry_trace.json")
          .string();
  auto spec = guard_spec(experiments::EnsembleSpec::Platform::kTrace);
  spec.telemetry = Mode::kTrace;
  spec.trace_out = path;
  experiments::run_ensemble(spec);

  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream content;
  content << file.rdbuf();
  const std::string json = content.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Both arms present as prefixed process groups.
  EXPECT_NE(json.find("\"dv-greedy/server\""), std::string::npos);
  EXPECT_NE(json.find("\"firefly-aqc/server\""), std::string::npos);
  // Balanced-delimiters smoke check of JSON well-formedness.
  std::int64_t braces = 0;
  std::int64_t brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  std::filesystem::remove(path);
}

TEST(TelemetryPerf, TraceOutWithoutTraceModeThrows) {
  auto spec = guard_spec(experiments::EnsembleSpec::Platform::kTrace);
  spec.telemetry = Mode::kCounters;
  spec.trace_out = "/tmp/never_written.json";
  EXPECT_THROW(experiments::run_ensemble(spec), std::invalid_argument);
}

TEST(TelemetryPerf, PerfCsvWritten) {
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "cvr_telemetry_report")
          .string();
  auto spec = guard_spec(experiments::EnsembleSpec::Platform::kTrace);
  spec.telemetry = Mode::kCounters;
  spec.report_prefix = prefix;
  experiments::run_ensemble_with_perf(spec);
  std::ifstream file(prefix + "_perf.csv");
  ASSERT_TRUE(file.good());
  std::string header;
  std::getline(file, header);
  EXPECT_EQ(header.rfind("arm,algorithm,slots,", 0), 0u);
  std::string first_row;
  std::getline(file, first_row);
  EXPECT_NE(first_row.find("dv-greedy"), std::string::npos);
  for (const char* suffix :
       {"_outcomes.csv", "_cdf_qoe.csv", "_cdf_quality.csv",
        "_cdf_delay_ms.csv", "_cdf_variance.csv", "_timing.csv",
        "_perf.csv"}) {
    std::filesystem::remove(prefix + suffix);
  }
}

}  // namespace
}  // namespace cvr::telemetry
