// The Section-IV trace-based simulation platform.
//
// Per run: N users each replay a synthetic 6-DoF motion trace and a
// network trace (half FCC-style, half LTE-style). Each slot t:
//   1. the server predicts each user's pose one slot ahead by per-axis
//      linear regression and picks the content cell for it;
//   2. the slot problem (5)-(7) is built — rates from the content DB's
//      convex rate function, delays from the analytic M/M/1 model
//      (Section IV assumes perfect knowledge of delay and throughput),
//      delta from the online accuracy estimate, qbar from realized
//      history;
//   3. the allocator under test picks quality levels;
//   4. the outcome is realized: 1_n(t) = FoV-coverage of the prediction,
//      QoE bookkeeping via the exact Welford recurrence.
// B(t) = 36 Mbps x N ("respects the average rate requirement of the
// tiles by a medium quality level").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/content/content_db.h"
#include "src/content/hevc_process.h"
#include "src/core/allocator.h"
#include "src/motion/accuracy.h"
#include "src/motion/fov.h"
#include "src/motion/margin_controller.h"
#include "src/motion/motion_generator.h"
#include "src/motion/predictor.h"
#include "src/sim/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/trace/trace_repository.h"

namespace cvr::sim {

struct TraceSimConfig {
  std::size_t users = 5;
  std::size_t slots = 1980;  ///< 30 s at 66 FPS; the paper runs 300 s.
  double server_mbps_per_user = 36.0;
  core::QoeParams params{0.02, 0.5};  ///< Section IV values.
  std::uint64_t seed = 7;
  motion::FovSpec fov;
  motion::PredictorConfig predictor;
  /// Which prediction model to run (Section II: any model plugs in).
  motion::PredictorKind predictor_kind =
      motion::PredictorKind::kLinearRegression;
  /// The delivered-portion size scales with the margin: rates are
  /// multiplied by delivered_panorama_fraction(fov) relative to this
  /// reference margin, so widening the margin genuinely costs bandwidth
  /// (Section II's margin/bandwidth trade).
  double reference_margin_deg = 15.0;
  /// Adaptive-margin extension: per-user MarginController drives the
  /// delivered margin from the online delta estimate.
  bool adaptive_margin = false;
  motion::MarginControllerConfig margin_controller;
  motion::MotionGeneratorConfig motion;
  content::ContentDbConfig content;
  /// HEVC frame-size process (docs/workloads.md): when enabled, each
  /// user's per-slot rate function is scaled by their realized
  /// I/P-frame size multiplier instead of the smooth CRF point
  /// estimate. Off by default — bit-identical to the smooth model.
  content::HevcProcessConfig hevc;
  /// The paper's motion dataset spans "two large VR scenes"; users are
  /// assigned scene u % scenes, each scene being an independently seeded
  /// content database (different per-cell rate functions).
  std::size_t scenes = 2;
};

/// Per-(slot, user) record of a trace-simulation run — the platform's
/// flight recorder (see system::Timeline for the system-side analogue).
struct TraceSlotRecord {
  std::size_t slot = 0;
  std::size_t user = 0;
  core::QualityLevel level = 1;
  double bandwidth_mbps = 0.0;  ///< True B_n(t) (perfect knowledge).
  double rate_mbps = 0.0;       ///< f(q) of the chosen level.
  double delay_ms = 0.0;        ///< Realized eq. (13) delay.
  bool hit = false;             ///< 1_n(t).
  double delta_estimate = 0.0;  ///< delta_bar fed to the allocator.
  double qbar = 0.0;            ///< Running viewed-quality mean fed in.
};

class TraceSimulation {
 public:
  TraceSimulation(TraceSimConfig config,
                  const trace::TraceRepository& repository);

  /// Runs one allocator over run index `run` (fresh allocator state);
  /// returns one outcome per user. When `log` is non-null, appends one
  /// TraceSlotRecord per (slot, user). When `telemetry` is non-null (and
  /// not kOff), per-slot phase timings and counters are recorded —
  /// measurement metadata only, never part of the outcome: results are
  /// bit-identical for every telemetry mode (docs/observability.md).
  std::vector<UserOutcome> run(core::Allocator& allocator, std::size_t run,
                               std::vector<TraceSlotRecord>* log = nullptr,
                               telemetry::Collector* telemetry = nullptr)
      const;

  /// Runs several allocators over `runs` independent runs each; all arms
  /// see identical motion and network traces. Outcomes are pooled
  /// run-major for CDFs, exactly the Figs. 2/3 sample set.
  std::vector<ArmResult> compare(
      const std::vector<core::Allocator*>& allocators, std::size_t runs) const;

  const TraceSimConfig& config() const { return config_; }

 private:
  TraceSimConfig config_;
  const trace::TraceRepository* repository_;
  std::vector<content::ContentDb> scenes_;
  motion::MotionGenerator motion_generator_;
};

}  // namespace cvr::sim
