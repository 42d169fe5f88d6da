// Online estimators used by the real system (Section V):
//
// * "We estimate the available bandwidth for each user using Exponential
//   Moving Average (EMA)" — EmaThroughputEstimator.
// * "we use polynomial regression to predict the delay instead of linear
//   regression" — DelayPredictor, a degree-2 fit of measured delay vs
//   sent rate, with the analytic M/M/1 curve as a cold-start fallback.
//
// Both estimators are hardened against hostile measurements: a
// non-finite sample is discarded and a negative one clamps to zero, so
// a single corrupt report can never poison the estimate (observe() used
// to throw, which turned one bad packet into a crashed server loop).
// apply_stale_hold() is the companion policy for *missing* measurements
// — hold the last estimate briefly, then decay it toward a conservative
// re-probe floor (docs/resilience.md).
#pragma once

#include <cstddef>

#include "src/util/regression.h"

namespace cvr::net {

class EmaThroughputEstimator {
 public:
  /// Throws std::invalid_argument on an alpha outside (0, 1] or a
  /// non-finite or negative initial estimate.
  explicit EmaThroughputEstimator(double alpha = 0.2, double initial_mbps = 40.0);

  /// Records the throughput observed in the last slot (Mbps).
  /// Non-finite samples are ignored (not counted); negative ones clamp
  /// to 0.
  void observe(double mbps);

  double estimate_mbps() const { return value_; }
  std::size_t observations() const { return count_; }

  /// Restores EMA state from a migration handoff frame
  /// (proto::UserHandoff): the carried estimate becomes the current
  /// value and the observation count resumes where the source server
  /// left off. Throws std::invalid_argument on a non-finite or negative
  /// estimate.
  void restore(double mbps, std::size_t count);

 private:
  double alpha_;
  double value_;
  std::size_t count_ = 0;
};

class DelayPredictor {
 public:
  /// `history`: how many (rate, delay) samples the regression retains.
  explicit DelayPredictor(std::size_t history = 256);

  /// Records a measured delivery delay (ms) for a slot where `rate_mbps`
  /// was sent. A sample with a non-finite rate or delay is ignored;
  /// negative components clamp to 0.
  void observe(double rate_mbps, double delay_ms);

  /// Predicted delay (ms) of sending at `rate_mbps` given an estimated
  /// link bandwidth `bandwidth_mbps` (used only for the cold-start
  /// analytic fallback). Never negative.
  double predict_ms(double rate_mbps, double bandwidth_mbps);

  bool trained() const;

 private:
  cvr::PolynomialRegressor poly_;
};

/// Stale-estimate policy: what an estimate is worth after `silent_slots`
/// slots without a fresh measurement. The estimate is held as-is for
/// `hold_slots` (measurement gaps of a few slots are normal), then
/// decays exponentially toward `floor_mbps` — the conservative rate the
/// server re-probes at once the silence ends, so a user coming back
/// from an outage ramps up instead of slamming a possibly-degraded link
/// with a pre-outage estimate.
struct StaleHoldConfig {
  std::size_t hold_slots = 33;   ///< ~0.5 s at 66 FPS.
  double decay_per_slot = 0.93;  ///< Estimate halves every ~10 slots.
  double floor_mbps = 1.0;       ///< Re-probe rate; never decays below.
};

/// Pure: estimate after the hold-then-decay policy. Returns the
/// estimate unchanged while silent_slots <= hold_slots; never returns
/// less than min(estimate, floor).
double apply_stale_hold(double estimate_mbps, std::size_t silent_slots,
                        const StaleHoldConfig& config);

/// Active bandwidth probing (docs/workloads.md): the speedtest-style
/// estimator arm. A passive EMA only sees the rate the allocator chose
/// to send — after an outage it can stay pessimistic for a long time
/// because low estimates beget low demands beget low measurements. A
/// periodic probe saturates a configured slice of the link on purpose,
/// measuring real headroom at the price of *consuming* that slice of
/// the slot budget (cf. the OBS BandwidthTestManager pattern,
/// SNIPPETS.md Snippet 1).
struct ProbingConfig {
  /// A probe fires on slots where slot % probe_period_slots == 0 (and
  /// slot > 0): once a second at the 66-FPS slot rate by default.
  std::size_t probe_period_slots = 66;
  /// Fraction of the current estimate a probe tries to consume.
  double probe_fraction = 0.25;
  /// Hard cap on the probe traffic (Mbps) regardless of the estimate.
  double probe_cap_mbps = 20.0;
  /// EMA weight of ordinary per-slot measurements.
  double alpha_passive = 0.2;
  /// EMA weight of probe-slot measurements: probes saturate the link,
  /// so their samples are trusted much more.
  double alpha_probe = 0.6;
  double initial_mbps = 40.0;
};

/// Throws std::invalid_argument on probe_period_slots == 0, alphas
/// outside (0, 1], probe_fraction outside [0, 1], or a negative/
/// non-finite probe_cap_mbps or initial_mbps.
void validate(const ProbingConfig& config);

/// Exact split of a slot budget into the content and probe portions.
/// probe_mbps = min(total, requested probe) and content_mbps is
/// bit-exactly total - probe_mbps, so the accounting conserves the
/// budget exactly (property: net.probing_estimator_sane).
struct BudgetSplit {
  double content_mbps = 0.0;
  double probe_mbps = 0.0;
};
BudgetSplit split_probe_budget(double total_mbps, double probe_mbps);

/// The probing estimator arm, registered beside EmaThroughputEstimator
/// (system::EstimatorArm selects between them). Hardened the same way:
/// non-finite samples are discarded, negative ones clamp to zero, and
/// the estimate is never negative or non-finite.
class ProbingThroughputEstimator {
 public:
  explicit ProbingThroughputEstimator(ProbingConfig config = {});

  /// Whether slot `slot` is a probe slot (pure; slot 0 never probes —
  /// the estimator has nothing but its prior to size the probe with).
  bool probe_due(std::size_t slot) const;

  /// Probe traffic (Mbps) the next probe wants: min(cap, fraction *
  /// estimate). Never negative or non-finite.
  double probe_budget_mbps() const;

  /// Records the throughput observed in an ordinary slot (Mbps).
  void observe_passive(double mbps);

  /// Records the throughput observed in a probe slot (Mbps) — same
  /// hardening, heavier EMA weight.
  void observe_probe(double mbps);

  double estimate_mbps() const { return value_; }
  std::size_t observations() const { return count_; }
  std::size_t probes() const { return probe_count_; }

  /// Restores state from a migration handoff frame (see
  /// EmaThroughputEstimator::restore). Throws std::invalid_argument on
  /// a non-finite or negative estimate.
  void restore(double mbps, std::size_t count);

 private:
  void observe(double mbps, double alpha);

  ProbingConfig config_;
  double value_;
  std::size_t count_ = 0;
  std::size_t probe_count_ = 0;
};

}  // namespace cvr::net
