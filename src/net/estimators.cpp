#include "src/net/estimators.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/net/mm1.h"
#include "src/util/units.h"

namespace cvr::net {

EmaThroughputEstimator::EmaThroughputEstimator(double alpha,
                                               double initial_mbps)
    : alpha_(alpha), value_(initial_mbps) {
  if (!(alpha > 0.0 && alpha <= 1.0)) {  // also rejects NaN
    throw std::invalid_argument("EmaThroughputEstimator: alpha out of (0,1]");
  }
  // A NaN start never leaves the EMA: value += alpha * (sample - value).
  if (!std::isfinite(initial_mbps) || initial_mbps < 0.0) {
    throw std::invalid_argument(
        "EmaThroughputEstimator: initial_mbps must be finite and "
        "non-negative");
  }
}

void EmaThroughputEstimator::observe(double mbps) {
  if (!std::isfinite(mbps)) return;  // a corrupt measurement is no measurement
  const double sample = std::max(0.0, mbps);
  value_ += alpha_ * (sample - value_);
  ++count_;
}

void EmaThroughputEstimator::restore(double mbps, std::size_t count) {
  if (!std::isfinite(mbps) || mbps < 0.0) {
    throw std::invalid_argument("EmaThroughputEstimator: invalid restore");
  }
  value_ = mbps;
  count_ = count;
}

DelayPredictor::DelayPredictor(std::size_t history) : poly_(2, history) {}

void DelayPredictor::observe(double rate_mbps, double delay_ms) {
  if (!std::isfinite(rate_mbps) || !std::isfinite(delay_ms)) return;
  poly_.add(std::max(0.0, rate_mbps), std::max(0.0, delay_ms));
}

double DelayPredictor::predict_ms(double rate_mbps, double bandwidth_mbps) {
  if (!trained()) {
    // Cold start: analytic M/M/1 in slot-delay units scaled to ms.
    return mm1_delay(rate_mbps, bandwidth_mbps) * cvr::kSlotMillis;
  }
  return std::max(0.0, poly_.predict(rate_mbps));
}

bool DelayPredictor::trained() const {
  return poly_.size() >= 8;  // enough samples for a stable quadratic
}

void validate(const ProbingConfig& config) {
  if (config.probe_period_slots == 0) {
    throw std::invalid_argument("ProbingConfig: zero probe_period_slots");
  }
  auto good_alpha = [](double a) {
    return std::isfinite(a) && a > 0.0 && a <= 1.0;
  };
  if (!good_alpha(config.alpha_passive) || !good_alpha(config.alpha_probe)) {
    throw std::invalid_argument("ProbingConfig: alpha outside (0,1]");
  }
  if (!std::isfinite(config.probe_fraction) || config.probe_fraction < 0.0 ||
      config.probe_fraction > 1.0) {
    throw std::invalid_argument("ProbingConfig: probe_fraction outside [0,1]");
  }
  if (!std::isfinite(config.probe_cap_mbps) || config.probe_cap_mbps < 0.0) {
    throw std::invalid_argument("ProbingConfig: bad probe_cap_mbps");
  }
  if (!std::isfinite(config.initial_mbps) || config.initial_mbps < 0.0) {
    throw std::invalid_argument("ProbingConfig: bad initial_mbps");
  }
}

BudgetSplit split_probe_budget(double total_mbps, double probe_mbps) {
  BudgetSplit split;
  const double total = std::max(0.0, total_mbps);
  split.probe_mbps = std::clamp(probe_mbps, 0.0, total);
  // Bit-exact remainder: content is *defined* as total - probe, so
  // the two portions always account for the whole budget.
  split.content_mbps = total - split.probe_mbps;
  return split;
}

ProbingThroughputEstimator::ProbingThroughputEstimator(ProbingConfig config)
    : config_(config), value_(config.initial_mbps) {
  validate(config_);
}

bool ProbingThroughputEstimator::probe_due(std::size_t slot) const {
  return slot > 0 && slot % config_.probe_period_slots == 0;
}

double ProbingThroughputEstimator::probe_budget_mbps() const {
  return std::min(config_.probe_cap_mbps, config_.probe_fraction * value_);
}

void ProbingThroughputEstimator::observe(double mbps, double alpha) {
  if (!std::isfinite(mbps)) return;  // a corrupt measurement is no measurement
  const double sample = std::max(0.0, mbps);
  value_ += alpha * (sample - value_);
  ++count_;
}

void ProbingThroughputEstimator::observe_passive(double mbps) {
  observe(mbps, config_.alpha_passive);
}

void ProbingThroughputEstimator::observe_probe(double mbps) {
  observe(mbps, config_.alpha_probe);
  ++probe_count_;
}

void ProbingThroughputEstimator::restore(double mbps, std::size_t count) {
  if (!std::isfinite(mbps) || mbps < 0.0) {
    throw std::invalid_argument("ProbingThroughputEstimator: invalid restore");
  }
  value_ = mbps;
  count_ = count;
}

double apply_stale_hold(double estimate_mbps, std::size_t silent_slots,
                        const StaleHoldConfig& config) {
  if (silent_slots <= config.hold_slots) return estimate_mbps;
  const double decayed =
      estimate_mbps *
      std::pow(config.decay_per_slot,
               static_cast<double>(silent_slots - config.hold_slots));
  return std::max(std::min(estimate_mbps, config.floor_mbps), decayed);
}

}  // namespace cvr::net
