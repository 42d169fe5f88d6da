#include "src/core/qoe.h"

#include <stdexcept>

namespace cvr::core {

UserSlotContext UserSlotContext::from_rate_function(
    const content::RateFunction& f, double user_bandwidth, double delta,
    double qbar, double slot) {
  UserSlotContext ctx;
  ctx.set_history(delta, qbar, slot);
  ctx.user_bandwidth = user_bandwidth;
  for (QualityLevel q = 1; q <= kNumQualityLevels; ++q) {
    const auto idx = static_cast<std::size_t>(q - 1);
    const double r = f.rate(q);
    ctx.rate[idx] = r;
    ctx.delay[idx] = net::mm1_delay(r, user_bandwidth);
  }
  return ctx;
}

double h_value(const UserSlotContext& user, QualityLevel q,
               const QoeParams& params) {
  if (!content::is_valid_level(q)) {
    throw std::out_of_range("h_value: invalid quality level");
  }
  return detail::h_value_unchecked(user, q, params);
}

double h_increment(const UserSlotContext& user, QualityLevel q,
                   const QoeParams& params) {
  return h_value(user, q + 1, params) - h_value(user, q, params);
}

bool h_is_concave(const UserSlotContext& user, const QoeParams& params) {
  // Highest selectable level under constraint (7).
  QualityLevel max_level = 1;
  for (QualityLevel q = 2; q <= kNumQualityLevels; ++q) {
    if (user.rate[static_cast<std::size_t>(q - 1)] >
        user.user_bandwidth + kFeasibilityEpsilon) {
      break;
    }
    max_level = q;
  }
  if (max_level < 3) return true;  // fewer than two increments
  double prev_increment = h_increment(user, 1, params);
  for (QualityLevel q = 2; q < max_level; ++q) {
    const double increment = h_increment(user, q, params);
    if (increment > prev_increment + 1e-9) return false;
    prev_increment = increment;
  }
  return true;
}

double h_density(const UserSlotContext& user, QualityLevel q,
                 const QoeParams& params) {
  const double dr = user.rate[static_cast<std::size_t>(q)] -
                    user.rate[static_cast<std::size_t>(q - 1)];
  if (dr <= 0.0) {
    throw std::logic_error("h_density: rates must be strictly increasing");
  }
  return h_increment(user, q, params) / dr;
}

void UserQoeAccumulator::record(QualityLevel q, bool viewed, double delay) {
  record_displayed(q, viewed ? static_cast<double>(q) : 0.0, delay);
}

void UserQoeAccumulator::record_displayed(QualityLevel chosen,
                                          double displayed_quality,
                                          double delay) {
  if (!content::is_valid_level(chosen)) {
    throw std::out_of_range("UserQoeAccumulator: invalid level");
  }
  if (displayed_quality < 0.0 ||
      displayed_quality > static_cast<double>(kNumQualityLevels)) {
    throw std::invalid_argument("UserQoeAccumulator: bad displayed quality");
  }
  if (delay < 0.0) {
    throw std::invalid_argument("UserQoeAccumulator: negative delay");
  }
  ++slots_;
  level_sum_ += static_cast<double>(chosen);
  quality_sum_ += displayed_quality;
  const double d1 = displayed_quality - quality_mean_;
  quality_mean_ += d1 / static_cast<double>(slots_);
  quality_m2_ += d1 * (displayed_quality - quality_mean_);
  delay_sum_ += delay;
}

double UserQoeAccumulator::mean_viewed_quality() const {
  return slots_ == 0 ? 0.0 : quality_sum_ / static_cast<double>(slots_);
}

double UserQoeAccumulator::mean_level() const {
  return slots_ == 0 ? 0.0 : level_sum_ / static_cast<double>(slots_);
}

double UserQoeAccumulator::mean_delay() const {
  return slots_ == 0 ? 0.0 : delay_sum_ / static_cast<double>(slots_);
}

double UserQoeAccumulator::variance() const {
  return slots_ == 0 ? 0.0 : quality_m2_ / static_cast<double>(slots_);
}

double UserQoeAccumulator::average_qoe(const QoeParams& params) const {
  if (slots_ == 0) return 0.0;
  return mean_viewed_quality() - params.alpha * mean_delay() -
         params.beta * variance();
}

}  // namespace cvr::core
