#include "src/net/wireless_channel.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace cvr::net {

FadingProcess::FadingProcess(const WirelessChannelConfig& config,
                             std::uint64_t seed)
    : config_(config), rng_(seed) {}

double FadingProcess::step() {
  const double rho = config_.fading_rho;
  const double innovation_sigma =
      config_.fading_sigma * std::sqrt(std::max(0.0, 1.0 - rho * rho));
  log_state_ = rho * log_state_ + rng_.normal(0.0, innovation_sigma);
  // Centre the multiplier near 1 with a mild cap on upside (an air link
  // rarely beats its shaped rate by much).
  multiplier_ = std::min(1.3, std::exp(log_state_));
  return multiplier_;
}

Router::Router(double aggregate_mbps, std::vector<double> user_throttles_mbps,
               WirelessChannelConfig config, std::uint64_t seed)
    : aggregate_(aggregate_mbps),
      throttles_(std::move(user_throttles_mbps)),
      config_(config),
      rng_(seed ^ 0xB07E4ull) {
  if (aggregate_ <= 0.0) throw std::invalid_argument("Router: bad aggregate");
  if (throttles_.empty()) throw std::invalid_argument("Router: no users");
  for (double t : throttles_) {
    if (t <= 0.0) throw std::invalid_argument("Router: bad throttle");
  }
  fading_.reserve(throttles_.size());
  for (std::size_t u = 0; u < throttles_.size(); ++u) {
    fading_.emplace_back(config_, seed + 101 * (u + 1));
  }
  if (config_.contention.enabled) {
    // Own seed offset and own Rng: the contention state machine never
    // perturbs the fading or interference streams, so toggling it off
    // leaves the legacy model bit-identical.
    wifi_ = std::make_unique<WifiContentionChannel>(
        config_.contention, throttles_.size(), seed + 0x571F1ull);
  }
  effective_user_.resize(throttles_.size(), 0.0);
  step();
}

void Router::set_capacity_multiplier(double multiplier) {
  if (!std::isfinite(multiplier) || multiplier < 0.0) {
    throw std::invalid_argument("Router: bad capacity multiplier");
  }
  outage_multiplier_ = multiplier;
}

void Router::step() {
  if (config_.interference) {
    if (interference_burst_) {
      if (rng_.bernoulli(config_.interference_exit)) interference_burst_ = false;
    } else if (rng_.bernoulli(config_.interference_prob)) {
      interference_burst_ = true;
    }
  }
  const double burst_mult =
      (interference_burst_ ? config_.interference_depth : 1.0) *
      outage_multiplier_;
  if (wifi_ != nullptr) {
    // Contention mode: the BSS goodput bound caps the aggregate and each
    // user is additionally capped at their station's airtime-share
    // goodput before the fading/interference multipliers apply.
    wifi_->step();
    effective_aggregate_ =
        std::min(aggregate_, wifi_->aggregate_capacity_mbps()) * burst_mult;
    for (std::size_t u = 0; u < throttles_.size(); ++u) {
      effective_user_[u] =
          std::min(throttles_[u], wifi_->station_capacity_mbps(u)) *
          fading_[u].step() * burst_mult;
    }
    return;
  }
  effective_aggregate_ = aggregate_ * burst_mult;
  for (std::size_t u = 0; u < throttles_.size(); ++u) {
    effective_user_[u] = throttles_[u] * fading_[u].step() * burst_mult;
  }
}

double Router::per_user_capacity(std::size_t user) const {
  return effective_user_.at(user);
}

void Router::serve(const std::vector<double>& demands_mbps,
                   std::vector<double>& grants) {
  if (demands_mbps.size() != throttles_.size()) {
    throw std::invalid_argument("Router::serve: demand count mismatch");
  }
  capped_.resize(demands_mbps.size());
  for (std::size_t u = 0; u < demands_mbps.size(); ++u) {
    capped_[u] = std::min(std::max(0.0, demands_mbps[u]), effective_user_[u]);
  }
  max_min_fair(capped_, effective_aggregate_, grants, active_);
}

void max_min_fair(const std::vector<double>& demands, double capacity,
                  std::vector<double>& grant,
                  std::vector<std::size_t>& active) {
  grant.assign(demands.size(), 0.0);
  double remaining = capacity;
  active.clear();
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (demands[i] > 0.0) active.push_back(i);
  }
  // Progressive filling: repeatedly give every active user an equal share
  // until its demand is met or capacity runs out. Users still short of
  // their demand stay active, compacted in place in their order.
  while (!active.empty() && remaining > 1e-12) {
    const double share = remaining / static_cast<double>(active.size());
    std::size_t still_active = 0;
    double used = 0.0;
    for (std::size_t k = 0; k < active.size(); ++k) {
      const std::size_t i = active[k];
      const double want = demands[i] - grant[i];
      const double give = std::min(want, share);
      grant[i] += give;
      used += give;
      if (grant[i] + 1e-12 < demands[i]) active[still_active++] = i;
    }
    remaining -= used;
    if (still_active == active.size() && used < 1e-12) break;
    active.resize(still_active);
  }
}

}  // namespace cvr::net
