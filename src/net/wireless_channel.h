// Wireless channel and router model for the real-world experiments.
//
// Section VI: phones are throttled per-user with Linux TC ({40..60}
// Mbps), routers cap the aggregate (400 Mbps for one 802.11ac router,
// 800 Mbps for two bridged ones), and "the actual throughput varies with
// time under the wireless network"; with two routers "the variance of
// the bandwidth capacity is even larger ... due to the possible wireless
// interference". Fig. 8 shows Firefly/PAVQ degrading precisely because
// of that extra variance.
//
// Model: per-user effective capacity = TC throttle x fading multiplier,
// where fading is AR(1) log-normal; interference mode adds bursty deep
// dips shared across users of the same router. The router distributes
// its aggregate capacity across users' demands by max-min fairness.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/net/wifi_channel.h"
#include "src/util/rng.h"

namespace cvr::net {

struct WirelessChannelConfig {
  double fading_sigma = 0.10;      ///< Log-domain std-dev of the multiplier.
  double fading_rho = 0.9;         ///< AR(1) coefficient per slot.
  bool interference = false;        ///< Two-router mode (Fig. 8).
  double interference_prob = 0.04;  ///< Per-slot chance a burst starts.
  double interference_depth = 0.45; ///< Multiplier during a burst.
  double interference_exit = 0.12;  ///< Per-slot chance the burst ends
                                    ///< (mean burst ~8 slots / 125 ms).
  /// Wi-Fi contention model (docs/workloads.md): when enabled, the
  /// router caps each user at their station's airtime-share goodput and
  /// the aggregate at the BSS goodput bound, both on top of the legacy
  /// fading/interference multipliers. Off by default — the Router is
  /// then bit-identical to the fading-only model (no channel is
  /// constructed and no RNG stream is consumed).
  WifiContentionConfig contention;
};

/// One user's time-varying air-link quality: a multiplier in (0, ~1.3]
/// applied to the TC throttle.
class FadingProcess {
 public:
  FadingProcess(const WirelessChannelConfig& config, std::uint64_t seed);

  /// Advances one slot and returns the current multiplier.
  double step();

  double current() const { return multiplier_; }

 private:
  WirelessChannelConfig config_;
  cvr::Rng rng_;
  double log_state_ = 0.0;
  double multiplier_ = 1.0;
};

/// A router shared by a set of users. Each slot:
///   capacity_n = throttle_n * fading_n * interference,
///   aggregate cap = router capacity (also fading in interference mode),
/// and demands are served max-min fairly.
class Router {
 public:
  Router(double aggregate_mbps, std::vector<double> user_throttles_mbps,
         WirelessChannelConfig config, std::uint64_t seed);

  std::size_t user_count() const { return throttles_.size(); }

  /// Advances one slot; after this, per_user_capacity()/aggregate() give
  /// the slot's effective limits.
  void step();

  /// Fault-injection hook: scales the *next* step()'s effective
  /// aggregate and per-user capacities by `multiplier` (a bandwidth
  /// outage or cliff; 0 = total blackout). 1.0 — the default — is the
  /// healthy channel, and leaves every computation bit-identical.
  /// Throws std::invalid_argument on a negative or non-finite value.
  void set_capacity_multiplier(double multiplier);
  double capacity_multiplier() const { return outage_multiplier_; }

  /// Effective per-user air-link capacity (Mbps) this slot.
  double per_user_capacity(std::size_t user) const;

  /// Effective aggregate capacity (Mbps) this slot.
  double aggregate_capacity() const { return effective_aggregate_; }

  /// Serves the given demands (Mbps) max-min fairly under both the
  /// per-user and aggregate limits, writing the granted rates into
  /// `grants` (resized; capacity kept). Works in member scratch, so a
  /// router serving a fixed user set allocates nothing per slot.
  void serve(const std::vector<double>& demands_mbps,
             std::vector<double>& grants);

  /// The contention channel, when config.contention.enabled; nullptr
  /// otherwise (tests/diagnostics).
  const WifiContentionChannel* contention() const { return wifi_.get(); }

 private:
  double aggregate_;
  std::vector<double> throttles_;
  WirelessChannelConfig config_;
  std::vector<FadingProcess> fading_;
  std::unique_ptr<WifiContentionChannel> wifi_;
  cvr::Rng rng_;
  bool interference_burst_ = false;
  double outage_multiplier_ = 1.0;
  double effective_aggregate_ = 0.0;
  std::vector<double> effective_user_;
  // serve() scratch, recycled across slots.
  std::vector<double> capped_;
  std::vector<std::size_t> active_;
};

/// Max-min fair allocation of `capacity` across `demands` with per-user
/// caps already folded into demands, written into `grant` (resized;
/// capacity kept). `active` is index scratch; its contents are
/// overwritten. Exposed for testing.
void max_min_fair(const std::vector<double>& demands, double capacity,
                  std::vector<double>& grant, std::vector<std::size_t>& active);

}  // namespace cvr::net
