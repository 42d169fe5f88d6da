#include "src/system/system_sim.h"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "src/system/slot_pipeline.h"

namespace cvr::system {

SystemSimConfig setup_one_router(std::size_t users) {
  SystemSimConfig config;
  config.users = users;
  config.routers = 1;
  config.router_aggregate_mbps = 400.0;
  config.channel.interference = false;
  // Section VI's heterogeneous handset fleet (Pixel 6/5/4).
  config.devices = assign_devices(paper_fleet(), users);
  return config;
}

SystemSimConfig setup_two_routers(std::size_t users) {
  SystemSimConfig config;
  config.users = users;
  config.routers = 2;
  config.router_aggregate_mbps = 400.0;  // 800 Mbps total across both.
  config.channel.interference = true;
  config.devices = assign_devices(paper_fleet(), users);
  return config;
}

void validate(const SystemSimConfig& config) {
  if (config.users == 0) {
    throw std::invalid_argument("SystemSimConfig.users: must be positive");
  }
  if (config.routers == 0) {
    throw std::invalid_argument("SystemSimConfig.routers: must be positive");
  }
  if (config.slots == 0) {
    throw std::invalid_argument("SystemSimConfig.slots: must be positive");
  }
  if (config.throttle_pool_mbps.empty()) {
    throw std::invalid_argument(
        "SystemSimConfig.throttle_pool_mbps: must not be empty");
  }
  if (config.pose_upload_period == 0) {
    throw std::invalid_argument(
        "SystemSimConfig.pose_upload_period: must be positive");
  }
  if (!std::isfinite(config.router_aggregate_mbps) ||
      config.router_aggregate_mbps <= 0.0) {
    throw std::invalid_argument(
        "SystemSimConfig.router_aggregate_mbps: must be finite and positive");
  }
  const auto require_finite_non_negative = [](double value,
                                              const std::string& field) {
    if (!std::isfinite(value) || value < 0.0) {
      throw std::invalid_argument("SystemSimConfig." + field +
                                  ": must be finite and non-negative");
    }
  };
  for (std::size_t i = 0; i < config.throttle_pool_mbps.size(); ++i) {
    require_finite_non_negative(config.throttle_pool_mbps[i],
                                "throttle_pool_mbps[" + std::to_string(i) + "]");
  }
  require_finite_non_negative(config.bandwidth_measurement_sigma,
                              "bandwidth_measurement_sigma");
  require_finite_non_negative(config.delay_accounting_cap_ms,
                              "delay_accounting_cap_ms");
  require_finite_non_negative(config.server.params.alpha,
                              "server.params.alpha");
  require_finite_non_negative(config.server.params.beta,
                              "server.params.beta");
  require_finite_non_negative(config.delay_measurement_window_ms,
                              "delay_measurement_window_ms");
  require_finite_non_negative(config.server.initial_bandwidth_estimate_mbps,
                              "server.initial_bandwidth_estimate_mbps");
  require_finite_non_negative(config.server.fallback_headroom_fraction,
                              "server.fallback_headroom_fraction");
  if (!std::isfinite(config.server.rtp_packet_bits) ||
      config.server.rtp_packet_bits <= 0.0) {
    throw std::invalid_argument(
        "SystemSimConfig.server.rtp_packet_bits: must be finite and "
        "positive");
  }
  if (!std::isfinite(config.client.display_deadline_ms) ||
      config.client.display_deadline_ms <= 0.0) {
    throw std::invalid_argument(
        "SystemSimConfig.client.display_deadline_ms: must be finite and "
        "positive");
  }
  if (config.client.buffer_threshold == 0) {
    throw std::invalid_argument(
        "SystemSimConfig.client.buffer_threshold: must be positive");
  }
  for (std::size_t i = 0; i < config.devices.size(); ++i) {
    if (config.devices[i].buffer_threshold == 0) {
      throw std::invalid_argument("SystemSimConfig.devices[" +
                                  std::to_string(i) +
                                  "].buffer_threshold: must be positive");
    }
  }
  if (!(config.server.ema_alpha > 0.0 && config.server.ema_alpha <= 1.0)) {
    throw std::invalid_argument(
        "SystemSimConfig.server.ema_alpha: must lie in (0, 1]");
  }
  if (config.allocator_threads != 0) {
    throw std::invalid_argument(
        "SystemSimConfig.allocator_threads: must be 0 (within-slot "
        "parallelism was removed)");
  }
}

SystemSim::SystemSim(SystemSimConfig config) : config_(std::move(config)) {
  validate(config_);
}

std::vector<sim::UserOutcome> SystemSim::run(
    core::Allocator& allocator, std::size_t repeat, Timeline* timeline,
    telemetry::Collector* telemetry) const {
  SimRun run(config_, repeat, allocator, timeline, telemetry);
  telemetry = run.telemetry;

  // The one edge server of Sections V-VI: every user is a member, no
  // level is capped, and the budget is the nominal router aggregate.
  EdgeServer edge(run.server_config, config_.users);
  edge.budget = edge.server.server_bandwidth();
  edge.members.resize(config_.users);
  std::iota(edge.members.begin(), edge.members.end(), std::size_t{0});

  const faults::FaultSchedule& faults = config_.faults;
  for (std::size_t t = 0; t < config_.slots; ++t) {
    const std::int64_t slot = static_cast<std::int64_t>(t);
    telemetry::PhaseSpan slot_span(telemetry, telemetry::Phase::kSlot,
                                   telemetry::Collector::kServerPid, slot);
    step_routers(run.net, faults, t);

    // Server crash-restart: delivered-tile state vanishes; estimators
    // survive (the process kept its learned state, not what it sent).
    if (faults.cache_flush_at(t)) edge.server.forget_delivered_tiles();

    step_server(run, edge, allocator, t);
    const std::vector<double>& granted = serve_routers(run, slot);
    for (std::size_t u = 0; u < config_.users; ++u) {
      serve_member(run, edge, u, t, granted[u]);
    }
    if (telemetry != nullptr) telemetry->count(telemetry::Counter::kSlots);
  }
  return run.finalize();
}

std::vector<sim::ArmResult> SystemSim::compare(
    const std::vector<core::Allocator*>& allocators,
    std::size_t repeats) const {
  std::vector<sim::ArmResult> results;
  results.reserve(allocators.size());
  for (core::Allocator* allocator : allocators) {
    if (allocator == nullptr) {
      throw std::invalid_argument("compare: null allocator");
    }
    sim::ArmResult arm;
    arm.algorithm = std::string(allocator->name());
    for (std::size_t r = 0; r < repeats; ++r) {
      auto outcomes = run(*allocator, r);
      arm.outcomes.insert(arm.outcomes.end(), outcomes.begin(), outcomes.end());
    }
    results.push_back(std::move(arm));
  }
  return results;
}

}  // namespace cvr::system
