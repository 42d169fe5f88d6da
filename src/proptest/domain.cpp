#include "src/proptest/domain.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "src/content/rate_function.h"
#include "src/content/tile.h"

namespace cvr::proptest {

namespace {

using core::SlotProblem;
using core::UserSlotContext;

double quantize_up(double value, double grid) {
  return std::ceil(value / grid) * grid;
}

/// A user with arbitrary strictly increasing rates and arbitrary
/// non-negative delays — exercises shapes the analytic tables never
/// produce (concave rate curves, non-monotone delays).
UserSlotContext gen_table_user(cvr::Rng& rng) {
  UserSlotContext user;
  const double delta = rng.uniform(0.3, 1.0);
  const double qbar = rng.uniform(0.0, 6.0);
  user.set_history(delta, qbar, std::floor(rng.uniform(1.0, 500.0)));
  double rate = rng.uniform(1.0, 20.0);
  for (int q = 0; q < content::kNumQualityLevels; ++q) {
    const auto i = static_cast<std::size_t>(q);
    user.rate[i] = rate;
    user.delay[i] = rng.uniform(0.0, 30.0);
    rate += rng.uniform(0.5, 15.0);
  }
  // Bandwidth anywhere from "level 1 only" to "all levels affordable".
  user.user_bandwidth = rng.uniform(user.rate[0] * 0.9, rate * 1.2);
  return user;
}

UserSlotContext gen_analytic_user(cvr::Rng& rng) {
  // Draws hoisted into statements: argument evaluation order is
  // unspecified, and instance determinism must not depend on it.
  const content::CrfRateFunction f(14.2, 1.45, rng.lognormal(0.0, 0.25));
  const double bandwidth = rng.uniform(15.0, 120.0);
  const double delta = rng.uniform(0.3, 1.0);
  const double qbar = rng.uniform(0.0, 6.0);
  const double slot = std::floor(rng.uniform(1.0, 500.0));
  return UserSlotContext::from_rate_function(f, bandwidth, delta, qbar, slot);
}

void quantize_user(UserSlotContext& user) {
  constexpr double kGrid = 0.25;
  double floor_rate = 0.0;
  for (double& r : user.rate) {
    r = std::max(quantize_up(r, kGrid), floor_rate + kGrid);
    floor_rate = r;
  }
  user.user_bandwidth = quantize_up(user.user_bandwidth, kGrid);
}

double min_rate_sum(const SlotProblem& problem) {
  double total = 0.0;
  for (std::size_t n = 0; n < problem.user_count(); ++n) {
    total += problem.rate_of(n, 1);
  }
  return total;
}

}  // namespace

SlotProblemGenConfig small_exact_config() {
  SlotProblemGenConfig config;
  config.max_users = 6;
  config.quantize_probability = 0.25;
  return config;
}

SlotProblemGenConfig tie_heavy_config() {
  SlotProblemGenConfig config;
  config.max_users = 12;
  config.duplicate_user_probability = 0.5;
  config.quantize_probability = 0.6;
  config.loss_aware_probability = 0.2;
  config.min_tightness = 0.8;
  return config;
}

SlotProblemGenConfig scan_heap_config() {
  SlotProblemGenConfig config = tie_heavy_config();
  config.unbounded_user_probability = 0.05;
  return config;
}

SlotProblemGenConfig published_model_config() {
  SlotProblemGenConfig config;
  config.analytic_tables_only = true;
  return config;
}

SlotProblemGenConfig extreme_rates_config() {
  SlotProblemGenConfig config;
  config.min_users = 1;
  config.max_users = 21;  // covers every N mod 4 remainder-lane case
  config.duplicate_user_probability = 0.25;
  config.quantize_probability = 0.25;
  config.loss_aware_probability = 0.2;
  config.extreme_rate_probability = 0.35;
  return config;
}

core::SlotProblem gen_slot_problem(cvr::Rng& rng,
                                   const SlotProblemGenConfig& config) {
  SlotProblem problem;
  problem.params.alpha =
      std::vector<double>{0.0, 0.02, 0.1, 0.5}[static_cast<std::size_t>(
          rng.uniform_int(0, 3))];
  problem.params.beta =
      std::vector<double>{0.0, 0.5, 2.0, 5.0}[static_cast<std::size_t>(
          rng.uniform_int(0, 3))];

  const auto users = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(config.min_users),
                      static_cast<std::int64_t>(config.max_users)));
  const bool quantize = rng.bernoulli(config.quantize_probability);
  for (std::size_t n = 0; n < users; ++n) {
    if (n > 0 && rng.bernoulli(config.duplicate_user_probability)) {
      // Byte-identical copy: exact score ties at every level.
      problem.push_back(problem.user(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))));
      continue;
    }
    UserSlotContext user = config.analytic_tables_only || rng.bernoulli(0.5)
                               ? gen_analytic_user(rng)
                               : gen_table_user(rng);
    if (quantize) quantize_user(user);
    // Guarded so configs without the knob consume NO extra draws —
    // existing corpus seeds must replay byte-identical instances.
    if (config.extreme_rate_probability > 0.0 &&
        rng.bernoulli(config.extreme_rate_probability)) {
      // Power-of-two rescales are exact while the result stays normal,
      // so the rate ordering survives; the density division then runs
      // at ~2^±1000 and (half the time) the delays go denormal — the
      // SIMD≡scalar properties must hold bit-for-bit even here.
      const double scale = rng.bernoulli(0.5) ? 0x1p-1000 : 0x1p+600;
      for (double& r : user.rate) r *= scale;
      user.user_bandwidth *= scale;
      if (rng.bernoulli(0.5)) {
        for (double& d : user.delay) d *= 0x1p-1060;  // denormal range
      }
    }
    if (rng.bernoulli(config.loss_aware_probability)) {
      // Section-VIII frame loss: success = delta * (1 - loss) per level.
      for (double& success : user.success) {
        success *= 1.0 - rng.uniform(0.0, 0.7);
      }
    }
    problem.push_back(user);
  }

  if (quantize && rng.bernoulli(0.3) && problem.user_count() > 0) {
    // Boundary instance: the budget is EXACTLY the rate of a random
    // allocation, so feasibility decisions sit on the epsilon edge.
    double exact = 0.0;
    for (std::size_t n = 0; n < problem.user_count(); ++n) {
      exact += problem.rate_of(
          n, static_cast<core::QualityLevel>(rng.uniform_int(0, 5) + 1));
    }
    problem.server_bandwidth = exact;
  } else {
    problem.server_bandwidth =
        min_rate_sum(problem) *
        rng.uniform(config.min_tightness, config.max_tightness);
  }

  // Guarded and drawn last, like the extreme-rate knob above: configs
  // without it replay their seeds byte-identically.
  if (config.unbounded_user_probability > 0.0 && problem.user_count() > 0 &&
      rng.bernoulli(config.unbounded_user_probability)) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (core::QualityLevel q = 1; q <= content::kNumQualityLevels; ++q) {
      problem.rate[problem.at(0, q)] = kInf;
    }
    problem.user_bandwidth[0] = kInf;
    for (std::size_t n = 1; n < problem.user_count(); ++n) {
      problem.user_bandwidth[n] = problem.rate_of(n, 1);
    }
  }
  return problem;
}

Gen<core::SlotProblem> slot_problems(SlotProblemGenConfig config) {
  return [config](cvr::Rng& rng) { return gen_slot_problem(rng, config); };
}

std::vector<core::SlotProblem> ShrinkTraits<core::SlotProblem>::candidates(
    const core::SlotProblem& problem) {
  std::vector<SlotProblem> out;
  const std::size_t n_users = problem.user_count();

  // Drop each user.
  for (std::size_t i = 0; i < n_users; ++i) {
    SlotProblem smaller = problem;
    smaller.erase(i);
    out.push_back(std::move(smaller));
  }

  // Simplify each user's history state (success/qbar/weight): delta 1,
  // no frame loss, first slot.
  for (std::size_t i = 0; i < n_users; ++i) {
    UserSlotContext user = problem.user(i);
    const bool all_seen =
        std::all_of(user.success.begin(), user.success.end(),
                    [](double s) { return s == 1.0; });
    if (!all_seen || user.qbar != 0.0 || user.weight != 0.0) {
      user.set_history(1.0, 0.0, 1.0);
      SlotProblem simpler = problem;
      simpler.set_user(i, user);
      out.push_back(std::move(simpler));
    }
  }

  // Lower each user's level ceiling to the mandatory minimum.
  for (std::size_t i = 0; i < n_users; ++i) {
    if (problem.user_bandwidth[i] > problem.rate_of(i, 1)) {
      SlotProblem capped = problem;
      capped.user_bandwidth[i] = capped.rate_of(i, 1);
      out.push_back(std::move(capped));
    }
  }

  // Halve the budget headroom; then remove it entirely.
  const double minimum = min_rate_sum(problem);
  const double headroom = problem.server_bandwidth - minimum;
  if (headroom > 1e-6) {
    SlotProblem halved = problem;
    halved.server_bandwidth = minimum + headroom / 2.0;
    out.push_back(std::move(halved));
    SlotProblem tight = problem;
    tight.server_bandwidth = minimum;
    out.push_back(std::move(tight));
  }

  // Neutralize the QoE weights.
  if (problem.params.alpha != 0.0 || problem.params.beta != 0.0) {
    SlotProblem plain = problem;
    plain.params = core::QoeParams{0.0, 0.0};
    out.push_back(std::move(plain));
  }
  return out;
}

std::string FixtureTraits<core::SlotProblem>::show(
    const core::SlotProblem& problem) {
  std::string out;
  out += "core::SlotProblem problem;\n";
  out += "problem.params = core::QoeParams{" +
         show_double(problem.params.alpha) + ", " +
         show_double(problem.params.beta) + "};\n";
  out += "problem.server_bandwidth = " +
         show_double(problem.server_bandwidth) + ";\n";
  for (std::size_t n = 0; n < problem.user_count(); ++n) {
    const UserSlotContext user = problem.user(n);
    out += "{\n  core::UserSlotContext user;\n";
    out += "  user.success = " + show_double_list(user.success) + ";\n";
    out += "  user.weight = " + show_double(user.weight) + ";\n";
    out += "  user.qbar = " + show_double(user.qbar) + ";\n";
    out += "  user.user_bandwidth = " + show_double(user.user_bandwidth) +
           ";\n";
    out += "  user.rate = " + show_double_list(user.rate) + ";\n";
    out += "  user.delay = " + show_double_list(user.delay) + ";\n";
    out += "  problem.push_back(user);\n}\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Fault schedules

Gen<faults::FaultScheduleConfig> fault_schedule_configs() {
  return [](cvr::Rng& rng) {
    faults::FaultScheduleConfig config;
    config.users = static_cast<std::size_t>(rng.uniform_int(1, 16));
    config.routers = static_cast<std::size_t>(rng.uniform_int(1, 4));
    config.slots = static_cast<std::size_t>(rng.uniform_int(50, 3000));
    config.seed = rng.engine()();
    config.intensity = rng.bernoulli(0.15) ? 0.0 : rng.uniform(0.0, 3.0);
    config.churn_rate = rng.uniform(0.0, 1.5);
    config.pose_blackout_rate = rng.uniform(0.0, 1.5);
    config.ack_stall_rate = rng.uniform(0.0, 1.5);
    config.router_outage_rate = rng.uniform(0.0, 1.5);
    config.cache_flush_rate = rng.uniform(0.0, 1.0);
    config.mean_duration_slots =
        static_cast<std::size_t>(rng.uniform_int(1, 80));
    config.outage_depth = rng.uniform(0.0, 0.95);
    // Fleet scope: keep a healthy share of server-free configs so the
    // legacy (servers == 0) generator path stays under test too.
    config.servers = rng.bernoulli(0.35)
                         ? 0
                         : static_cast<std::size_t>(rng.uniform_int(1, 6));
    config.server_crash_rate = rng.uniform(0.0, 1.5);
    config.fleet_partition_rate = rng.uniform(0.0, 1.5);
    return config;
  };
}

std::vector<faults::FaultScheduleConfig>
ShrinkTraits<faults::FaultScheduleConfig>::candidates(
    const faults::FaultScheduleConfig& config) {
  std::vector<faults::FaultScheduleConfig> out;
  const auto push_if = [&](bool changed, faults::FaultScheduleConfig next) {
    if (changed) out.push_back(next);
  };
  auto c = config;
  c.users = std::max<std::size_t>(1, config.users / 2);
  push_if(c.users != config.users, c);
  c = config;
  c.routers = 1;
  push_if(config.routers != 1, c);
  c = config;
  c.slots = std::max<std::size_t>(1, config.slots / 2);
  push_if(c.slots != config.slots, c);
  c = config;
  c.intensity = 0.0;
  push_if(config.intensity != 0.0, c);
  c = config;
  c.intensity = config.intensity / 2.0;
  push_if(config.intensity > 1e-3, c);
  c = config;
  c.mean_duration_slots = 1;
  push_if(config.mean_duration_slots != 1, c);
  c = config;
  c.servers = 0;
  push_if(config.servers != 0, c);
  for (auto rate : {&faults::FaultScheduleConfig::churn_rate,
                    &faults::FaultScheduleConfig::pose_blackout_rate,
                    &faults::FaultScheduleConfig::ack_stall_rate,
                    &faults::FaultScheduleConfig::router_outage_rate,
                    &faults::FaultScheduleConfig::cache_flush_rate,
                    &faults::FaultScheduleConfig::server_crash_rate,
                    &faults::FaultScheduleConfig::fleet_partition_rate}) {
    c = config;
    c.*rate = 0.0;
    push_if(config.*rate != 0.0, c);
  }
  return out;
}

std::string FixtureTraits<faults::FaultScheduleConfig>::show(
    const faults::FaultScheduleConfig& config) {
  std::string out = "faults::FaultScheduleConfig config;\n";
  out += "config.users = " + std::to_string(config.users) + ";\n";
  out += "config.routers = " + std::to_string(config.routers) + ";\n";
  out += "config.slots = " + std::to_string(config.slots) + ";\n";
  out += "config.seed = " + std::to_string(config.seed) + "ull;\n";
  out += "config.intensity = " + show_double(config.intensity) + ";\n";
  out += "config.churn_rate = " + show_double(config.churn_rate) + ";\n";
  out += "config.pose_blackout_rate = " +
         show_double(config.pose_blackout_rate) + ";\n";
  out += "config.ack_stall_rate = " + show_double(config.ack_stall_rate) +
         ";\n";
  out += "config.router_outage_rate = " +
         show_double(config.router_outage_rate) + ";\n";
  out += "config.cache_flush_rate = " + show_double(config.cache_flush_rate) +
         ";\n";
  out += "config.mean_duration_slots = " +
         std::to_string(config.mean_duration_slots) + ";\n";
  out += "config.outage_depth = " + show_double(config.outage_depth) + ";\n";
  out += "config.servers = " + std::to_string(config.servers) + ";\n";
  out += "config.server_crash_rate = " +
         show_double(config.server_crash_rate) + ";\n";
  out += "config.fleet_partition_rate = " +
         show_double(config.fleet_partition_rate) + ";\n";
  return out;
}

// ---------------------------------------------------------------------------
// Wire messages

namespace {

content::VideoId gen_video_id(cvr::Rng& rng) {
  content::TileKey key;
  key.cell.gx = static_cast<std::int32_t>(rng.uniform_int(-(1 << 22),
                                                          (1 << 22)));
  key.cell.gy = static_cast<std::int32_t>(rng.uniform_int(-(1 << 22),
                                                          (1 << 22)));
  key.tile_index = static_cast<int>(rng.uniform_int(0, 3));
  key.level = static_cast<content::QualityLevel>(rng.uniform_int(1, 6));
  return content::pack_video_id(key);
}

double gen_coordinate(cvr::Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return 0.0;
    case 1:
      return rng.uniform(-180.0, 180.0);
    case 2:
      return rng.uniform(-1e6, 1e6);
    default:
      return rng.normal(0.0, 1e-6);  // subnormal-adjacent magnitudes
  }
}

std::vector<content::VideoId> gen_tiles(cvr::Rng& rng) {
  std::vector<content::VideoId> tiles;
  const auto count = static_cast<std::size_t>(rng.uniform_int(0, 20));
  tiles.reserve(count);
  for (std::size_t i = 0; i < count; ++i) tiles.push_back(gen_video_id(rng));
  return tiles;
}

/// A valid UserHandoff: every cross-field invariant of the codec holds
/// by construction (tallies bounded by counts, qbar under the level
/// ceiling, no phantom pose), so encode never throws and the round-trip
/// property exercises the full field surface.
proto::UserHandoff gen_user_handoff(cvr::Rng& rng) {
  proto::UserHandoff message;
  message.user = static_cast<std::uint32_t>(rng.engine()());
  message.slot = rng.engine()();
  message.delta_count = static_cast<std::uint64_t>(rng.uniform_int(0, 2000));
  message.delta_hits =
      rng.uniform(0.0, static_cast<double>(message.delta_count));
  // Loss-aware runs carry a second tally; half the instances leave it
  // at the loss-oblivious zero state.
  if (rng.bernoulli(0.5)) {
    message.base_count = static_cast<std::uint64_t>(rng.uniform_int(0, 2000));
    message.base_hits =
        rng.uniform(0.0, static_cast<double>(message.base_count));
  }
  message.qbar_slots = static_cast<std::uint64_t>(rng.uniform_int(0, 3000));
  if (message.qbar_slots > 0) {
    message.qbar_sum =
        rng.uniform(0.0, static_cast<double>(message.qbar_slots) *
                             static_cast<double>(content::kNumQualityLevels));
  }
  message.bandwidth_mbps = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.0, 500.0);
  message.bandwidth_observations =
      static_cast<std::uint64_t>(rng.uniform_int(0, 5000));
  message.has_pose = rng.bernoulli(0.7);
  if (message.has_pose) {
    message.pose.x = gen_coordinate(rng);
    message.pose.y = gen_coordinate(rng);
    message.pose.z = gen_coordinate(rng);
    message.pose.yaw = gen_coordinate(rng);
    message.pose.pitch = gen_coordinate(rng);
    message.pose.roll = gen_coordinate(rng);
    message.pose_slot = rng.engine()();
  }
  message.safe_mode = rng.bernoulli(0.2);
  message.pose_stale = rng.bernoulli(0.2);
  message.transmit_fraction = rng.uniform(0.0, 1.0);
  return message;
}

}  // namespace

WireMessage gen_wire_message(cvr::Rng& rng) {
  switch (rng.uniform_int(0, 7)) {
    case 0: {
      proto::PoseUpdate message;
      message.user = static_cast<std::uint32_t>(rng.engine()());
      message.slot = rng.engine()();
      message.pose.x = gen_coordinate(rng);
      message.pose.y = gen_coordinate(rng);
      message.pose.z = gen_coordinate(rng);
      message.pose.yaw = gen_coordinate(rng);
      message.pose.pitch = gen_coordinate(rng);
      message.pose.roll = gen_coordinate(rng);
      return message;
    }
    case 1: {
      proto::DeliveryAck message;
      message.user = static_cast<std::uint32_t>(rng.engine()());
      message.slot = rng.engine()();
      message.tiles = gen_tiles(rng);
      return message;
    }
    case 2: {
      proto::ReleaseAck message;
      message.user = static_cast<std::uint32_t>(rng.engine()());
      message.slot = rng.engine()();
      message.tiles = gen_tiles(rng);
      return message;
    }
    case 3: {
      proto::TileHeader message;
      message.video_id = gen_video_id(rng);
      message.packet_count =
          static_cast<std::uint32_t>(rng.uniform_int(1, 64));
      message.packet_index = static_cast<std::uint32_t>(
          rng.uniform_int(0, message.packet_count - 1));
      message.slot = rng.engine()();
      return message;
    }
    case 4: {
      proto::ConnectRequest message;
      message.session = rng.engine()();
      message.slot = rng.engine()();
      message.qos_ms = rng.uniform(1e-3, 1e3);  // finite, positive
      return message;
    }
    case 5: {
      proto::AdmitResponse message;
      message.session = rng.engine()();
      message.slot = rng.engine()();
      const auto decision = static_cast<proto::WireAdmission>(
          rng.uniform_int(0, 2));
      message.decision = decision;
      // Decision/cap consistency is a wire invariant: reject grants no
      // levels, admit/degrade grants at least one.
      message.level_cap =
          decision == proto::WireAdmission::kReject
              ? 0
              : static_cast<std::uint8_t>(
                    rng.uniform_int(1, content::kNumQualityLevels));
      return message;
    }
    case 6: {
      proto::DisconnectNotice message;
      message.session = rng.engine()();
      message.slot = rng.engine()();
      return message;
    }
    default:
      return gen_user_handoff(rng);
  }
}

Gen<WireMessage> wire_messages() {
  return [](cvr::Rng& rng) { return gen_wire_message(rng); };
}

proto::Buffer encode_wire_message(const WireMessage& message) {
  return std::visit([](const auto& m) { return proto::encode(m); }, message);
}

std::vector<WireMessage> ShrinkTraits<WireMessage>::candidates(
    const WireMessage& message) {
  std::vector<WireMessage> out;
  if (const auto* pose = std::get_if<proto::PoseUpdate>(&message)) {
    if (!(*pose == proto::PoseUpdate{})) out.push_back(proto::PoseUpdate{});
  } else if (const auto* ack = std::get_if<proto::DeliveryAck>(&message)) {
    for (auto tiles :
         ShrinkTraits<std::vector<content::VideoId>>::candidates(ack->tiles)) {
      proto::DeliveryAck smaller = *ack;
      smaller.tiles = std::move(tiles);
      out.push_back(std::move(smaller));
    }
    if (ack->user != 0 || ack->slot != 0) {
      proto::DeliveryAck zeroed = *ack;
      zeroed.user = 0;
      zeroed.slot = 0;
      out.push_back(std::move(zeroed));
    }
  } else if (const auto* release = std::get_if<proto::ReleaseAck>(&message)) {
    for (auto tiles : ShrinkTraits<std::vector<content::VideoId>>::candidates(
             release->tiles)) {
      proto::ReleaseAck smaller = *release;
      smaller.tiles = std::move(tiles);
      out.push_back(std::move(smaller));
    }
    if (release->user != 0 || release->slot != 0) {
      proto::ReleaseAck zeroed = *release;
      zeroed.user = 0;
      zeroed.slot = 0;
      out.push_back(std::move(zeroed));
    }
  } else if (const auto* header = std::get_if<proto::TileHeader>(&message)) {
    if (header->packet_count != 1 || header->packet_index != 0 ||
        header->slot != 0) {
      proto::TileHeader minimal = *header;
      minimal.packet_count = 1;
      minimal.packet_index = 0;
      minimal.slot = 0;
      out.push_back(std::move(minimal));
    }
  } else if (const auto* connect =
                 std::get_if<proto::ConnectRequest>(&message)) {
    proto::ConnectRequest minimal;  // qos_ms must stay positive
    minimal.qos_ms = 1.0;
    if (!(*connect == minimal)) out.push_back(std::move(minimal));
  } else if (const auto* admit = std::get_if<proto::AdmitResponse>(&message)) {
    proto::AdmitResponse minimal;  // reject with level_cap 0 is valid
    if (!(*admit == minimal)) out.push_back(std::move(minimal));
  } else if (const auto* bye = std::get_if<proto::DisconnectNotice>(&message)) {
    if (!(*bye == proto::DisconnectNotice{})) {
      out.push_back(proto::DisconnectNotice{});
    }
  } else if (const auto* handoff = std::get_if<proto::UserHandoff>(&message)) {
    if (handoff->has_pose) {
      proto::UserHandoff poseless = *handoff;  // drop the pose block whole
      poseless.pose = motion::Pose{};
      poseless.pose_slot = 0;
      poseless.has_pose = false;
      poseless.pose_stale = false;
      out.push_back(std::move(poseless));
    }
    if (handoff->delta_count != 0 || handoff->base_count != 0 ||
        handoff->qbar_slots != 0) {
      proto::UserHandoff cold = *handoff;  // wipe the carried tallies
      cold.delta_hits = 0.0;
      cold.delta_count = 0;
      cold.base_hits = 0.0;
      cold.base_count = 0;
      cold.qbar_sum = 0.0;
      cold.qbar_slots = 0;
      out.push_back(std::move(cold));
    }
    if (!(*handoff == proto::UserHandoff{})) {
      out.push_back(proto::UserHandoff{});
    }
  }
  return out;
}

namespace {

std::string show_tiles(const std::vector<content::VideoId>& tiles) {
  std::string out = "{";
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(tiles[i]) + "ull";
  }
  return out + "}";
}

}  // namespace

std::string FixtureTraits<WireMessage>::show(const WireMessage& message) {
  std::string out;
  if (const auto* pose = std::get_if<proto::PoseUpdate>(&message)) {
    out += "proto::PoseUpdate message;\n";
    out += "message.user = " + std::to_string(pose->user) + ";\n";
    out += "message.slot = " + std::to_string(pose->slot) + "ull;\n";
    out += "message.pose.x = " + show_double(pose->pose.x) + ";\n";
    out += "message.pose.y = " + show_double(pose->pose.y) + ";\n";
    out += "message.pose.z = " + show_double(pose->pose.z) + ";\n";
    out += "message.pose.yaw = " + show_double(pose->pose.yaw) + ";\n";
    out += "message.pose.pitch = " + show_double(pose->pose.pitch) + ";\n";
    out += "message.pose.roll = " + show_double(pose->pose.roll) + ";\n";
  } else if (const auto* ack = std::get_if<proto::DeliveryAck>(&message)) {
    out += "proto::DeliveryAck message;\n";
    out += "message.user = " + std::to_string(ack->user) + ";\n";
    out += "message.slot = " + std::to_string(ack->slot) + "ull;\n";
    out += "message.tiles = " + show_tiles(ack->tiles) + ";\n";
  } else if (const auto* release = std::get_if<proto::ReleaseAck>(&message)) {
    out += "proto::ReleaseAck message;\n";
    out += "message.user = " + std::to_string(release->user) + ";\n";
    out += "message.slot = " + std::to_string(release->slot) + "ull;\n";
    out += "message.tiles = " + show_tiles(release->tiles) + ";\n";
  } else if (const auto* header = std::get_if<proto::TileHeader>(&message)) {
    out += "proto::TileHeader message;\n";
    out += "message.video_id = " + std::to_string(header->video_id) +
           "ull;\n";
    out += "message.packet_index = " + std::to_string(header->packet_index) +
           ";\n";
    out += "message.packet_count = " + std::to_string(header->packet_count) +
           ";\n";
    out += "message.slot = " + std::to_string(header->slot) + "ull;\n";
  } else if (const auto* connect =
                 std::get_if<proto::ConnectRequest>(&message)) {
    out += "proto::ConnectRequest message;\n";
    out += "message.session = " + std::to_string(connect->session) + "ull;\n";
    out += "message.slot = " + std::to_string(connect->slot) + "ull;\n";
    out += "message.qos_ms = " + show_double(connect->qos_ms) + ";\n";
  } else if (const auto* admit = std::get_if<proto::AdmitResponse>(&message)) {
    out += "proto::AdmitResponse message;\n";
    out += "message.session = " + std::to_string(admit->session) + "ull;\n";
    out += "message.slot = " + std::to_string(admit->slot) + "ull;\n";
    out += "message.decision = static_cast<proto::WireAdmission>(" +
           std::to_string(static_cast<int>(admit->decision)) + ");\n";
    out += "message.level_cap = " +
           std::to_string(static_cast<int>(admit->level_cap)) + ";\n";
  } else if (const auto* bye =
                 std::get_if<proto::DisconnectNotice>(&message)) {
    out += "proto::DisconnectNotice message;\n";
    out += "message.session = " + std::to_string(bye->session) + "ull;\n";
    out += "message.slot = " + std::to_string(bye->slot) + "ull;\n";
  } else if (const auto* handoff = std::get_if<proto::UserHandoff>(&message)) {
    out += "proto::UserHandoff message;\n";
    out += "message.user = " + std::to_string(handoff->user) + ";\n";
    out += "message.slot = " + std::to_string(handoff->slot) + "ull;\n";
    out += "message.delta_hits = " + show_double(handoff->delta_hits) + ";\n";
    out += "message.delta_count = " + std::to_string(handoff->delta_count) +
           "ull;\n";
    out += "message.base_hits = " + show_double(handoff->base_hits) + ";\n";
    out += "message.base_count = " + std::to_string(handoff->base_count) +
           "ull;\n";
    out += "message.qbar_sum = " + show_double(handoff->qbar_sum) + ";\n";
    out += "message.qbar_slots = " + std::to_string(handoff->qbar_slots) +
           "ull;\n";
    out += "message.bandwidth_mbps = " + show_double(handoff->bandwidth_mbps) +
           ";\n";
    out += "message.bandwidth_observations = " +
           std::to_string(handoff->bandwidth_observations) + "ull;\n";
    out += "message.pose.x = " + show_double(handoff->pose.x) + ";\n";
    out += "message.pose.y = " + show_double(handoff->pose.y) + ";\n";
    out += "message.pose.z = " + show_double(handoff->pose.z) + ";\n";
    out += "message.pose.yaw = " + show_double(handoff->pose.yaw) + ";\n";
    out += "message.pose.pitch = " + show_double(handoff->pose.pitch) + ";\n";
    out += "message.pose.roll = " + show_double(handoff->pose.roll) + ";\n";
    out += "message.pose_slot = " + std::to_string(handoff->pose_slot) +
           "ull;\n";
    out += std::string("message.has_pose = ") +
           (handoff->has_pose ? "true" : "false") + ";\n";
    out += std::string("message.safe_mode = ") +
           (handoff->safe_mode ? "true" : "false") + ";\n";
    out += std::string("message.pose_stale = ") +
           (handoff->pose_stale ? "true" : "false") + ";\n";
    out += "message.transmit_fraction = " +
           show_double(handoff->transmit_fraction) + ";\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Malformed-bytes corpus

proto::Buffer MutationCase::mutated() const {
  proto::Buffer frame = encode_wire_message(message);
  switch (op) {
    case Op::kOverwriteByte:
      if (!frame.empty()) frame[position % frame.size()] = value;
      break;
    case Op::kTruncate:
      frame.resize(position % std::max<std::size_t>(1, frame.size()));
      break;
    case Op::kAppend:
      frame.push_back(value);
      break;
  }
  return frame;
}

bool MutationCase::is_noop() const {
  return mutated() == encode_wire_message(message);
}

MutationCase gen_mutation_case(cvr::Rng& rng) {
  MutationCase mutation;
  mutation.message = gen_wire_message(rng);
  const proto::Buffer frame = encode_wire_message(mutation.message);
  const double roll = rng.uniform();
  if (roll < 0.6) {
    mutation.op = MutationCase::Op::kOverwriteByte;
    mutation.position = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(frame.size()) - 1));
    mutation.value = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  } else if (roll < 0.85) {
    mutation.op = MutationCase::Op::kTruncate;
    mutation.position = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(frame.size()) - 1));
  } else {
    mutation.op = MutationCase::Op::kAppend;
    mutation.value = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return mutation;
}

Gen<MutationCase> mutation_cases() {
  return [](cvr::Rng& rng) { return gen_mutation_case(rng); };
}

std::vector<MutationCase> ShrinkTraits<MutationCase>::candidates(
    const MutationCase& mutation) {
  std::vector<MutationCase> out;
  for (auto& message : ShrinkTraits<WireMessage>::candidates(mutation.message)) {
    MutationCase smaller = mutation;
    smaller.message = std::move(message);
    out.push_back(std::move(smaller));
  }
  if (mutation.position != 0) {
    MutationCase front = mutation;
    front.position = 0;
    out.push_back(std::move(front));
  }
  if (mutation.value != 0) {
    MutationCase zero = mutation;
    zero.value = 0;
    out.push_back(std::move(zero));
  }
  return out;
}

std::string FixtureTraits<MutationCase>::show(const MutationCase& mutation) {
  std::string out = FixtureTraits<WireMessage>::show(mutation.message);
  out += "// mutation: ";
  switch (mutation.op) {
    case MutationCase::Op::kOverwriteByte:
      out += "overwrite frame[" + std::to_string(mutation.position) +
             "] = " + std::to_string(mutation.value);
      break;
    case MutationCase::Op::kTruncate:
      out += "truncate frame to " + std::to_string(mutation.position) +
             " byte(s)";
      break;
    case MutationCase::Op::kAppend:
      out += "append byte " + std::to_string(mutation.value);
      break;
  }
  out += "\n";
  return out;
}

// ---------------------------------------------------------------------------
// Sample streams / QoE traces

Gen<SampleStream> sample_streams(std::size_t max_len) {
  return [max_len](cvr::Rng& rng) {
    SampleStream stream;
    const auto len = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(max_len)));
    stream.samples.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      if (!stream.samples.empty() && rng.bernoulli(0.15)) {
        // Exact repeats: zero-variance runs and catastrophic
        // cancellation bait for naive two-pass formulas.
        stream.samples.push_back(stream.samples.back());
        continue;
      }
      const double magnitude = std::pow(10.0, rng.uniform(-6.0, 9.0));
      const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
      stream.samples.push_back(sign * magnitude * rng.uniform(1.0, 10.0));
    }
    stream.split = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(len)));
    return stream;
  };
}

std::vector<SampleStream> ShrinkTraits<SampleStream>::candidates(
    const SampleStream& stream) {
  std::vector<SampleStream> out;
  for (auto& samples :
       ShrinkTraits<std::vector<double>>::candidates(stream.samples)) {
    SampleStream smaller;
    smaller.split = std::min(stream.split, samples.size());
    smaller.samples = std::move(samples);
    out.push_back(std::move(smaller));
  }
  const std::size_t to_zero = std::min<std::size_t>(stream.samples.size(), 16);
  for (std::size_t i = 0; i < to_zero; ++i) {
    if (stream.samples[i] == 0.0) continue;
    SampleStream zeroed = stream;
    zeroed.samples[i] = 0.0;
    out.push_back(std::move(zeroed));
  }
  return out;
}

std::string FixtureTraits<SampleStream>::show(const SampleStream& stream) {
  return "std::vector<double> samples = " + show_double_list(stream.samples) +
         ";\nstd::size_t split = " + std::to_string(stream.split) + ";\n";
}

Gen<QoeTrace> qoe_traces(std::size_t max_len) {
  return [max_len](cvr::Rng& rng) {
    QoeTrace trace;
    const auto len = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(max_len)));
    trace.steps.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      QoeTrace::Step step;
      step.chosen = static_cast<int>(rng.uniform_int(1, 6));
      if (rng.bernoulli(0.3)) {
        step.displayed = 0.0;  // prediction miss
      } else if (rng.bernoulli(0.2)) {
        step.displayed = rng.uniform(0.0, 6.0);  // fallback-cell quality
      } else {
        step.displayed = static_cast<double>(step.chosen);
      }
      step.delay = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.0, 50.0);
      trace.steps.push_back(step);
    }
    return trace;
  };
}

std::vector<QoeTrace> ShrinkTraits<QoeTrace>::candidates(
    const QoeTrace& trace) {
  std::vector<QoeTrace> out;
  for (auto& steps :
       ShrinkTraits<std::vector<QoeTrace::Step>>::candidates(trace.steps)) {
    QoeTrace smaller;
    smaller.steps = std::move(steps);
    out.push_back(std::move(smaller));
  }
  const std::size_t to_simplify = std::min<std::size_t>(trace.steps.size(), 16);
  for (std::size_t i = 0; i < to_simplify; ++i) {
    const QoeTrace::Step& step = trace.steps[i];
    if (step.chosen == 1 && step.displayed == 0.0 && step.delay == 0.0) {
      continue;
    }
    QoeTrace simpler = trace;
    simpler.steps[i] = QoeTrace::Step{};
    out.push_back(std::move(simpler));
  }
  return out;
}

std::string FixtureTraits<QoeTrace>::show(const QoeTrace& trace) {
  std::string out = "core::UserQoeAccumulator acc;\n";
  for (const auto& step : trace.steps) {
    out += "acc.record_displayed(" + std::to_string(step.chosen) + ", " +
           show_double(step.displayed) + ", " + show_double(step.delay) +
           ");\n";
  }
  return out;
}

}  // namespace cvr::proptest
