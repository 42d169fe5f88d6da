#include "src/system/slot_pipeline.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "src/motion/motion_generator.h"
#include "src/net/mm1.h"
#include "src/render/render_farm.h"
#include "src/system/device.h"
#include "src/util/units.h"

namespace cvr::system {

namespace {

// Draws per-user TC throttles from `rng` (the shared measurement RNG —
// these are its first draws of the repeat), assigns users to routers,
// and constructs the routers with their per-repeat seeds.
AccessNetwork build_access_network(const SystemSimConfig& config,
                                   std::size_t repeat, cvr::Rng& rng) {
  const std::size_t n_users = config.users;
  const std::size_t n_routers = config.routers;

  // Randomly assign TC throttles from the pool (Section VI).
  std::vector<double> throttles(n_users);
  for (std::size_t u = 0; u < n_users; ++u) {
    const auto pick = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(config.throttle_pool_mbps.size()) - 1));
    throttles[u] = config.throttle_pool_mbps[pick];
  }

  // Users onto routers: the paper's contiguous group split, or
  // round-robin interleaving.
  AccessNetwork net;
  net.router_of.resize(n_users);
  net.index_in_router.resize(n_users);
  net.router_users.resize(n_routers);
  const std::size_t group = (n_users + n_routers - 1) / n_routers;
  for (std::size_t u = 0; u < n_users; ++u) {
    const std::size_t r =
        config.router_assignment == RouterAssignment::kSplit
            ? std::min(u / group, n_routers - 1)
            : u % n_routers;
    net.router_of[u] = r;
    net.index_in_router[u] = net.router_users[r].size();
    net.router_users[r].push_back(u);
  }
  net.routers.reserve(n_routers);
  for (std::size_t r = 0; r < n_routers; ++r) {
    std::vector<double> member_throttles;
    for (std::size_t u : net.router_users[r]) {
      member_throttles.push_back(throttles[u]);
    }
    net.routers.emplace_back(config.router_aggregate_mbps,
                             std::move(member_throttles), config.channel,
                             config.seed + 7919 * (repeat + 1) + r);
  }
  return net;
}

ServerConfig derive_server_config(const SystemSimConfig& config) {
  // Server with the nominal aggregate the operator knows (Section VI).
  ServerConfig server_config = config.server;
  server_config.server_bandwidth_mbps =
      config.router_aggregate_mbps * static_cast<double>(config.routers);
  // A sparse-but-healthy pose cadence must never look like a blackout:
  // keep the staleness threshold clear of the configured upload period.
  server_config.pose_staleness_slots =
      std::max(server_config.pose_staleness_slots,
               2 * config.pose_upload_period + 2);
  return server_config;
}

}  // namespace

std::vector<UserWorld> build_user_worlds(const SystemSimConfig& config,
                                         std::size_t repeat) {
  motion::MotionGenerator motion_gen(config.motion);
  std::vector<UserWorld> worlds;
  worlds.reserve(config.users);
  for (std::size_t u = 0; u < config.users; ++u) {
    // Lecture mode: everyone replays the teacher's (user 0's) motion.
    const std::uint64_t motion_user = config.lecture_mode ? 0 : u;
    const ClientConfig client_config =
        config.devices.empty()
            ? config.client
            : config.devices[u % config.devices.size()].client_config(
                  config.client.display_deadline_ms);
    worlds.push_back(UserWorld{
        motion_gen.generate(config.seed + 5000 * (repeat + 1), motion_user,
                            config.slots),
        Client(client_config),
        net::RtpTransport(config.rtp,
                          config.seed + 31 * (repeat + 1) + 1000 + u),
        core::UserQoeAccumulator(), 0,
        net::AckChannel<proto::DeliveryAck>{0},
        net::AckChannel<proto::ReleaseAck>{0}, faults::RecoveryTracker{}});
  }
  return worlds;
}

SimRun::SimRun(const SystemSimConfig& config, std::size_t repeat,
               core::Allocator& allocator, Timeline* timeline,
               telemetry::Collector* collector)
    : config(config),
      telemetry(collector != nullptr && collector->counting() ? collector
                                                              : nullptr),
      timeline(timeline),
      server_config(derive_server_config(config)),
      unmargined(server_config.fov),
      rng(cvr::SplitMix64(config.seed ^
                          (0x5957E3Cull + repeat * 0x9E3779B97F4A7C15ull))
              .next()),
      net(build_access_network(config, repeat, rng)),
      worlds(build_user_worlds(config, repeat)),
      cap(config.users, core::kNumQualityLevels),
      member_index(config.users, 0),
      requests(config.users),
      granted(config.users, 0.0) {
  unmargined.margin_deg = 0.0;
  allocator.reset();
  if (telemetry != nullptr && telemetry->tracing()) {
    telemetry->label_process(telemetry::Collector::kServerPid, "server");
    for (std::size_t u = 0; u < config.users; ++u) {
      telemetry->label_process(telemetry::Collector::user_pid(u),
                               "user " + std::to_string(u));
    }
  }
}

std::vector<sim::UserOutcome> SimRun::finalize() {
  std::vector<sim::UserOutcome> outcomes;
  outcomes.reserve(worlds.size());
  for (UserWorld& world : worlds) {
    const double hit_rate =
        static_cast<double>(world.hits) / static_cast<double>(config.slots);
    const double fps = static_cast<double>(world.client.frames_displayed()) /
                       static_cast<double>(config.slots) / cvr::kSlotSeconds;
    sim::UserOutcome outcome =
        sim::make_outcome(world.qoe, config.server.params, hit_rate, fps);
    world.recovery.finalize();
    outcome.fault_slots = static_cast<double>(world.recovery.fault_slots());
    outcome.time_to_recover_slots = world.recovery.mean_time_to_recover_slots();
    outcome.qoe_dip = world.recovery.quality_dip_depth();
    outcome.frames_dropped_in_fault =
        static_cast<double>(world.recovery.frames_dropped_in_fault());
    outcomes.push_back(outcome);
  }
  return outcomes;
}

void step_routers(AccessNetwork& net, const faults::FaultSchedule& faults,
                  std::size_t t) {
  for (std::size_t r = 0; r < net.routers.size(); ++r) {
    net.routers[r].set_capacity_multiplier(
        faults.router_capacity_multiplier(r, t));
    net.routers[r].step();
  }
}

void step_server(SimRun& run, EdgeServer& edge, core::Allocator& allocator,
                 std::size_t t) {
  const SystemSimConfig& config = run.config;
  const faults::FaultSchedule& faults = config.faults;
  telemetry::Collector* telemetry = run.telemetry;
  const std::int64_t slot = static_cast<std::int64_t>(t);
  const std::vector<std::size_t>& members = edge.members;

  // Pose upload over the TCP side channel: one slot of latency, every
  // pose_upload_period-th slot ("upload the trace to the server
  // through TCP periodically"). The message rides the real wire format
  // (encode -> decode through the server's recycled frame), so the
  // protocol codec is exercised by every simulated upload.
  if (t >= 1 && (t - 1) % config.pose_upload_period == 0) {
    telemetry::PhaseSpan ingest_span(telemetry, telemetry::Phase::kPoseIngest,
                                     telemetry::Collector::kServerPid, slot);
    for (std::size_t u : members) {
      // A disconnected or pose-blacked-out user uploads nothing; the
      // server's staleness watchdog takes it from here.
      if (faults.user_disconnected(u, t) || faults.pose_blackout(u, t)) {
        continue;
      }
      proto::PoseUpdate upload;
      upload.user = static_cast<std::uint32_t>(u);
      upload.slot = t - 1;
      upload.pose = run.worlds[u].trace[t - 1];
      proto::encode(upload, edge.pose_wire);
      proto::PoseUpdate received;
      proto::decode(edge.pose_wire, received);
      edge.server.on_pose(received.user, received.slot, received.pose);
      if (telemetry != nullptr) {
        telemetry->count(telemetry::Counter::kPoseUploads);
      }
    }
  }
  if (members.empty()) return;

  // Allocation from estimates only.
  edge.server.set_server_bandwidth(edge.budget);
  core::SlotProblem& problem = edge.arena.acquire(members.size());
  {
    telemetry::PhaseSpan build_span(telemetry, telemetry::Phase::kProblemBuild,
                                    telemetry::Collector::kServerPid, slot);
    edge.server.build_problem_for(t + 1, members, problem);
  }
  // Level caps (the fleet's degrade ladder) ride constraint (7), the
  // same clamp safe mode uses: cap the user bandwidth at the capped
  // level's rate so no allocator can exceed it.
  for (std::size_t i = 0; i < members.size(); ++i) {
    const core::QualityLevel cap = run.cap[members[i]];
    if (cap < core::kNumQualityLevels) {
      core::UserSlotContext& uctx = problem.users[i];
      uctx.user_bandwidth = std::min(
          uctx.user_bandwidth, uctx.rate[static_cast<std::size_t>(cap - 1)]);
    }
  }
  {
    telemetry::PhaseSpan solve_span(telemetry, telemetry::Phase::kAllocSolve,
                                    telemetry::Collector::kServerPid, slot);
    allocator.allocate_into(problem, edge.allocation);
  }
  const std::vector<core::QualityLevel>& levels = edge.allocation.levels;
  if (levels.size() != members.size()) {
    throw std::logic_error("allocator returned wrong level count");
  }
  if (telemetry != nullptr) telemetry->count_allocation(levels);
  for (std::size_t i = 0; i < members.size(); ++i) {
    run.member_index[members[i]] = i;
  }

  // Tile requests (repetition-filtered). A request only touches user
  // u's own server-side state (plus order-independent memo/telemetry),
  // so the visit order within a server does not affect any result.
  {
    telemetry::PhaseSpan fetch_span(telemetry, telemetry::Phase::kContentFetch,
                                    telemetry::Collector::kServerPid, slot);
    for (std::size_t i = 0; i < members.size(); ++i) {
      const std::size_t u = members[i];
      TileRequest& request = run.requests[u];
      if (faults.user_disconnected(u, t)) {
        // No device on the network: nothing to request, zero demand, and
        // the server's per-user caches stay untouched for the window.
        request.reset(levels[i]);
        continue;
      }
      edge.server.make_request(u, levels[i], request);
      if (telemetry != nullptr) {
        telemetry->count(telemetry::Counter::kTilesRequested,
                         request.tiles.size());
      }
    }
  }

  // Online rendering (Section VIII): tiles must be rendered+encoded
  // within the slot before they can be transmitted; a late job ships
  // nothing this slot. One farm per edge server, over its members.
  if (config.online_rendering) {
    const render::RenderFarm farm(config.render_farm);
    std::vector<render::RenderJob> jobs;
    jobs.reserve(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      jobs.push_back(
          {members[i], run.requests[members[i]].tiles.size(), levels[i]});
    }
    const render::RenderOutcome rendered = farm.schedule(jobs);
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (!rendered.on_time[i]) {
        TileRequest& request = run.requests[members[i]];
        request.tiles.clear();
        request.fallback_set.clear();
        request.demand_mbps = 0.0;
      }
    }
  }
}

const std::vector<double>& serve_routers(SimRun& run, std::int64_t slot) {
  AccessNetwork& net = run.net;
  std::vector<double>& granted = run.granted;
  std::vector<double>& demands = run.router_demands;
  std::fill(granted.begin(), granted.end(), 0.0);
  telemetry::PhaseSpan serve_span(run.telemetry, telemetry::Phase::kTransport,
                                  telemetry::Collector::kServerPid, slot);
  for (std::size_t r = 0; r < net.routers.size(); ++r) {
    demands.clear();
    for (std::size_t u : net.router_users[r]) {
      demands.push_back(run.requests[u].demand_mbps);
    }
    net.routers[r].serve(demands, run.router_grants);
    for (std::size_t i = 0; i < net.router_users[r].size(); ++i) {
      granted[net.router_users[r][i]] = run.router_grants[i];
    }
  }
  return granted;
}

void serve_member(SimRun& run, EdgeServer& edge, std::size_t u, std::size_t t,
                  double granted) {
  const SystemSimConfig& config = run.config;
  const std::size_t i = run.member_index[u];
  const core::QualityLevel level = edge.allocation.levels[i];
  const double delta_estimate = edge.arena.problem().users[i].delta;
  const double bandwidth_estimate =
      edge.arena.problem().users[i].user_bandwidth;
  if (config.faults.user_disconnected(u, t)) {
    serve_absent_user(run, u, t, level, delta_estimate, bandwidth_estimate);
    return;
  }
  const bool ack_stalled = config.faults.ack_stalled(u, t);
  const std::size_t router = run.net.router_of[u];
  const bool in_fault = config.faults.any_fault_for_user(u, router, t);
  Server& server = edge.server;
  UserWorld& world = run.worlds[u];
  const TileRequest& request = run.requests[u];
  telemetry::Collector* telemetry = run.telemetry;
  const std::int64_t slot = static_cast<std::int64_t>(t);

  SimRun::ServeScratch& scratch = run.serve;

  // The live per-user capacity of the router serving `u`.
  const double capacity =
      run.net.routers[router].per_user_capacity(run.net.index_in_router[u]);

  // Realized delivery delay (ms): M/M/1 on the live link if the
  // router granted the full demand, saturated otherwise.
  double delay_ms = 0.0;
  if (request.demand_mbps > 1e-9) {
    const bool fully_granted = granted + 1e-9 >= request.demand_mbps;
    delay_ms = fully_granted ? net::mm1_delay(request.demand_mbps, capacity)
                             : net::kSaturatedDelay;
  }

  // RTP transmission of each (filtered) tile.
  const double utilization =
      capacity > 1e-9 ? std::clamp(request.demand_mbps / capacity, 0.0, 1.0)
                      : 1.0;
  SlotDelivery& delivery = scratch.delivery;
  delivery.delay_ms = delay_ms;
  delivery.tiles = request.tiles;
  delivery.complete.clear();
  std::uint64_t slot_packets = 0;
  std::uint64_t slot_lost = 0;
  double retx_delay_ms = 0.0;
  {
    telemetry::PhaseSpan tx_span(telemetry, telemetry::Phase::kTransport,
                                 telemetry::Collector::user_pid(u), slot);
    content::TilePricer pricer(server.content_db());
    for (content::VideoId id : request.tiles) {
      const double megabits = pricer.megabits(id);
      const auto tx =
          config.retransmit_rounds > 0
              ? world.transport.send_tile_with_retx(
                    megabits, utilization, config.retransmit_rounds, granted)
              : world.transport.send_tile(megabits, utilization);
      slot_packets += tx.packets + tx.retransmitted;
      slot_lost += tx.lost_packets;
      retx_delay_ms = std::max(retx_delay_ms, tx.extra_delay_ms);
      delivery.complete.push_back(tx.complete());
    }
  }
  delivery.delay_ms += retx_delay_ms;
  delay_ms += retx_delay_ms;
  if (telemetry != nullptr) {
    telemetry->count(telemetry::Counter::kPacketsSent, slot_packets);
    telemetry->count(telemetry::Counter::kPacketsLost, slot_lost);
  }

  // Ground truth for this frame (evaluated against the margin
  // actually delivered, which may be per-user when adaptive).
  const motion::Pose& actual = world.trace[t];
  motion::Pose predicted;
  motion::FovSpec user_fov;
  bool coverage_hit = false;
  {
    telemetry::PhaseSpan predict_span(telemetry, telemetry::Phase::kPredict,
                                      telemetry::Collector::user_pid(u), slot);
    predicted = server.predict_pose(u);
    user_fov = server.fov_for(u);
    coverage_hit = motion::covers(user_fov, predicted, actual);
  }

  // Needed tiles: the actual FoV's (unmargined) tile indices, looked
  // up at the *delivered* cell, gated separately by the position
  // tolerance (footnote 1: the margin never fixes position misses).
  const bool position_ok =
      predicted.position_distance(actual) <= user_fov.position_tolerance_m;
  std::vector<content::VideoId>& needed = scratch.needed;
  needed.clear();
  if (!request.full_set.empty()) {
    const content::TileKey delivered_key =
        content::unpack_video_id(request.full_set.front());
    int needed_tiles[content::kTilesPerFrame];
    const int needed_count =
        content::tiles_for_view(run.unmargined, actual, needed_tiles);
    for (int i = 0; i < needed_count; ++i) {
      needed.push_back(
          content::pack_video_id({delivered_key.cell, needed_tiles[i], level}));
    }
  }

  DisplayOutcome& outcome = scratch.outcome;
  {
    telemetry::PhaseSpan decode_span(telemetry, telemetry::Phase::kDecode,
                                     telemetry::Collector::user_pid(u), slot);
    world.client.process_slot(delivery, needed, outcome);
  }
  const bool viewed = outcome.correct_content && position_ok;

  // Footnote-1 fallback: on a position miss, the frame can still
  // show the prefetched next cell at level 1 if the user actually
  // moved there and its tiles are resident.
  double displayed_quality = viewed ? static_cast<double>(level) : 0.0;
  if (!viewed && outcome.frame_on_time && !request.fallback_set.empty()) {
    const content::TileKey fallback_key =
        content::unpack_video_id(request.fallback_set.front());
    const double cell_m = content::kGridCellMeters;
    const double fx = fallback_key.cell.gx * cell_m;
    const double fy = fallback_key.cell.gy * cell_m;
    const double dist = std::hypot(actual.x - fx, actual.y - fy);
    const bool orientation_ok =
        std::abs(motion::angular_difference(predicted.yaw, actual.yaw)) <=
            user_fov.margin_deg &&
        std::abs(predicted.pitch - actual.pitch) <= user_fov.margin_deg;
    if (dist <= user_fov.position_tolerance_m && orientation_ok) {
      bool resident = true;
      int fb_tiles[content::kTilesPerFrame];
      const int fb_count =
          content::tiles_for_view(run.unmargined, actual, fb_tiles);
      for (int i = 0; i < fb_count; ++i) {
        if (!world.client.buffer().contains(
                content::pack_video_id({fallback_key.cell, fb_tiles[i], 1}))) {
          resident = false;
          break;
        }
      }
      if (resident) displayed_quality = 1.0;
    }
  }

  // QoE bookkeeping (accounting delay capped; see config).
  world.qoe.record_displayed(level, displayed_quality,
                             std::min(delay_ms, config.delay_accounting_cap_ms));
  if (coverage_hit) ++world.hits;
  world.recovery.record_slot(in_fault, viewed, displayed_quality,
                             outcome.frame_on_time);
  if (telemetry != nullptr) {
    if (coverage_hit) telemetry->count(telemetry::Counter::kCoverageHits);
    if (outcome.frame_on_time) {
      telemetry->count(telemetry::Counter::kFramesOnTime);
    }
  }
  telemetry::PhaseSpan feedback_span(telemetry, telemetry::Phase::kFeedback,
                                     telemetry::Collector::user_pid(u), slot);

  // Feedback to the server. The coverage outcome the real client can
  // report is whether the *delivered* portion covered what the user
  // actually saw — prediction misses AND loss/deadline casualties
  // both surface here. Feeding the realized outcome into delta_bar
  // is the negative-feedback loop that makes the delta-aware
  // allocator robust to network degradation (Fig. 8) while
  // delta-oblivious baselines keep overcommitting.
  if (!ack_stalled) {
    server.on_coverage_outcome(u, viewed);
    // Loss-free base channel for the loss-aware decomposition:
    // prediction covered AND the frame displayed on time.
    server.on_base_outcome(u, coverage_hit && outcome.frame_on_time);
    server.on_displayed_quality(u, displayed_quality);
  } else {
    // The TCP side channel's socket is down: every client->server
    // measurement this slot is lost, and so are in-flight ACKs. The
    // server's feedback-silence watchdog covers the gap.
    world.delivery_channel.drop_until(t + 1);
    world.release_channel.drop_until(t + 1);
  }
  // ACKs cross the TCP side channel in wire format; with the default
  // zero-latency channel a healthy slot's send/receive round-trip is
  // exactly a direct delivery. Each message is encoded and decoded
  // back over itself (every field is overwritten from the wire bytes);
  // the message, frame and receive vectors are recycled scratch, and
  // copy-assignment keeps the tile vectors' capacity.
  if (!outcome.delivery_acks.empty()) {
    proto::DeliveryAck& ack = scratch.delivery_ack;
    ack.user = static_cast<std::uint32_t>(u);
    ack.slot = t;
    ack.tiles = outcome.delivery_acks;
    proto::encode(ack, scratch.wire);
    proto::decode(scratch.wire, ack);
    world.delivery_channel.send(t, ack);
  }
  if (!outcome.release_acks.empty()) {
    proto::ReleaseAck& ack = scratch.release_ack;
    ack.user = static_cast<std::uint32_t>(u);
    ack.slot = t;
    ack.tiles = outcome.release_acks;
    proto::encode(ack, scratch.wire);
    proto::decode(scratch.wire, ack);
    world.release_channel.send(t, ack);
  }
  for (const proto::DeliveryAck& ack :
       world.delivery_channel.receive(t, scratch.delivery_received)) {
    server.on_delivery_acks(u, ack.tiles);
  }
  for (const proto::ReleaseAck& ack :
       world.release_channel.receive(t, scratch.release_received)) {
    server.on_release_acks(u, ack.tiles);
  }
  if (!ack_stalled) {
    if (request.demand_mbps > 1e-9) {
      server.on_delay_sample(
          u, request.demand_mbps,
          std::min(delay_ms, config.delay_measurement_window_ms));
    }
    if (slot_packets > 0) {
      server.on_loss_sample(u, utilization,
                            static_cast<double>(slot_lost) /
                                static_cast<double>(slot_packets));
    }
    // Bandwidth measurement: the achieved rate during the busy
    // period tracks the live capacity, observed with multiplicative
    // noise.
    const double measured =
        capacity * run.rng.lognormal(0.0, config.bandwidth_measurement_sigma);
    server.on_bandwidth_sample(u, measured);
  }

  if (run.timeline != nullptr) {
    SlotRecord record;
    record.slot = t;
    record.user = u;
    record.level = level;
    record.delta_estimate = delta_estimate;
    record.bandwidth_estimate_mbps = bandwidth_estimate;
    record.demand_mbps = request.demand_mbps;
    record.granted_mbps = granted;
    record.capacity_mbps = capacity;
    record.delay_ms = delay_ms;
    record.packets = slot_packets;
    record.packets_lost = slot_lost;
    record.frame_on_time = outcome.frame_on_time;
    record.displayed_quality = displayed_quality;
    run.timeline->add(record);
  }
}

void serve_absent_user(SimRun& run, std::size_t u, std::size_t t,
                       core::QualityLevel level, double delta_estimate,
                       double bandwidth_estimate) {
  UserWorld& world = run.worlds[u];
  // Off the network: nothing delivered, nothing displayed, no
  // feedback of any kind. The chosen level still enters the level
  // average (the allocator did budget for it) with zero displayed
  // quality; the missed frame depresses FPS naturally.
  world.qoe.record_displayed(level, 0.0, 0.0);
  world.recovery.record_slot(true, false, 0.0, false);
  if (run.timeline != nullptr) {
    SlotRecord record;
    record.slot = t;
    record.user = u;
    record.level = level;
    record.delta_estimate = delta_estimate;
    record.bandwidth_estimate_mbps = bandwidth_estimate;
    run.timeline->add(record);
  }
}

}  // namespace cvr::system
