#include "src/fleet/fleet_sim.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/proto/messages.h"
#include "src/system/slot_pipeline.h"

namespace cvr::fleet {

namespace {

/// One orphaned user waiting for re-admission.
struct RetryEntry {
  std::size_t user = 0;
  std::size_t crash_slot = 0;
  std::size_t attempts = 0;   ///< Attempts already made.
  std::size_t next_due = 0;   ///< Slot of the next attempt.
};

void count_fleet(telemetry::Collector* telemetry, telemetry::Counter counter,
                 std::uint64_t delta = 1) {
  if (telemetry != nullptr) telemetry->count(counter, delta);
}

}  // namespace

FleetSim::FleetSim(FleetConfig config) : config_(std::move(config)) {
  if (config_.servers == 0) {
    throw std::invalid_argument("FleetConfig.servers: must be positive");
  }
  if (config_.ring_vnodes == 0) {
    throw std::invalid_argument("FleetConfig.ring_vnodes: must be positive");
  }
  if (config_.checkpoint_period_slots == 0) {
    throw std::invalid_argument(
        "FleetConfig.checkpoint_period_slots: must be positive");
  }
  if (config_.ramp_slots_per_level == 0) {
    throw std::invalid_argument(
        "FleetConfig.ramp_slots_per_level: must be positive");
  }
  if (!std::isfinite(config_.backhaul_mbps) || config_.backhaul_mbps < 0.0) {
    throw std::invalid_argument(
        "FleetConfig.backhaul_mbps: must be finite and non-negative");
  }
  if (config_.threads != 1) {
    throw std::invalid_argument(
        "FleetConfig.threads: must be 1 (the across-server fan-out was "
        "removed)");
  }
  validate(config_.backoff);
  for (std::size_t i = 0; i < config_.planned_migrations.size(); ++i) {
    const PlannedMigration& pm = config_.planned_migrations[i];
    if (pm.user >= config_.base.users || pm.to_server >= config_.servers ||
        pm.slot >= config_.base.slots) {
      throw std::invalid_argument("FleetConfig.planned_migrations[" +
                                  std::to_string(i) + "]: out of range");
    }
  }
  system::validate(config_.base);
}

FleetRunResult FleetSim::run(core::Allocator& allocator, std::size_t repeat,
                             system::Timeline* timeline,
                             telemetry::Collector* telemetry) const {
  const system::SystemSimConfig& base = config_.base;
  const std::size_t n_users = base.users;
  const std::size_t n_servers = config_.servers;

  system::SimRun run(base, repeat, allocator, timeline, telemetry);
  telemetry = run.telemetry;

  // Every server carries slots for all users: a user's state lives at
  // the same index wherever they are served, so migration is a state
  // transfer, never a renumbering.
  std::vector<system::EdgeServer> edges;
  edges.reserve(n_servers);
  for (std::size_t k = 0; k < n_servers; ++k) {
    edges.emplace_back(run.server_config, n_users);
  }

  const double total_budget =
      config_.backhaul_mbps > 0.0
          ? config_.backhaul_mbps
          : base.router_aggregate_mbps * static_cast<double>(base.routers);

  const HashRing ring(n_servers, config_.ring_vnodes, base.seed);
  const system::AdmissionController admission(config_.admission);
  const faults::FaultSchedule& faults = base.faults;

  // Controller state. The degrade ladder's level caps live in run.cap
  // (kNumQualityLevels = no cap), where the slot step reads them.
  std::vector<std::size_t> serving(n_users);
  std::vector<std::size_t> home(n_users);
  std::vector<std::size_t> user_migrations(n_users, 0);
  std::vector<bool> orphan(n_users, false);
  std::vector<bool> lost(n_users, false);
  for (std::size_t u = 0; u < n_users; ++u) {
    serving[u] = ring.owner(u);
    home[u] = serving[u];
  }
  std::vector<std::size_t> cap_since(n_users, 0);
  // Latest checkpoint per user, as wire bytes (decode exercises the
  // codec on every failover). Empty until the first checkpoint.
  std::vector<proto::Buffer> checkpoints(n_users);
  std::vector<RetryEntry> retry_queue;

  std::vector<bool> alive(n_servers, true);
  std::vector<bool> partitioned(n_servers, false);

  FleetStats stats;
  stats.per_server.resize(n_servers);
  std::vector<double> budget_sum(n_servers, 0.0);
  std::vector<double> util_sum(n_servers, 0.0);
  std::vector<std::size_t> util_slots(n_servers, 0);
  std::size_t reabsorb_slot_sum = 0;

  // Servers a re-admission may target, refreshed in place before use.
  std::vector<bool> eligible(n_servers);
  auto refresh_eligible = [&] {
    for (std::size_t k = 0; k < n_servers; ++k) {
      eligible[k] = alive[k] && !partitioned[k];
    }
  };
  auto any_eligible = [](const std::vector<bool>& eligible) {
    return std::find(eligible.begin(), eligible.end(), true) !=
           eligible.end();
  };

  // Attempts one re-admission of `user` at `target` with frame bytes
  // already checkpointed; returns true when the user is serving again.
  auto try_readmit = [&](std::size_t user, std::size_t target, std::size_t t,
                         std::size_t crash_slot) {
    stats.retry_attempts += 1;
    count_fleet(telemetry, telemetry::Counter::kFleetRetryAttempts);
    const proto::UserHandoff frame =
        proto::decode_user_handoff(checkpoints[user]);
    const core::UserSlotContext candidate =
        edges[target].server.candidate_context(frame, t + 1);
    const system::EdgeServer& edge = edges[target];
    const double mandatory = edge.server.mandatory_load(edge.members);
    const system::AdmissionDecision decision =
        admission.decide(candidate, mandatory, edge.budget,
                         edge.members.size(), n_users, base.server.params);
    if (decision == system::AdmissionDecision::kReject) {
      stats.rejects += 1;
      count_fleet(telemetry, telemetry::Counter::kFleetMigrationRejects);
      return false;
    }
    edges[target].server.import_handoff(user, frame, t);
    serving[user] = target;
    orphan[user] = false;
    user_migrations[user] += 1;
    stats.migrations += 1;
    count_fleet(telemetry, telemetry::Counter::kFleetMigrations);
    if (decision == system::AdmissionDecision::kDegrade) {
      run.cap[user] = 1;
      cap_since[user] = t;
    }
    stats.reabsorbed_users += 1;
    const std::size_t took = t - crash_slot;
    reabsorb_slot_sum += took;
    stats.max_reabsorb_slots = std::max(stats.max_reabsorb_slots, took);
    return true;
  };

  for (std::size_t t = 0; t < base.slots; ++t) {
    const std::int64_t slot = static_cast<std::int64_t>(t);
    telemetry::PhaseSpan slot_span(telemetry, telemetry::Phase::kSlot,
                                   telemetry::Collector::kServerPid, slot);
    system::step_routers(run.net, faults, t);

    // ---- Fleet control. All pure bookkeeping: no shared-RNG draws, so
    // the measurement stream stays aligned with SystemSim.
    std::vector<std::size_t> crashed_now;
    for (std::size_t k = 0; k < n_servers; ++k) {
      const bool down = faults.server_crashed(k, t);
      if (down && alive[k]) {
        alive[k] = false;
        crashed_now.push_back(k);
        stats.crashes += 1;
        count_fleet(telemetry, telemetry::Counter::kFleetServerCrashes);
      } else if (!down && !alive[k]) {
        alive[k] = true;  // rejoins cold, eligible again
        stats.recoveries += 1;
      }
      const bool part = faults.server_partitioned(k, t);
      if (part && !partitioned[k]) {
        partitioned[k] = true;  // its budget stays frozen at its last value
      } else if (!part && partitioned[k]) {
        partitioned[k] = false;
      }
    }

    // Orphan the members of every server that just went down. The
    // crash wiped its in-memory per-user state.
    for (std::size_t k : crashed_now) {
      for (std::size_t u = 0; u < n_users; ++u) {
        if (serving[u] != k || orphan[u] || lost[u]) continue;
        edges[k].server.reset_user(u);
        orphan[u] = true;
        run.cap[u] = core::kNumQualityLevels;
        stats.affected_users += 1;
        RetryEntry entry;
        entry.user = u;
        entry.crash_slot = t;
        entry.attempts = 0;
        entry.next_due =
            t + retry_delay_slots(config_.backoff, base.seed, u, 0);
        retry_queue.push_back(entry);
      }
    }

    // Current membership (needed for budgets and admission pricing).
    for (system::EdgeServer& edge : edges) edge.members.clear();
    for (std::size_t u = 0; u < n_users; ++u) {
      if (orphan[u] || lost[u]) continue;
      edges[serving[u]].members.push_back(u);
    }

    // Budget split across alive, unpartitioned servers; a partitioned
    // server keeps its frozen share, a dead one gets nothing.
    {
      std::size_t alive_unpart = 0;
      std::size_t alive_members = 0;
      for (std::size_t k = 0; k < n_servers; ++k) {
        if (alive[k] && !partitioned[k]) {
          alive_unpart += 1;
          alive_members += edges[k].members.size();
        }
      }
      for (std::size_t k = 0; k < n_servers; ++k) {
        if (!alive[k]) {
          edges[k].budget = 0.0;
        } else if (partitioned[k]) {
          // frozen
        } else if (config_.budget == BudgetPolicy::kEqual) {
          edges[k].budget = total_budget / static_cast<double>(alive_unpart);
        } else {
          edges[k].budget =
              alive_members == 0
                  ? 0.0
                  : total_budget *
                        static_cast<double>(edges[k].members.size()) /
                        static_cast<double>(alive_members);
        }
      }
    }

    // Mirrored mode: the warm standby attempts re-admission at the
    // crash slot itself — no backoff before the first try.
    if (config_.assignment == AssignmentMode::kMirrored &&
        !crashed_now.empty()) {
      refresh_eligible();
      if (any_eligible(eligible)) {
        for (RetryEntry& entry : retry_queue) {
          if (entry.crash_slot != t || entry.attempts != 0) continue;
          if (checkpoints[entry.user].empty()) continue;
          const std::size_t target = ring.backup(entry.user, eligible);
          entry.attempts = 1;
          if (try_readmit(entry.user, target, t, entry.crash_slot)) {
            edges[target].members.push_back(entry.user);
            entry.next_due = base.slots;  // resolved; swept below
          } else {
            entry.next_due = t + retry_delay_slots(config_.backoff, base.seed,
                                                   entry.user, 1);
          }
        }
      }
    }

    // Retry queue: due entries attempt re-admission at the ring's
    // eligible owner, with exponential backoff + jitter between
    // attempts, bounded attempts, and a per-user timeout.
    {
      refresh_eligible();
      for (RetryEntry& entry : retry_queue) {
        if (!orphan[entry.user] || lost[entry.user]) continue;
        if (t - entry.crash_slot > config_.backoff.timeout_slots ||
            entry.attempts >= config_.backoff.max_attempts) {
          lost[entry.user] = true;
          orphan[entry.user] = true;
          stats.lost_users += 1;
          continue;
        }
        if (entry.next_due > t) continue;
        if (checkpoints[entry.user].empty() || !any_eligible(eligible)) {
          entry.attempts += 1;
          entry.next_due = t + retry_delay_slots(config_.backoff, base.seed,
                                                 entry.user, entry.attempts);
          continue;
        }
        const std::size_t target = ring.owner(entry.user, eligible);
        entry.attempts += 1;
        if (try_readmit(entry.user, target, t, entry.crash_slot)) {
          edges[target].members.push_back(entry.user);
        } else {
          entry.next_due = t + retry_delay_slots(config_.backoff, base.seed,
                                                 entry.user, entry.attempts);
        }
      }
      retry_queue.erase(
          std::remove_if(retry_queue.begin(), retry_queue.end(),
                         [&](const RetryEntry& e) {
                           return !orphan[e.user] || lost[e.user];
                         }),
          retry_queue.end());
    }

    // Scripted live migrations (healthy handoffs): export fresh state,
    // cross the wire, import at the destination.
    for (const PlannedMigration& pm : config_.planned_migrations) {
      if (pm.slot != t) continue;
      const std::size_t from = serving[pm.user];
      if (orphan[pm.user] || lost[pm.user] || !alive[from] ||
          !alive[pm.to_server] || partitioned[from] ||
          partitioned[pm.to_server] || from == pm.to_server) {
        continue;
      }
      const proto::UserHandoff frame = proto::decode_user_handoff(
          proto::encode(edges[from].server.export_handoff(pm.user, t)));
      stats.handoff_frames += 1;
      count_fleet(telemetry, telemetry::Counter::kFleetHandoffFrames);
      edges[pm.to_server].server.import_handoff(pm.user, frame, t);
      edges[from].server.reset_user(pm.user);
      auto& old_members = edges[from].members;
      old_members.erase(
          std::remove(old_members.begin(), old_members.end(), pm.user),
          old_members.end());
      edges[pm.to_server].members.push_back(pm.user);
      serving[pm.user] = pm.to_server;
      user_migrations[pm.user] += 1;
      stats.migrations += 1;
      count_fleet(telemetry, telemetry::Counter::kFleetMigrations);
    }

    // Degrade-ladder release: the cap rises one level per ramp period.
    for (std::size_t u = 0; u < n_users; ++u) {
      if (run.cap[u] >= core::kNumQualityLevels) continue;
      const std::size_t risen =
          (t - cap_since[u]) / config_.ramp_slots_per_level;
      const std::size_t cap = 1 + risen;
      run.cap[u] = cap >= static_cast<std::size_t>(core::kNumQualityLevels)
                       ? core::kNumQualityLevels
                       : static_cast<core::QualityLevel>(cap);
    }

    // Periodic checkpoints (fleets only): every user's carried state is
    // encoded through the wire format so a later crash has a frame.
    if (n_servers > 1 && t % config_.checkpoint_period_slots == 0) {
      for (std::size_t u = 0; u < n_users; ++u) {
        if (orphan[u] || lost[u] || !alive[serving[u]]) continue;
        proto::encode(edges[serving[u]].server.export_handoff(u, t),
                      checkpoints[u]);
        stats.handoff_frames += 1;
        count_fleet(telemetry, telemetry::Counter::kFleetHandoffFrames);
      }
    }

    if (faults.cache_flush_at(t)) {
      for (std::size_t k = 0; k < n_servers; ++k) {
        if (alive[k]) edges[k].server.forget_delivered_tiles();
      }
    }

    // ---- Per-server steps, in server-index order. Orphaned/lost users
    // have no serving server: an idle request at the mandatory floor.
    for (std::size_t u = 0; u < n_users; ++u) {
      if (orphan[u] || lost[u]) run.requests[u].reset(1);
    }
    for (std::size_t k = 0; k < n_servers; ++k) {
      system::EdgeServer& edge = edges[k];
      budget_sum[k] += edge.budget;
      system::step_server(run, edge, allocator, t);
      if (edge.members.empty()) continue;
      // Per-server accounting: allocated load vs the slot's budget.
      stats.per_server[k].served_user_slots += edge.members.size();
      if (edge.budget > 0.0) {
        const core::SlotProblem& problem = edge.arena.problem();
        double allocated = 0.0;
        for (std::size_t i = 0; i < edge.members.size(); ++i) {
          allocated += problem.rate_of(i, edge.allocation.levels[i]);
        }
        util_sum[k] += allocated / edge.budget;
        util_slots[k] += 1;
      }
    }

    const std::vector<double>& granted = system::serve_routers(run, slot);

    // Outcomes in global user order — the shared measurement RNG is
    // consumed per served user exactly as in SystemSim.
    for (std::size_t u = 0; u < n_users; ++u) {
      if (orphan[u] || lost[u]) {
        // Orphaned by a crash: level-1 bookkeeping, zero display, a
        // fault slot for recovery accounting. No RNG draw.
        count_fleet(telemetry, telemetry::Counter::kFleetOrphanUserSlots);
        system::serve_absent_user(run, u, t, 1, 0.0, 0.0);
        continue;
      }
      system::serve_member(run, edges[serving[u]], u, t, granted[u]);
    }
    if (telemetry != nullptr) telemetry->count(telemetry::Counter::kSlots);
  }

  FleetRunResult result;
  result.outcomes = run.finalize();
  for (std::size_t u = 0; u < n_users; ++u) {
    result.outcomes[u].home_server = static_cast<double>(home[u]);
    result.outcomes[u].migrations = static_cast<double>(user_migrations[u]);
  }
  for (std::size_t k = 0; k < n_servers; ++k) {
    stats.per_server[k].mean_budget_mbps =
        budget_sum[k] / static_cast<double>(base.slots);
    stats.per_server[k].mean_utilization =
        util_slots[k] == 0 ? 0.0
                           : util_sum[k] / static_cast<double>(util_slots[k]);
  }
  stats.reabsorbed_fraction =
      stats.affected_users == 0
          ? 1.0
          : static_cast<double>(stats.reabsorbed_users) /
                static_cast<double>(stats.affected_users);
  stats.mean_reabsorb_slots =
      stats.reabsorbed_users == 0
          ? 0.0
          : static_cast<double>(reabsorb_slot_sum) /
                static_cast<double>(stats.reabsorbed_users);
  result.stats = std::move(stats);
  return result;
}

}  // namespace cvr::fleet
