#include "src/system/load_server.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>

#include "src/content/rate_function.h"
#include "src/core/registry.h"
#include "src/net/mm1.h"
#include "src/proto/messages.h"
#include "src/util/units.h"

namespace cvr::system {

std::size_t NearestRankTail::rank_index(std::size_t n) {
  const double rank = kP * static_cast<double>(n);
  std::size_t index = static_cast<std::size_t>(std::ceil(rank));
  index = index == 0 ? 0 : index - 1;
  if (n > 0 && index >= n) index = n - 1;
  return index;
}

std::size_t NearestRankTail::tail_size(std::size_t bound) {
  return bound - rank_index(bound);
}

NearestRankTail::NearestRankTail(std::size_t bound)
    : bound_(bound), capacity_(tail_size(bound)) {
  tail_.reserve(capacity_);
}

void NearestRankTail::add(double sample) {
  ++count_;
  if (tail_.size() < capacity_) {
    tail_.push_back(sample);
    std::push_heap(tail_.begin(), tail_.end(), std::greater<>());
  } else if (capacity_ > 0 && sample > tail_.front()) {
    // Replace the smallest kept sample; an equal sample changes no
    // value the tail can report, so it is dropped.
    std::pop_heap(tail_.begin(), tail_.end(), std::greater<>());
    tail_.back() = sample;
    std::push_heap(tail_.begin(), tail_.end(), std::greater<>());
  }
}

double NearestRankTail::quantile() const {
  if (count_ == 0) return 0.0;
  if (count_ > bound_) {
    throw std::logic_error("NearestRankTail: more samples than its bound");
  }
  // The nearest-rank sample is the `from_top`-th largest; the tail keeps
  // the tail_size(bound) >= from_top largest samples.
  const std::size_t from_top = count_ - rank_index(count_);
  if (from_top > tail_.size()) {
    throw std::logic_error("NearestRankTail: the tail lost the p99 sample");
  }
  std::vector<double> kept(tail_);
  const auto nth = kept.begin() + static_cast<std::ptrdiff_t>(from_top - 1);
  std::nth_element(kept.begin(), nth, kept.end(), std::greater<>());
  return *nth;
}

LoadServer::LoadServer(LoadServiceConfig config) : config_(std::move(config)) {
  if (config_.capacity_users == 0) {
    throw std::invalid_argument("LoadServer: zero capacity_users");
  }
  if (!std::isfinite(config_.server_bandwidth_mbps) ||
      config_.server_bandwidth_mbps <= 0.0) {
    throw std::invalid_argument(
        "LoadServer: server_bandwidth_mbps must be positive");
  }
  if (!std::isfinite(config_.user_bandwidth_mbps) ||
      config_.user_bandwidth_mbps <= 0.0) {
    throw std::invalid_argument(
        "LoadServer: user_bandwidth_mbps must be positive");
  }
  if (!std::isfinite(config_.user_bandwidth_jitter) ||
      config_.user_bandwidth_jitter < 0.0 ||
      config_.user_bandwidth_jitter >= 1.0) {
    throw std::invalid_argument(
        "LoadServer: user_bandwidth_jitter must lie in [0, 1)");
  }
  if (!(config_.delta_min > 0.0) || !(config_.delta_max <= 1.0) ||
      config_.delta_min > config_.delta_max) {
    throw std::invalid_argument(
        "LoadServer: delta band must satisfy 0 < min <= max <= 1");
  }
  if (!std::isfinite(config_.slo_p99_ms) || config_.slo_p99_ms <= 0.0) {
    throw std::invalid_argument("LoadServer: slo_p99_ms must be positive");
  }
  if (!std::isfinite(config_.rate_scale_sigma) ||
      config_.rate_scale_sigma < 0.0) {
    throw std::invalid_argument(
        "LoadServer: rate_scale_sigma must be finite and >= 0");
  }
  // A NaN QoE weight makes every h-score NaN, which leaves the
  // allocator's ascent order undefined.
  const auto require_weight = [](double value, const char* field) {
    if (!std::isfinite(value) || value < 0.0) {
      throw std::invalid_argument(std::string("LoadServiceConfig.params.") +
                                  field + ": must be finite and non-negative");
    }
  };
  require_weight(config_.params.alpha, "alpha");
  require_weight(config_.params.beta, "beta");
  if (config_.max_queue_depth == 0) {
    throw std::invalid_argument("LoadServer: max_queue_depth must be >= 1");
  }
  if (config_.allocator_threads != 0) {
    throw std::invalid_argument(
        "LoadServiceConfig.allocator_threads: must be 0 (within-slot "
        "parallelism was removed)");
  }
  if (!core::make_allocator(config_.allocator,
                            core::AllocatorContext::kSystem)) {
    throw std::invalid_argument("LoadServer: unknown allocator '" +
                                config_.allocator + "'");
  }
  // AdmissionController and TrafficGenerator validate their own configs;
  // construct both here so a bad config fails at LoadServer construction,
  // not mid-run.
  AdmissionController check_admission(config_.admission);
  sim::TrafficGenerator check_traffic(config_.traffic, config_.capacity_users);
}

std::size_t LoadServer::level_cap(const Session& session) const {
  if (session.degrade_pinned) return 1;
  if (config_.ramp_slots_per_level == 0) {
    return static_cast<std::size_t>(content::kNumQualityLevels);
  }
  const std::size_t ramped = 1 + session.age_slots / config_.ramp_slots_per_level;
  return std::min<std::size_t>(
      ramped, static_cast<std::size_t>(content::kNumQualityLevels));
}

LoadServiceReport LoadServer::run(std::size_t slots,
                                  telemetry::Collector* collector) {
  sim::TrafficGenerator traffic(config_.traffic, config_.capacity_users);
  AdmissionController admission(config_.admission);
  auto allocator =
      core::make_allocator(config_.allocator, core::AllocatorContext::kSystem);
  // Session attributes come from a stream independent of the arrival
  // process, derived from the same master seed.
  cvr::Rng rng(config_.traffic.seed ^ 0x6C7F9D2E5A3B1810ull);

  telemetry::MetricsRegistry::HistogramId queue_hist = 0;
  const bool counting = collector != nullptr && collector->counting();
  if (counting) {
    queue_hist = collector->registry()->histogram(
        "svc_queue_depth", telemetry::exponential_edges(1.0, 2.0, 12));
  }

  const content::CrfRateFunction base_rate;
  const double budget = config_.server_bandwidth_mbps;

  std::vector<Session> active;
  active.reserve(config_.capacity_users);
  // The accept queue: framed ConnectRequests, each with the stay the
  // client intends. Durations are not part of the wire message (the
  // server does not need to know how long a client intends to stay).
  struct PendingConnect {
    proto::Buffer frame;
    std::size_t duration_slots = 0;
  };
  std::deque<PendingConnect> pending;
  std::vector<sim::SessionRequest> arrivals;
  core::SlotArena arena;
  core::Allocation allocation;
  std::vector<double> demand;
  // In-window samples come from at most capacity_users sessions in each
  // post-warm-up arrival slot, which bounds the p99's tail.
  NearestRankTail delay_tail(
      slots > config_.warmup_slots
          ? config_.capacity_users * (slots - config_.warmup_slots)
          : 0);

  LoadServiceReport report;
  report.horizon_slots = slots;
  double active_sum = 0.0;
  double queue_sum = 0.0;
  std::size_t window_slots = 0;
  double delay_sum = 0.0;
  double qoe_sum = 0.0;
  double connect_credit = 0.0;

  // One paced admission decision, answering the framed request at the
  // head of the accept queue.
  const auto decide_one = [&](const proto::Buffer& frame, std::size_t t) {
    const proto::ConnectRequest request = proto::decode_connect_request(frame);
    Session session;
    session.id = request.session;
    session.qos_ms = request.qos_ms;
    session.user_bandwidth =
        config_.user_bandwidth_mbps *
        rng.uniform(1.0 - config_.user_bandwidth_jitter,
                    1.0 + config_.user_bandwidth_jitter);
    session.delta = rng.uniform(config_.delta_min, config_.delta_max);
    const double rate_scale =
        config_.rate_scale_sigma > 0.0
            ? std::exp(rng.normal(0.0, config_.rate_scale_sigma))
            : 1.0;

    const content::CrfRateFunction f(base_rate.base_mbps(), base_rate.growth(),
                                     rate_scale);
    double mandatory = 0.0;
    for (const Session& s : active) mandatory += s.rate[0];
    const core::UserSlotContext candidate =
        core::UserSlotContext::from_rate_function(f, session.user_bandwidth,
                                                  session.delta, 0.0, 1.0);
    session.rate = candidate.rate;
    session.delay = candidate.delay;
    const AdmissionDecision decision =
        admission.decide(candidate, mandatory, budget, active.size(),
                         config_.capacity_users, config_.params);

    proto::AdmitResponse response;
    response.session = request.session;
    response.slot = static_cast<std::uint64_t>(t);
    response.decision = to_wire(decision);
    response.level_cap =
        decision == AdmissionDecision::kReject
            ? 0
            : (decision == AdmissionDecision::kDegrade
                   ? 1
                   : static_cast<std::uint8_t>(content::kNumQualityLevels));
    const proto::AdmitResponse echoed =
        proto::decode_admit_response(proto::encode(response));

    switch (from_wire(echoed.decision)) {
      case AdmissionDecision::kAdmit:
        ++report.admitted;
        if (collector) collector->count(telemetry::Counter::kSessionsAdmitted);
        break;
      case AdmissionDecision::kDegrade:
        ++report.degraded;
        session.degrade_pinned = true;
        if (collector) collector->count(telemetry::Counter::kSessionsDegraded);
        break;
      case AdmissionDecision::kReject:
        ++report.rejected;
        if (collector) collector->count(telemetry::Counter::kSessionsRejected);
        return;
    }
    active.push_back(session);
  };

  const auto enqueue_arrival = [&](const sim::SessionRequest& request,
                                   std::size_t t) {
    ++report.offered;
    if (collector) collector->count(telemetry::Counter::kSessionsOffered);
    proto::ConnectRequest connect;
    connect.session = request.id;
    connect.slot = static_cast<std::uint64_t>(t);
    connect.qos_ms = request.qos_ms;
    if (pending.size() >= config_.max_queue_depth) {
      // Listen backlog full: refused without an admission decision.
      ++report.rejected;
      if (collector) collector->count(telemetry::Counter::kSessionsRejected);
      return;
    }
    pending.push_back({proto::encode(connect), request.duration_slots});
  };

  const auto serve_slot = [&](std::size_t t, bool in_window) {
    if (active.empty()) return;
    {
      telemetry::PhaseSpan span(collector, telemetry::Phase::kProblemBuild,
                                telemetry::Collector::kServerPid,
                                static_cast<std::int64_t>(t));
      core::SlotProblem& problem = arena.acquire(active.size());
      problem.server_bandwidth = budget;
      problem.params = config_.params;
      const std::size_t stride = problem.stride();
      for (std::size_t i = 0; i < active.size(); ++i) {
        const Session& s = active[i];
        // Every lane of every plane is overwritten (the SlotArena
        // recycling rule).
        problem.weight[i] =
            core::welford_weight(static_cast<double>(s.age_slots + 1));
        problem.qbar[i] = s.qoe.mean_viewed_quality();
        // Ramp / degrade cap through the constraint-(7) clamp: with B_n
        // held at f(cap), no allocator can select a level above the cap.
        // The delay table was built from the true B_n at admission, so
        // capped levels keep their honest delay entries.
        const std::size_t cap = level_cap(s);
        problem.user_bandwidth[i] =
            cap < static_cast<std::size_t>(content::kNumQualityLevels)
                ? std::min(s.user_bandwidth, s.rate[cap - 1])
                : s.user_bandwidth;
        for (std::size_t l = 0; l < s.rate.size(); ++l) {
          problem.success[l * stride + i] = s.delta;
          problem.rate[l * stride + i] = s.rate[l];
          problem.delay[l * stride + i] = s.delay[l];
        }
      }
    }
    {
      telemetry::PhaseSpan span(collector, telemetry::Phase::kAllocSolve,
                                telemetry::Collector::kServerPid,
                                static_cast<std::int64_t>(t));
      allocator->allocate_into(arena.problem(), allocation);
    }
    if (collector) collector->count_allocation(allocation.levels);

    telemetry::PhaseSpan span(collector, telemetry::Phase::kTransport,
                              telemetry::Collector::kServerPid,
                              static_cast<std::int64_t>(t));
    demand.clear();
    double total_demand = 0.0;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const double d =
          active[i].rate[static_cast<std::size_t>(allocation.levels[i] - 1)];
      demand.push_back(d);
      total_demand += d;
    }
    // Congestion model: when the slot's aggregate demand exceeds B, the
    // router serves every user at a proportionally shrunk capacity —
    // the M/M/1 knee then produces the saturated delays that the
    // admission policy exists to prevent.
    const double squeeze =
        total_demand > budget ? budget / total_demand : 1.0;
    for (std::size_t i = 0; i < active.size(); ++i) {
      Session& s = active[i];
      const double capacity = s.user_bandwidth * squeeze;
      const double delay_ms = net::mm1_delay(demand[i], capacity);
      const bool miss = delay_ms > s.qos_ms;
      if (in_window) {
        delay_tail.add(delay_ms);
        delay_sum += delay_ms;
        if (miss) {
          ++report.deadline_misses;
          if (collector) {
            collector->count(telemetry::Counter::kDeadlineMisses);
          }
        }
      }
      const bool viewed = !miss && rng.bernoulli(s.delta);
      s.qoe.record(allocation.levels[i], viewed, delay_ms);
      ++s.age_slots;
      --s.remaining_slots;
    }
    if (collector) collector->count(telemetry::Counter::kSlots);

    // Departures: an expiring session notifies the server and frees its
    // user slot (order-preserving erase keeps the loop deterministic
    // and the allocator's user indices stable-in-order).
    std::size_t kept = 0;
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (active[i].remaining_slots > 0) {
        if (kept != i) active[kept] = std::move(active[i]);
        ++kept;
        continue;
      }
      proto::DisconnectNotice notice;
      notice.session = active[i].id;
      notice.slot = static_cast<std::uint64_t>(t);
      const proto::DisconnectNotice echoed =
          proto::decode_disconnect_notice(proto::encode(notice));
      (void)echoed;
      qoe_sum += active[i].qoe.average_qoe(config_.params);
      ++report.completed_sessions;
    }
    active.resize(kept);
  };

  // --- Arrival horizon -----------------------------------------------
  for (std::size_t t = 0; t < slots; ++t) {
    arrivals.clear();
    traffic.arrivals_for_slot(t, arrivals);
    {
      telemetry::PhaseSpan span(collector, telemetry::Phase::kAdmission,
                                telemetry::Collector::kServerPid,
                                static_cast<std::int64_t>(t));
      for (const sim::SessionRequest& request : arrivals) {
        enqueue_arrival(request, t);
      }
      // connect_speed pacing: the server completes at most
      // connect_speed * kSlotSeconds admissions per slot (fractional
      // credit carries over), so a connection storm drains gradually.
      connect_credit += config_.traffic.connect_speed * kSlotSeconds;
      while (connect_credit >= 1.0 && !pending.empty()) {
        const PendingConnect connect = std::move(pending.front());
        pending.pop_front();
        connect_credit -= 1.0;
        const std::size_t before = active.size();
        decide_one(connect.frame, t);
        if (active.size() > before) {
          active.back().remaining_slots =
              std::max<std::size_t>(1, connect.duration_slots);
        }
      }
      if (connect_credit >= 1.0) connect_credit = 1.0;  // no banked bursts
    }

    report.peak_queue_depth = std::max(report.peak_queue_depth,
                                       pending.size());
    report.peak_active_users = std::max(report.peak_active_users,
                                        active.size());
    if (counting) {
      collector->registry()->record(queue_hist,
                                    static_cast<double>(pending.size()));
    }
    const bool in_window = t >= config_.warmup_slots;
    if (in_window) {
      ++window_slots;
      active_sum += static_cast<double>(active.size());
      queue_sum += static_cast<double>(pending.size());
    }
    serve_slot(t, in_window);
  }

  // Requests still queued when the horizon closes are refused.
  while (!pending.empty()) {
    pending.pop_front();
    ++report.rejected;
    if (collector) collector->count(telemetry::Counter::kSessionsRejected);
  }

  // --- Drain ----------------------------------------------------------
  std::size_t drain = 0;
  while (!active.empty() && drain < config_.max_drain_slots) {
    serve_slot(slots + drain, /*in_window=*/false);
    ++drain;
  }
  report.drain_slots = drain;
  report.drained = active.empty();

  // --- Aggregate ------------------------------------------------------
  if (window_slots > 0) {
    report.mean_active_users =
        active_sum / static_cast<double>(window_slots);
    report.mean_queue_depth = queue_sum / static_cast<double>(window_slots);
  }
  report.delay_samples = delay_tail.count();
  if (report.delay_samples > 0) {
    report.mean_delay_ms =
        delay_sum / static_cast<double>(report.delay_samples);
    report.p99_delay_ms = delay_tail.quantile();
  }
  report.slo_met = report.p99_delay_ms <= config_.slo_p99_ms;
  report.sustained_users = report.slo_met ? report.mean_active_users : 0.0;
  if (report.offered > 0) {
    report.reject_rate = static_cast<double>(report.rejected) /
                         static_cast<double>(report.offered);
  }
  if (report.completed_sessions > 0) {
    report.mean_session_qoe =
        qoe_sum / static_cast<double>(report.completed_sessions);
  }
  return report;
}

}  // namespace cvr::system
