#include "src/sim/simulation.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "src/core/slot_arena.h"
#include "src/net/mm1.h"
#include "src/util/thread_pool.h"

namespace cvr::sim {

namespace {

/// Clamps a metric position into the content DB's rendered scene.
content::GridCell clamped_cell(const content::ContentDb& db, double x,
                               double y) {
  content::GridCell cell = content::cell_for_position(x, y);
  cell.gx = std::clamp(cell.gx, 0, db.config().grid_width - 1);
  cell.gy = std::clamp(cell.gy, 0, db.config().grid_height - 1);
  return cell;
}

}  // namespace

TraceSimulation::TraceSimulation(TraceSimConfig config,
                                 const trace::TraceRepository& repository)
    : config_(config),
      repository_(&repository),
      motion_generator_(config.motion) {
  if (config_.users == 0) {
    throw std::invalid_argument("TraceSimConfig.users: must be positive");
  }
  if (config_.slots == 0) {
    throw std::invalid_argument("TraceSimConfig.slots: must be positive");
  }
  if (config_.scenes == 0) {
    throw std::invalid_argument("TraceSimConfig.scenes: must be positive");
  }
  // B(t) scales this value; a NaN budget would disable every
  // constraint-(6) check and inf would overflow the DP's budget grid.
  // Zero stays legal: it yields the all-ones allocation.
  if (!std::isfinite(config_.server_mbps_per_user) ||
      config_.server_mbps_per_user < 0.0) {
    throw std::invalid_argument(
        "TraceSimConfig.server_mbps_per_user: must be finite and "
        "non-negative");
  }
  scenes_.reserve(config_.scenes);
  for (std::size_t s = 0; s < config_.scenes; ++s) {
    content::ContentDbConfig scene_config = config_.content;
    scene_config.seed = config_.content.seed + 1000003 * s;
    scenes_.emplace_back(scene_config);
  }
}

std::vector<UserOutcome> TraceSimulation::run(
    core::Allocator& allocator, std::size_t run,
    std::vector<TraceSlotRecord>* log,
    telemetry::Collector* telemetry) const {
  const std::size_t n_users = config_.users;
  allocator.reset();
  // Optional within-slot pool, detached before destruction so the
  // allocator never holds a dangling pointer past this run.
  std::unique_ptr<cvr::ThreadPool> slot_pool;
  if (config_.allocator_threads > 0) {
    slot_pool = std::make_unique<cvr::ThreadPool>(
        cvr::resolve_thread_count(config_.allocator_threads));
  }
  allocator.set_thread_pool(slot_pool.get());
  struct PoolDetach {
    core::Allocator& allocator;
    ~PoolDetach() { allocator.set_thread_pool(nullptr); }
  } pool_detach{allocator};
  if (telemetry != nullptr && !telemetry->counting()) telemetry = nullptr;
  if (telemetry != nullptr && telemetry->tracing()) {
    telemetry->label_process(telemetry::Collector::kServerPid, "server");
    for (std::size_t u = 0; u < n_users; ++u) {
      telemetry->label_process(telemetry::Collector::user_pid(u),
                               "user " + std::to_string(u));
    }
  }

  struct UserState {
    motion::MotionTrace trace;
    trace::SlotMapper bandwidth;
    std::unique_ptr<motion::MotionPredictor> predictor;
    std::unique_ptr<content::HevcFrameProcess> hevc;
    motion::AccuracyEstimator accuracy;
    motion::MarginController margin;
    core::UserQoeAccumulator qoe;
    std::size_t hits = 0;
  };

  auto make_predictor = [&]() -> std::unique_ptr<motion::MotionPredictor> {
    if (config_.predictor_kind == motion::PredictorKind::kLinearRegression) {
      return std::make_unique<motion::LinearMotionPredictor>(
          config_.predictor);
    }
    return motion::make_predictor(config_.predictor_kind);
  };

  std::vector<UserState> users;
  users.reserve(n_users);
  const auto traces = repository_->assign_all(run, n_users);
  for (std::size_t u = 0; u < n_users; ++u) {
    users.push_back(UserState{
        motion_generator_.generate(config_.seed + 1000 * (run + 1), u,
                                   config_.slots),
        trace::SlotMapper(*traces[u], config_.motion.slot_seconds),
        make_predictor(),
        // One codec process per user, seeded per (seed, run, user):
        // deterministic, and absent entirely when the feature is off.
        config_.hevc.enabled
            ? std::make_unique<content::HevcFrameProcess>(
                  config_.hevc, config_.seed + 777 * (run + 1) + u)
            : nullptr,
        motion::AccuracyEstimator(),
        motion::MarginController(config_.fov.margin_deg,
                                 config_.margin_controller),
        core::UserQoeAccumulator(), 0});
  }

  const double server_bandwidth =
      config_.server_mbps_per_user * static_cast<double>(n_users);

  // Per-slot working storage, recycled across the horizon: problem,
  // allocation, and the hit flags keep their capacity so the steady-
  // state build->allocate path is heap-allocation-free (see
  // src/core/slot_arena.h and docs/performance.md).
  core::SlotArena arena;
  core::Allocation allocation;
  std::vector<bool> hit;

  for (std::size_t t = 0; t < config_.slots; ++t) {
    const std::int64_t slot = static_cast<std::int64_t>(t);
    telemetry::PhaseSpan slot_span(telemetry, telemetry::Phase::kSlot,
                                   telemetry::Collector::kServerPid, slot);
    core::SlotProblem& problem = arena.acquire(n_users);
    problem.params = config_.params;
    problem.server_bandwidth = server_bandwidth;

    hit.assign(n_users, false);
    {
      telemetry::PhaseSpan build_span(telemetry,
                                      telemetry::Phase::kProblemBuild,
                                      telemetry::Collector::kServerPid, slot);
      for (std::size_t u = 0; u < n_users; ++u) {
        UserState& user = users[u];
        const motion::Pose& actual = user.trace[t];
        // The server only has poses up to t-1; before the predictor is
        // primed, delivering for the last observed pose is the system's
        // cold-start behaviour (first slot: the pose uploaded on session
        // join, which we model as a hit).
        motion::Pose predicted;
        {
          telemetry::PhaseSpan predict_span(
              telemetry, telemetry::Phase::kPredict,
              telemetry::Collector::user_pid(u), slot);
          predicted = user.predictor->observations() > 0
                          ? user.predictor->predict(1)
                          : actual;
        }
        motion::FovSpec user_fov = config_.fov;
        if (config_.adaptive_margin) {
          user_fov.margin_deg = user.margin.margin_deg();
        }
        hit[u] = motion::covers(user_fov, predicted, actual);

        // The delivered portion's size follows the margin: scale the rate
        // function by the panorama fraction relative to the reference
        // margin (a no-op when margins match the reference).
        motion::FovSpec reference_fov = config_.fov;
        reference_fov.margin_deg = config_.reference_margin_deg;
        const double margin_scale =
            motion::delivered_panorama_fraction(user_fov) /
            motion::delivered_panorama_fraction(reference_fov);

        const double b_n = user.bandwidth.bandwidth_for_slot(t);
        const content::ContentDb& scene = scenes_[u % scenes_.size()];
        const content::GridCell cell =
            clamped_cell(scene, predicted.x, predicted.y);
        // HEVC realism (docs/workloads.md): this slot's frame is priced
        // at its realized I/P-frame size, not the smooth CRF mean.
        const double hevc_mult = user.hevc ? user.hevc->step() : 1.0;
        const content::CrfRateFunction base_f = scene.frame_rate_function(cell);
        const content::CrfRateFunction f(
            base_f.base_mbps(), base_f.growth(),
            base_f.scale() * margin_scale * hevc_mult);
        problem.users[u] = core::UserSlotContext::from_rate_function(
            f, b_n, user.accuracy.estimate(), user.qoe.mean_viewed_quality(),
            static_cast<double>(t + 1));
      }
    }

    {
      telemetry::PhaseSpan solve_span(telemetry, telemetry::Phase::kAllocSolve,
                                      telemetry::Collector::kServerPid, slot);
      allocator.allocate_into(problem, allocation);
    }
    if (allocation.levels.size() != n_users) {
      throw std::logic_error("allocator returned wrong level count");
    }
    if (telemetry != nullptr) {
      telemetry->count_allocation(allocation.levels);
    }

    {
      telemetry::PhaseSpan realize_span(telemetry, telemetry::Phase::kRealize,
                                        telemetry::Collector::kServerPid, slot);
      for (std::size_t u = 0; u < n_users; ++u) {
        UserState& user = users[u];
        const core::QualityLevel q = allocation.levels[u];
        const double delay =
            problem.users[u].delay[static_cast<std::size_t>(q - 1)];
        if (log != nullptr) {
          TraceSlotRecord record;
          record.slot = t;
          record.user = u;
          record.level = q;
          record.bandwidth_mbps = problem.users[u].user_bandwidth;
          record.rate_mbps =
              problem.users[u].rate[static_cast<std::size_t>(q - 1)];
          record.delay_ms = delay;
          record.hit = hit[u];
          record.delta_estimate = problem.users[u].delta;
          record.qbar = problem.users[u].qbar;
          log->push_back(record);
        }
        user.qoe.record(q, hit[u], delay);
        user.accuracy.record(hit[u]);
        if (config_.adaptive_margin) {
          user.margin.update(user.accuracy.estimate());
        }
        if (hit[u]) {
          ++user.hits;
          if (telemetry != nullptr) {
            telemetry->count(telemetry::Counter::kCoverageHits);
          }
        }
        user.predictor->observe(t, user.trace[t]);
      }
    }
    if (telemetry != nullptr) telemetry->count(telemetry::Counter::kSlots);
  }

  std::vector<UserOutcome> outcomes;
  outcomes.reserve(n_users);
  for (const auto& user : users) {
    const double hit_rate =
        static_cast<double>(user.hits) / static_cast<double>(config_.slots);
    outcomes.push_back(make_outcome(user.qoe, config_.params, hit_rate, 0.0));
  }
  return outcomes;
}

std::vector<ArmResult> TraceSimulation::compare(
    const std::vector<core::Allocator*>& allocators, std::size_t runs) const {
  std::vector<ArmResult> results;
  results.reserve(allocators.size());
  for (core::Allocator* allocator : allocators) {
    if (allocator == nullptr) {
      throw std::invalid_argument("compare: null allocator");
    }
    ArmResult arm;
    arm.algorithm = std::string(allocator->name());
    for (std::size_t r = 0; r < runs; ++r) {
      auto outcomes = run(*allocator, r);
      arm.outcomes.insert(arm.outcomes.end(), outcomes.begin(), outcomes.end());
    }
    results.push_back(std::move(arm));
  }
  return results;
}

}  // namespace cvr::sim
