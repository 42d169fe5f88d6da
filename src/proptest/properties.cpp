// The built-in property set: differential oracles over the allocator
// stack, the QoE decomposition, the fault-schedule generator, and the
// wire codec.
//
// Everything registers through register_builtin_properties() — a plain
// function called from Registry::instance(), NOT static initializers —
// so linking cvr_proptest as a static library can never silently drop a
// property. Each property is deterministic in the instance seed; see
// property.h for the replay contract.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "src/core/dv_greedy.h"
#include "src/core/fractional.h"
#include "src/core/htable.h"
#include "src/core/optimal.h"
#include "src/core/simd.h"
#include "src/content/hevc_process.h"
#include "src/faults/fault_schedule.h"
#include "src/net/estimators.h"
#include "src/net/mm1.h"
#include "src/net/wifi_channel.h"
#include "src/proptest/domain.h"
#include "src/system/system_sim.h"
#include "src/proptest/property.h"
#include "src/util/stats.h"

namespace cvr::proptest {

namespace {

using core::Allocation;
using core::BruteForceAllocator;
using core::DvGreedyAllocator;
using core::QualityLevel;
using core::SlotProblem;

std::string show_levels(const std::vector<QualityLevel>& levels) {
  std::string out = "{";
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(levels[i]);
  }
  return out + "}";
}

double base_value(const SlotProblem& problem) {
  return core::evaluate(problem,
                        std::vector<QualityLevel>(problem.users.size(), 1));
}

// ---------------------------------------------------------------------------
// Core: DV-greedy differential oracles

/// Restores the SIMD backend on scope exit so a failing check can't
/// leak a forced backend into later properties.
struct BackendGuard {
  core::simd::Backend saved = core::simd::active_backend();
  ~BackendGuard() { core::simd::set_backend_for_testing(saved); }
};

/// The backends this host can actually run — scalar always, AVX2 when
/// compiled in and supported by the CPU (under CVR_FORCE_SCALAR=1 the
/// CI fallback leg still exercises both: availability is a CPU fact,
/// the env var only changes the default dispatch).
std::vector<core::simd::Backend> testable_backends() {
  std::vector<core::simd::Backend> backends{core::simd::Backend::kScalar};
  if (core::simd::avx2_available()) {
    backends.push_back(core::simd::Backend::kAvx2);
  }
  return backends;
}

/// Oracle 1: the lazy-heap argmax is bit-identical to the paper's plain
/// scan — same levels, same objective — including exact score ties
/// (tie_heavy_config duplicates users and quantizes rates to force
/// them). Both implementations must break ties toward the smaller user
/// index for this to hold. Run under EVERY available SIMD backend, and
/// compared ACROSS backends too: scalar-scan, scalar-heap, avx2-scan
/// and avx2-heap must all return the same bits.
CheckResult check_scan_heap_identical(const SlotProblem& problem) {
  using Mode = DvGreedyAllocator::Mode;
  using Strategy = DvGreedyAllocator::Strategy;
  const BackendGuard guard;
  for (Mode mode : {Mode::kDensityOnly, Mode::kValueOnly, Mode::kCombined}) {
    bool have_reference = false;
    Allocation reference;
    for (core::simd::Backend backend : testable_backends()) {
      core::simd::set_backend_for_testing(backend);
      DvGreedyAllocator scan(mode, Strategy::kScan);
      DvGreedyAllocator heap(mode, Strategy::kHeap);
      const Allocation a = scan.allocate(problem);
      const Allocation b = heap.allocate(problem);
      if (a.levels != b.levels) {
        std::ostringstream note;
        note << "mode " << static_cast<int>(mode) << " backend "
             << core::simd::backend_name(backend) << ": scan "
             << show_levels(a.levels) << " != heap " << show_levels(b.levels);
        return fail(note.str());
      }
      if (a.objective != b.objective) {
        return fail("objectives differ: scan " + show_double(a.objective) +
                    " vs heap " + show_double(b.objective));
      }
      if (have_reference &&
          (a.levels != reference.levels ||
           a.objective != reference.objective)) {
        return fail(std::string("backend ") +
                    core::simd::backend_name(backend) +
                    " disagrees with the first backend: " +
                    show_levels(a.levels) + " vs " +
                    show_levels(reference.levels));
      }
      reference = a;
      have_reference = true;
    }
  }
  return pass();
}

/// SIMD ≡ scalar: the AVX2 h-table kernel and the scalar reference
/// produce the same BITS for every h / increment / density entry, and
/// the greedy built on top returns the same allocation. Passes
/// trivially (scalar only) on hosts/builds without AVX2. The generator
/// preset feeds remainder-lane user counts and denormal/extreme-scaled
/// tables, the places a vectorization bug would hide.
CheckResult check_htable_simd_matches_scalar(const SlotProblem& problem) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  if (!core::simd::avx2_available()) return pass();
  const BackendGuard guard;

  core::simd::set_backend_for_testing(core::simd::Backend::kScalar);
  core::HTableSet scalar_tables;
  scalar_tables.build(problem);
  DvGreedyAllocator scalar_greedy;
  const Allocation scalar_alloc = scalar_greedy.allocate(problem);

  core::simd::set_backend_for_testing(core::simd::Backend::kAvx2);
  core::HTableSet avx2_tables;
  avx2_tables.build(problem);
  DvGreedyAllocator avx2_greedy;
  const Allocation avx2_alloc = avx2_greedy.allocate(problem);

  for (std::size_t n = 0; n < problem.user_count(); ++n) {
    for (QualityLevel q = 1; q <= core::kNumQualityLevels; ++q) {
      if (bits(scalar_tables[n].value(q)) != bits(avx2_tables[n].value(q))) {
        return fail("user " + std::to_string(n) + " level " +
                    std::to_string(q) + ": scalar h " +
                    show_double(scalar_tables[n].value(q)) + " != avx2 h " +
                    show_double(avx2_tables[n].value(q)));
      }
      if (q >= core::kNumQualityLevels) continue;
      if (bits(scalar_tables[n].increment(q)) !=
          bits(avx2_tables[n].increment(q))) {
        return fail("user " + std::to_string(n) + " step " +
                    std::to_string(q) + ": increments differ");
      }
      if (bits(scalar_tables[n].density(q)) !=
          bits(avx2_tables[n].density(q))) {
        return fail("user " + std::to_string(n) + " step " +
                    std::to_string(q) + ": densities differ");
      }
    }
  }
  if (scalar_alloc.levels != avx2_alloc.levels ||
      bits(scalar_alloc.objective) != bits(avx2_alloc.objective)) {
    return fail("allocations differ: scalar " +
                show_levels(scalar_alloc.levels) + " obj " +
                show_double(scalar_alloc.objective) + " vs avx2 " +
                show_levels(avx2_alloc.levels) + " obj " +
                show_double(avx2_alloc.objective));
  }
  return pass();
}

/// Reused set ≡ fresh set: a persistent HTableSet fed a mutating slot
/// sequence — unchanged slots, single-user edits, membership churn
/// (swap/copy), a user-count change (the shrink must rewrite the pad
/// lanes) and a QoeParams change — must be bitwise identical at every
/// step to a fresh HTableSet built from scratch on the same problem.
/// This is the contract that lets every engine keep one set per
/// allocator and recycle its storage across slots.
CheckResult check_htable_rebuild_matches_fresh(const SlotProblem& base) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  SlotProblem problem = base;
  core::HTableSet reused;
  const auto compare = [&](const char* step) -> CheckResult {
    core::HTableSet fresh;
    fresh.build(problem);
    reused.build(problem);
    for (std::size_t n = 0; n < problem.user_count(); ++n) {
      for (QualityLevel q = 1; q <= core::kNumQualityLevels; ++q) {
        if (bits(fresh[n].value(q)) != bits(reused[n].value(q))) {
          return fail(std::string(step) + ": user " + std::to_string(n) +
                      " level " + std::to_string(q) + ": fresh h " +
                      show_double(fresh[n].value(q)) + " != reused " +
                      show_double(reused[n].value(q)));
        }
        if (q >= core::kNumQualityLevels) continue;
        if (bits(fresh[n].increment(q)) != bits(reused[n].increment(q))) {
          return fail(std::string(step) + ": user " + std::to_string(n) +
                      " step " + std::to_string(q) + ": increments differ");
        }
        if (bits(fresh[n].density(q)) != bits(reused[n].density(q))) {
          return fail(std::string(step) + ": user " + std::to_string(n) +
                      " step " + std::to_string(q) + ": densities differ");
        }
      }
    }
    return pass();
  };

  CheckResult r = compare("first build");
  if (!r.ok) return r;
  r = compare("unchanged slot");
  if (!r.ok) return r;
  const std::size_t n_users = problem.user_count();
  if (n_users >= 2) {
    problem.users[0] = problem.users[n_users / 2];  // one user changed
    r = compare("one-user copy");
    if (!r.ok) return r;
    std::swap(problem.users[0], problem.users[n_users - 1]);  // churn
    r = compare("user swap");
    if (!r.ok) return r;
  }
  problem.users[0].qbar += 0.25;
  r = compare("qbar drift");
  if (!r.ok) return r;
  problem.users.push_back(problem.users[0]);  // count change
  r = compare("user added");
  if (!r.ok) return r;
  problem.users.pop_back();
  r = compare("user removed");
  if (!r.ok) return r;
  problem.params.alpha = problem.params.alpha * 0.5 + 0.001;
  r = compare("alpha change");
  if (!r.ok) return r;
  problem.users.back().delta =
      std::min(1.0, problem.users.back().delta * 0.5 + 0.1);
  return compare("delta drift after params change");
}

/// Fast-path ≡ reference: the per-slot HTable stores exactly the
/// doubles h_value produces, and its increments/densities (derived by
/// subtraction at build time) are bitwise equal to h_increment /
/// h_density — the identity that licenses routing every allocator
/// through the table. Compared via bit patterns, not ==, so even a
/// sign-of-zero drift would be caught. Run under every available SIMD
/// backend: the AVX2-built table must match the scalar direct path.
CheckResult check_htable_matches_direct(const SlotProblem& problem) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const BackendGuard guard;
  core::HTableSet tables;
  for (core::simd::Backend backend : testable_backends()) {
    core::simd::set_backend_for_testing(backend);
    tables.build(problem);
    const std::string tag =
        std::string(" [") + core::simd::backend_name(backend) + "]";
    for (std::size_t n = 0; n < problem.user_count(); ++n) {
      const auto& user = problem.users[n];
      for (QualityLevel q = 1; q <= core::kNumQualityLevels; ++q) {
        const double direct = core::h_value(user, q, problem.params);
        if (bits(tables[n].value(q)) != bits(direct)) {
          return fail("user " + std::to_string(n) + " level " +
                      std::to_string(q) + ": table h " +
                      show_double(tables[n].value(q)) + " != direct " +
                      show_double(direct) + tag);
        }
        if (q >= core::kNumQualityLevels) continue;
        const double dv = core::h_increment(user, q, problem.params);
        if (bits(tables[n].increment(q)) != bits(dv)) {
          return fail("user " + std::to_string(n) + " step " +
                      std::to_string(q) + ": table increment " +
                      show_double(tables[n].increment(q)) + " != direct " +
                      show_double(dv) + tag);
        }
        const double eta = core::h_density(user, q, problem.params);
        if (bits(tables[n].density(q)) != bits(eta)) {
          return fail("user " + std::to_string(n) + " step " +
                      std::to_string(q) + ": table density " +
                      show_double(tables[n].density(q)) + " != direct " +
                      show_double(eta) + tag);
        }
      }
    }
    // The summed objective must also agree bitwise (same addends, same
    // order), e.g. for the all-ones base every allocator starts from.
    const std::vector<QualityLevel> ones(problem.user_count(), 1);
    if (bits(tables.evaluate(ones)) != bits(core::evaluate(problem, ones))) {
      return fail("all-ones objective differs: table " +
                  show_double(tables.evaluate(ones)) + " != direct " +
                  show_double(core::evaluate(problem, ones)) + tag);
    }
  }
  return pass();
}

/// Oracle 2 (Theorem 1): on the published model the combined greedy's
/// gain over the all-ones base is at least half the exact optimum's
/// gain. Gains, not absolute objectives: level-1 values can be negative
/// through the constant miss-variance term, and the gain is what the
/// paper's proof bounds (see approx_ratio_test.cpp).
CheckResult check_theorem1(const SlotProblem& problem) {
  BruteForceAllocator brute;
  DvGreedyAllocator greedy;
  const double base = base_value(problem);
  const double opt_gain = brute.allocate(problem).objective - base;
  const double greedy_gain = greedy.allocate(problem).objective - base;
  if (opt_gain < -1e-9) {
    return fail("exact optimum below the all-ones base: gain " +
                show_double(opt_gain));
  }
  if (greedy_gain < 0.5 * opt_gain - 1e-9) {
    return fail("greedy gain " + show_double(greedy_gain) +
                " < half of optimal gain " + show_double(opt_gain));
  }
  return pass();
}

/// Oracle 3: fractional relaxation >= exact optimum >= dv-greedy. The
/// left inequality needs concave h (published model); the right holds
/// because greedy's allocation is feasible and brute force is exact.
CheckResult check_bounds_sandwich(const SlotProblem& problem) {
  BruteForceAllocator brute;
  DvGreedyAllocator greedy;
  const double upper = core::fractional_upper_bound(problem);
  const double exact = brute.allocate(problem).objective;
  const double dv = greedy.allocate(problem).objective;
  if (upper < exact - 1e-9) {
    return fail("fractional bound " + show_double(upper) +
                " below exact optimum " + show_double(exact));
  }
  if (exact < dv - 1e-9) {
    return fail("exact optimum " + show_double(exact) +
                " below dv-greedy " + show_double(dv));
  }
  return pass();
}

/// Every strategy/mode combination returns one valid level per user, a
/// feasible allocation (per-user caps, server budget unless all-ones),
/// an objective matching evaluate(), and never less than the mandatory
/// all-ones base it starts from.
CheckResult check_allocation_feasible(const SlotProblem& problem) {
  using Mode = DvGreedyAllocator::Mode;
  using Strategy = DvGreedyAllocator::Strategy;
  const double base = base_value(problem);
  for (Strategy strategy : {Strategy::kScan, Strategy::kHeap}) {
    for (Mode mode :
         {Mode::kDensityOnly, Mode::kValueOnly, Mode::kCombined}) {
      DvGreedyAllocator allocator(mode, strategy);
      const Allocation allocation = allocator.allocate(problem);
      if (allocation.levels.size() != problem.users.size()) {
        return fail("wrong level count: " +
                    std::to_string(allocation.levels.size()));
      }
      if (!core::allocation_feasible(problem, allocation.levels)) {
        return fail("infeasible allocation " +
                    show_levels(allocation.levels));
      }
      const double evaluated = core::evaluate(problem, allocation.levels);
      if (std::abs(allocation.objective - evaluated) >
          1e-9 * std::max(1.0, std::abs(evaluated))) {
        return fail("reported objective " + show_double(allocation.objective) +
                    " != evaluate() " + show_double(evaluated));
      }
      if (allocation.objective < base - 1e-9 * std::max(1.0, std::abs(base))) {
        return fail("objective " + show_double(allocation.objective) +
                    " below the all-ones base " + show_double(base));
      }
    }
  }
  return pass();
}

/// kCombined is exactly "run both passes, keep the better" — its
/// objective equals max(density-only, value-only) bit for bit, for both
/// strategies.
CheckResult check_combined_best_of_passes(const SlotProblem& problem) {
  using Mode = DvGreedyAllocator::Mode;
  using Strategy = DvGreedyAllocator::Strategy;
  for (Strategy strategy : {Strategy::kScan, Strategy::kHeap}) {
    const double density =
        DvGreedyAllocator(Mode::kDensityOnly, strategy).allocate(problem)
            .objective;
    const double value =
        DvGreedyAllocator(Mode::kValueOnly, strategy).allocate(problem)
            .objective;
    const double combined =
        DvGreedyAllocator(Mode::kCombined, strategy).allocate(problem)
            .objective;
    if (combined != std::max(density, value)) {
      return fail("combined " + show_double(combined) +
                  " != max(density " + show_double(density) + ", value " +
                  show_double(value) + ")");
    }
  }
  return pass();
}

/// The published (loss-oblivious, analytic-table) model always yields
/// discretely concave h_n — the assumption behind Theorem 1.
CheckResult check_h_concave(const SlotProblem& problem) {
  for (std::size_t n = 0; n < problem.users.size(); ++n) {
    if (!core::h_is_concave(problem.users[n], problem.params)) {
      return fail("user " + std::to_string(n) +
                  " has non-concave h under the published model");
    }
  }
  return pass();
}

/// Oracle 4 (QoE side): UserQoeAccumulator's incremental Welford state
/// matches a batch recompute of mean / population variance / QoE.
CheckResult check_qoe_accumulator(const QoeTrace& trace) {
  core::UserQoeAccumulator acc;
  for (const auto& step : trace.steps) {
    acc.record_displayed(step.chosen, step.displayed, step.delay);
  }
  const std::size_t n = trace.steps.size();
  if (acc.slots() != n) {
    return fail("slots() " + std::to_string(acc.slots()) + " != " +
                std::to_string(n));
  }
  if (n == 0) return pass();

  long double quality_sum = 0.0L, delay_sum = 0.0L, level_sum = 0.0L;
  for (const auto& step : trace.steps) {
    quality_sum += step.displayed;
    delay_sum += step.delay;
    level_sum += step.chosen;
  }
  const long double mean = quality_sum / n;
  long double m2 = 0.0L;
  for (const auto& step : trace.steps) {
    const long double d = step.displayed - mean;
    m2 += d * d;
  }
  const long double variance = m2 / n;
  // Displayed quality is bounded by kNumQualityLevels and delay by the
  // generator's 50 ms cap, so an absolute ULP-scaled tolerance works.
  const double tol = 1e-12 * static_cast<double>(n) * 64.0;
  const auto close_to = [tol](double got, long double want) {
    return std::abs(got - static_cast<double>(want)) <= tol;
  };
  if (!close_to(acc.mean_viewed_quality(), mean)) {
    return fail("mean_viewed_quality " + show_double(acc.mean_viewed_quality()) +
                " != batch " + show_double(static_cast<double>(mean)));
  }
  if (!close_to(acc.variance(), variance)) {
    return fail("variance " + show_double(acc.variance()) + " != batch " +
                show_double(static_cast<double>(variance)));
  }
  if (!close_to(acc.mean_delay(), delay_sum / n)) {
    return fail("mean_delay " + show_double(acc.mean_delay()) + " != batch " +
                show_double(static_cast<double>(delay_sum / n)));
  }
  if (!close_to(acc.mean_level(), level_sum / n)) {
    return fail("mean_level " + show_double(acc.mean_level()) + " != batch " +
                show_double(static_cast<double>(level_sum / n)));
  }
  const core::QoeParams params{0.02, 0.5};
  const long double qoe = mean - 0.02L * (delay_sum / n) - 0.5L * variance;
  if (!close_to(acc.average_qoe(params), qoe)) {
    return fail("average_qoe " + show_double(acc.average_qoe(params)) +
                " != batch " + show_double(static_cast<double>(qoe)));
  }
  return pass();
}

// ---------------------------------------------------------------------------
// Util: Welford vs batch, RNG contracts

struct BatchMoments {
  long double mean = 0.0L;
  long double variance = 0.0L;  // population
  double min = 0.0;
  double max = 0.0;
};

BatchMoments batch_moments(const std::vector<double>& samples) {
  BatchMoments out;
  if (samples.empty()) return out;
  long double sum = 0.0L;
  out.min = samples[0];
  out.max = samples[0];
  for (double x : samples) {
    sum += x;
    out.min = std::min(out.min, x);
    out.max = std::max(out.max, x);
  }
  out.mean = sum / static_cast<long double>(samples.size());
  long double m2 = 0.0L;
  for (double x : samples) {
    const long double d = x - out.mean;
    m2 += d * d;
  }
  out.variance = m2 / static_cast<long double>(samples.size());
  return out;
}

/// ULP-scaled tolerance for a sample set spanning magnitudes: 1e-12 of
/// the mean squared magnitude (the conditioning scale of a variance
/// computation), never below 1e-12 of the magnitude scale itself.
double moment_tolerance(const std::vector<double>& samples) {
  long double meansq = 0.0L;
  for (double x : samples) meansq += static_cast<long double>(x) * x;
  if (!samples.empty()) meansq /= static_cast<long double>(samples.size());
  return 1e-12 * static_cast<double>(samples.size()) *
         std::max(1.0, static_cast<double>(meansq));
}

/// Oracle: incremental Welford (RunningStat) == batch two-pass
/// recompute, across nine orders of magnitude and exact-repeat runs.
CheckResult check_welford_batch(const SampleStream& stream) {
  cvr::RunningStat stat;
  for (double x : stream.samples) stat.add(x);
  if (stat.count() != stream.samples.size()) {
    return fail("count " + std::to_string(stat.count()));
  }
  if (stream.samples.empty()) return pass();
  const BatchMoments batch = batch_moments(stream.samples);
  const double tol = moment_tolerance(stream.samples);
  if (std::abs(stat.mean() - static_cast<double>(batch.mean)) > tol) {
    return fail("mean " + show_double(stat.mean()) + " != batch " +
                show_double(static_cast<double>(batch.mean)) + " (tol " +
                show_double(tol) + ")");
  }
  if (std::abs(stat.population_variance() -
               static_cast<double>(batch.variance)) > tol) {
    return fail("population_variance " +
                show_double(stat.population_variance()) + " != batch " +
                show_double(static_cast<double>(batch.variance)) + " (tol " +
                show_double(tol) + ")");
  }
  if (stat.min() != batch.min || stat.max() != batch.max) {
    return fail("min/max drift: got [" + show_double(stat.min()) + ", " +
                show_double(stat.max()) + "]");
  }
  return pass();
}

/// Merging split-stream accumulators (parallel Welford) matches feeding
/// the whole stream sequentially.
CheckResult check_welford_merge(const SampleStream& stream) {
  cvr::RunningStat sequential, head, tail;
  for (double x : stream.samples) sequential.add(x);
  for (std::size_t i = 0; i < stream.samples.size(); ++i) {
    (i < stream.split ? head : tail).add(stream.samples[i]);
  }
  head.merge(tail);
  if (head.count() != sequential.count()) {
    return fail("merged count " + std::to_string(head.count()) + " != " +
                std::to_string(sequential.count()));
  }
  if (stream.samples.empty()) return pass();
  const double tol = moment_tolerance(stream.samples);
  if (std::abs(head.mean() - sequential.mean()) > tol) {
    return fail("merged mean " + show_double(head.mean()) +
                " != sequential " + show_double(sequential.mean()));
  }
  if (std::abs(head.population_variance() - sequential.population_variance()) >
      tol) {
    return fail("merged variance " + show_double(head.population_variance()) +
                " != sequential " +
                show_double(sequential.population_variance()));
  }
  if (head.min() != sequential.min() || head.max() != sequential.max()) {
    return fail("merged min/max drift");
  }
  return pass();
}

/// RNG contracts the generators in this harness rely on: inclusive
/// integer bounds, half-open real bounds, degenerate Bernoulli, and
/// seed determinism.
CheckResult check_rng_bounds(const std::uint64_t& seed) {
  cvr::Rng rng(seed);
  for (int k = 0; k < 32; ++k) {
    const std::int64_t lo = rng.uniform_int(-1000, 1000);
    const std::int64_t hi = lo + rng.uniform_int(0, 2000);
    const std::int64_t v = rng.uniform_int(lo, hi);
    if (v < lo || v > hi) {
      return fail("uniform_int(" + std::to_string(lo) + ", " +
                  std::to_string(hi) + ") returned " + std::to_string(v));
    }
    const double a = rng.uniform(-50.0, 50.0);
    const double b = a + rng.uniform(1e-3, 100.0);
    const double x = rng.uniform(a, b);
    if (x < a || x >= b) {
      return fail("uniform(" + show_double(a) + ", " + show_double(b) +
                  ") returned " + show_double(x));
    }
    if (rng.bernoulli(0.0)) return fail("bernoulli(0) returned true");
    if (!rng.bernoulli(1.0)) return fail("bernoulli(1) returned false");
  }
  cvr::Rng twin_a(seed), twin_b(seed);
  for (int k = 0; k < 16; ++k) {
    if (twin_a.engine()() != twin_b.engine()()) {
      return fail("same seed produced diverging streams");
    }
  }
  return pass();
}

// ---------------------------------------------------------------------------
// Net: M/M/1 delay shape

/// Oracle 5: d(r) = r / (B - r) is zero at rest, strictly positive and
/// nondecreasing in r, discretely convex below saturation, capped at
/// kSaturatedDelay, and saturation (r >= B) returns the cap exactly —
/// an infeasible rate never yields a "better" delay.
CheckResult check_mm1_shape(const double& bandwidth) {
  if (net::mm1_delay(0.0, bandwidth) != 0.0) {
    return fail("mm1_delay(0, B) != 0");
  }
  constexpr int kGrid = 64;
  std::vector<double> delay(kGrid + 1, 0.0);
  for (int k = 1; k <= kGrid; ++k) {
    const double r = bandwidth * k / (kGrid + 1.0);
    delay[static_cast<std::size_t>(k)] = net::mm1_delay(r, bandwidth);
    const double d = delay[static_cast<std::size_t>(k)];
    if (!(d > 0.0) || d > net::kSaturatedDelay) {
      return fail("delay out of (0, cap] at r=" + show_double(r) + ": " +
                  show_double(d));
    }
  }
  for (int k = 1; k <= kGrid; ++k) {
    if (delay[static_cast<std::size_t>(k)] <
        delay[static_cast<std::size_t>(k - 1)]) {
      return fail("delay decreased between grid points " +
                  std::to_string(k - 1) + " and " + std::to_string(k));
    }
  }
  for (int k = 1; k < kGrid; ++k) {
    const double second = delay[static_cast<std::size_t>(k + 1)] -
                          2.0 * delay[static_cast<std::size_t>(k)] +
                          delay[static_cast<std::size_t>(k - 1)];
    if (second < -1e-9 * std::max(1.0, delay[static_cast<std::size_t>(k + 1)])) {
      return fail("delay not convex at grid point " + std::to_string(k) +
                  ": second difference " + show_double(second));
    }
  }
  for (double factor : {1.0, 1.5, 100.0}) {
    if (net::mm1_delay(bandwidth * factor, bandwidth) != net::kSaturatedDelay) {
      return fail("saturated rate did not return kSaturatedDelay");
    }
  }
  return pass();
}

// ---------------------------------------------------------------------------
// Faults: schedule generator

bool events_equal(const faults::FaultEvent& a, const faults::FaultEvent& b) {
  return a.type == b.type && a.target == b.target &&
         a.start_slot == b.start_slot &&
         a.duration_slots == b.duration_slots && a.severity == b.severity;
}

/// Oracle 6: generate_schedule is a pure function of the config — two
/// calls agree event-for-event — and its output is sorted by start
/// slot, in-horizon, valid-target, and empty at intensity zero.
CheckResult check_fault_schedule_deterministic(
    const faults::FaultScheduleConfig& config) {
  const faults::FaultSchedule first = faults::generate_schedule(config);
  const faults::FaultSchedule second = faults::generate_schedule(config);
  const auto& a = first.events();
  const auto& b = second.events();
  if (a.size() != b.size()) {
    return fail("regeneration changed event count: " +
                std::to_string(a.size()) + " vs " + std::to_string(b.size()));
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!events_equal(a[i], b[i])) {
      return fail("regeneration changed event " + std::to_string(i));
    }
  }
  if (config.intensity == 0.0 && !a.empty()) {
    return fail("intensity 0 produced " + std::to_string(a.size()) +
                " event(s)");
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const faults::FaultEvent& e = a[i];
    if (i > 0 && e.start_slot < a[i - 1].start_slot) {
      return fail("events not sorted by start_slot at index " +
                  std::to_string(i));
    }
    if (e.start_slot >= config.slots) {
      return fail("event starts beyond the horizon: slot " +
                  std::to_string(e.start_slot));
    }
    if (e.duration_slots == 0) return fail("zero-duration event");
    switch (e.type) {
      case faults::FaultType::kUserDisconnect:
      case faults::FaultType::kPoseBlackout:
      case faults::FaultType::kAckStall:
        if (e.target >= config.users) return fail("user target out of range");
        break;
      case faults::FaultType::kRouterOutage:
        if (e.target >= config.routers) {
          return fail("router target out of range");
        }
        if (e.severity != config.outage_depth) {
          return fail("outage severity " + show_double(e.severity) +
                      " != configured depth " +
                      show_double(config.outage_depth));
        }
        break;
      case faults::FaultType::kCacheFlush:
        break;
      case faults::FaultType::kServerCrash:
      case faults::FaultType::kServerRecover:
      case faults::FaultType::kFleetPartition:
        if (config.servers == 0) {
          return fail("server-scoped event generated with servers == 0");
        }
        if (e.target >= config.servers) {
          return fail("server target out of range");
        }
        break;
    }
  }
  return pass();
}

/// Oracle 6b (fleet): the server-scoped draws are appended strictly
/// after every legacy draw — generating with servers > 0 and stripping
/// the fleet-typed events reproduces the servers == 0 schedule
/// event-for-event, so pre-fleet (seed, config) pairs are unchanged.
CheckResult check_fleet_events_appended(
    const faults::FaultScheduleConfig& config) {
  faults::FaultScheduleConfig fleet = config;
  if (fleet.servers == 0) fleet.servers = 3;  // force the fleet path
  faults::FaultScheduleConfig legacy = fleet;
  legacy.servers = 0;

  const auto is_fleet_event = [](const faults::FaultEvent& e) {
    return e.type == faults::FaultType::kServerCrash ||
           e.type == faults::FaultType::kServerRecover ||
           e.type == faults::FaultType::kFleetPartition;
  };
  const faults::FaultSchedule fleet_schedule = faults::generate_schedule(fleet);
  std::vector<faults::FaultEvent> stripped;
  for (const auto& e : fleet_schedule.events()) {
    if (!is_fleet_event(e)) stripped.push_back(e);
  }
  const faults::FaultSchedule legacy_schedule =
      faults::generate_schedule(legacy);
  const auto& expected = legacy_schedule.events();
  if (stripped.size() != expected.size()) {
    return fail("stripping fleet events changed the legacy count: " +
                std::to_string(stripped.size()) + " vs " +
                std::to_string(expected.size()));
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (!events_equal(stripped[i], expected[i])) {
      return fail("legacy event " + std::to_string(i) +
                  " differs once fleet draws are enabled");
    }
  }
  return pass();
}

/// Every query of `schedule` agrees with a brute-force scan over its own
/// event list at probe points drawn from `probe`: slots run past the
/// horizon, and targets one past the config's range, past every event's
/// target (an empty index row).
CheckResult check_queries_against_scan(
    const faults::FaultSchedule& schedule,
    const faults::FaultScheduleConfig& config, cvr::Rng& probe) {
  const auto& events = schedule.events();

  std::size_t expected_horizon = 0;
  for (const auto& e : events) {
    expected_horizon = std::max(expected_horizon, e.end_slot());
  }
  if (schedule.horizon() != expected_horizon) {
    return fail("horizon() " + std::to_string(schedule.horizon()) +
                " != max end_slot " + std::to_string(expected_horizon));
  }

  const auto active = [&events](faults::FaultType type, std::size_t target,
                                std::size_t slot) {
    for (const auto& e : events) {
      if (e.type == type && e.target == target && e.active_at(slot)) {
        return true;
      }
    }
    return false;
  };

  for (int k = 0; k < 64; ++k) {
    auto user = static_cast<std::size_t>(
        probe.uniform_int(0, static_cast<std::int64_t>(config.users)));
    auto router = static_cast<std::size_t>(
        probe.uniform_int(0, static_cast<std::int64_t>(config.routers)));
    // With servers == 0 the probe still queries server 0: a schedule
    // with no server-scoped events must answer false everywhere.
    auto server = static_cast<std::size_t>(
        probe.uniform_int(0, static_cast<std::int64_t>(config.servers)));
    auto slot = static_cast<std::size_t>(probe.uniform_int(
        0, static_cast<std::int64_t>(config.slots + config.slots / 4)));
    // Half the probes land inside a random event's window, on its
    // target, where overlapping events (and their order) matter.
    if (!events.empty() && probe.bernoulli(0.5)) {
      const faults::FaultEvent& e = events[static_cast<std::size_t>(
          probe.uniform_int(0, static_cast<std::int64_t>(events.size()) - 1))];
      user = router = server = e.target;
      slot = e.start_slot +
             static_cast<std::size_t>(probe.uniform_int(
                 0, static_cast<std::int64_t>(e.duration_slots) - 1));
    }

    if (schedule.user_disconnected(user, slot) !=
        active(faults::FaultType::kUserDisconnect, user, slot)) {
      return fail("user_disconnected mismatch at user " +
                  std::to_string(user) + " slot " + std::to_string(slot));
    }
    if (schedule.pose_blackout(user, slot) !=
        active(faults::FaultType::kPoseBlackout, user, slot)) {
      return fail("pose_blackout mismatch at user " + std::to_string(user) +
                  " slot " + std::to_string(slot));
    }
    if (schedule.ack_stalled(user, slot) !=
        active(faults::FaultType::kAckStall, user, slot)) {
      return fail("ack_stalled mismatch at user " + std::to_string(user) +
                  " slot " + std::to_string(slot));
    }

    double multiplier = 1.0;
    for (const auto& e : events) {
      if (e.type == faults::FaultType::kRouterOutage && e.target == router &&
          e.active_at(slot)) {
        multiplier *= e.severity;
      }
    }
    if (schedule.router_capacity_multiplier(router, slot) != multiplier) {
      return fail("router_capacity_multiplier mismatch at router " +
                  std::to_string(router) + " slot " + std::to_string(slot));
    }

    bool flush = false;
    for (const auto& e : events) {
      if (e.type == faults::FaultType::kCacheFlush && e.start_slot == slot) {
        flush = true;
      }
    }
    if (schedule.cache_flush_at(slot) != flush) {
      return fail("cache_flush_at mismatch at slot " + std::to_string(slot));
    }

    // server_crashed: a covering crash window stands unless a recover
    // for the same server starts inside (crash start, slot].
    bool crashed = false;
    for (const auto& e : events) {
      if (e.type != faults::FaultType::kServerCrash || e.target != server ||
          !e.active_at(slot)) {
        continue;
      }
      bool truncated = false;
      for (const auto& r : events) {
        if (r.type == faults::FaultType::kServerRecover &&
            r.target == server && r.start_slot > e.start_slot &&
            r.start_slot <= slot) {
          truncated = true;
        }
      }
      crashed = crashed || !truncated;
    }
    if (schedule.server_crashed(server, slot) != crashed) {
      return fail("server_crashed mismatch at server " +
                  std::to_string(server) + " slot " + std::to_string(slot));
    }
    if (schedule.server_partitioned(server, slot) !=
        active(faults::FaultType::kFleetPartition, server, slot)) {
      return fail("server_partitioned mismatch at server " +
                  std::to_string(server) + " slot " + std::to_string(slot));
    }

    bool any = false;
    for (const auto& e : events) {
      if (!e.active_at(slot)) continue;
      switch (e.type) {
        case faults::FaultType::kUserDisconnect:
        case faults::FaultType::kPoseBlackout:
        case faults::FaultType::kAckStall:
          any = any || e.target == user;
          break;
        case faults::FaultType::kRouterOutage:
          any = any || e.target == router;
          break;
        case faults::FaultType::kCacheFlush:
          any = true;
          break;
        case faults::FaultType::kServerCrash:
        case faults::FaultType::kServerRecover:
        case faults::FaultType::kFleetPartition:
          break;  // membership is fleet state, never a per-user fault
      }
    }
    if (schedule.any_fault_for_user(user, router, slot) != any) {
      return fail("any_fault_for_user mismatch at user " +
                  std::to_string(user) + " router " + std::to_string(router) +
                  " slot " + std::to_string(slot));
    }
  }
  return pass();
}

/// The schedule's query methods agree with a brute-force scan over the
/// raw event list, both for the generated schedule and for the same
/// events added out of start order together with early server restarts
/// (the generator draws none) and router outages tied on a start slot
/// with distinct severities, whose product depends on the order of
/// multiplication.
CheckResult check_fault_schedule_queries(
    const faults::FaultScheduleConfig& config) {
  const faults::FaultSchedule schedule = faults::generate_schedule(config);
  cvr::Rng probe(config.seed ^ 0x51edu);
  if (CheckResult r = check_queries_against_scan(schedule, config, probe);
      !r.ok) {
    return r;
  }

  std::vector<faults::FaultEvent> events = schedule.events();
  const std::size_t generated = events.size();
  for (std::size_t i = 0; i < generated; ++i) {
    faults::FaultEvent extra = events[i];
    if (extra.type == faults::FaultType::kServerCrash) {
      extra.type = faults::FaultType::kServerRecover;
      extra.start_slot += static_cast<std::size_t>(probe.uniform_int(
          0, static_cast<std::int64_t>(extra.duration_slots)));
      extra.duration_slots = 1;
      events.push_back(extra);
    } else if (extra.type == faults::FaultType::kRouterOutage) {
      for (int copy = 0; copy < 2; ++copy) {
        extra.severity = probe.uniform(0.0, 1.0);
        extra.duration_slots = static_cast<std::size_t>(probe.uniform_int(
            1, static_cast<std::int64_t>(config.mean_duration_slots) * 2));
        events.push_back(extra);
      }
    }
  }
  for (std::size_t i = events.size(); i > 1; --i) {
    std::swap(events[i - 1], events[static_cast<std::size_t>(probe.uniform_int(
                                 0, static_cast<std::int64_t>(i) - 1))]);
  }
  faults::FaultSchedule rebuilt;
  for (const auto& e : events) rebuilt.add(e);
  if (CheckResult r = check_queries_against_scan(rebuilt, config, probe);
      !r.ok) {
    r.note = "events added out of order: " + r.note;
    return r;
  }
  return pass();
}

// ---------------------------------------------------------------------------
// Proto: round-trip and malformed-bytes corpus

WireMessage decode_any(const proto::Buffer& framed) {
  switch (proto::peek_type(framed)) {
    case proto::MessageType::kPoseUpdate:
      return proto::decode_pose_update(framed);
    case proto::MessageType::kDeliveryAck:
      return proto::decode_delivery_ack(framed);
    case proto::MessageType::kReleaseAck:
      return proto::decode_release_ack(framed);
    case proto::MessageType::kTileHeader:
      return proto::decode_tile_header(framed);
    case proto::MessageType::kConnectRequest:
      return proto::decode_connect_request(framed);
    case proto::MessageType::kAdmitResponse:
      return proto::decode_admit_response(framed);
    case proto::MessageType::kDisconnectNotice:
      return proto::decode_disconnect_notice(framed);
    case proto::MessageType::kUserHandoff:
      return proto::decode_user_handoff(framed);
  }
  throw std::runtime_error("decode_any: unreachable tag");
}

/// Oracle 7a: encode -> decode is the identity, and the encoding is
/// canonical (re-encoding the decoded message reproduces the frame).
CheckResult check_proto_roundtrip(const WireMessage& message) {
  const proto::Buffer framed = encode_wire_message(message);
  const WireMessage decoded = decode_any(framed);
  if (!(decoded == message)) {
    return fail("decoded message differs from the original");
  }
  if (encode_wire_message(decoded) != framed) {
    return fail("re-encoding the decoded message changed the bytes");
  }
  return pass();
}

/// Oracle 7b: corrupting a valid frame (single-byte overwrite — an
/// error burst CRC32 always detects — truncation, or a trailing byte)
/// must surface as a thrown parse error, never silent acceptance of
/// different bytes and never UB (the CI sanitizer jobs run this
/// property under ASan+UBSan).
CheckResult check_proto_malformed(const MutationCase& mutation) {
  if (mutation.is_noop()) return pass();
  const proto::Buffer corrupted = mutation.mutated();
  try {
    const WireMessage decoded = decode_any(corrupted);
    if (encode_wire_message(decoded) == corrupted) return pass();
    return fail("decoder silently accepted a corrupted frame");
  } catch (const std::exception&) {
    return pass();  // rejected with a typed error, as required
  }
}

/// Writer/Reader primitive round-trip, bit-exact (doubles compared as
/// bit patterns so negative zero and extreme exponents count), plus the
/// frame/unframe CRC envelope.
CheckResult check_codec_primitives(const std::uint64_t& seed) {
  cvr::Rng rng(seed);
  std::vector<std::uint8_t> u8s;
  std::vector<std::uint16_t> u16s;
  std::vector<std::uint32_t> u32s;
  std::vector<std::uint64_t> u64s;
  std::vector<double> f64s;
  for (int k = 0; k < 8; ++k) {
    u8s.push_back(static_cast<std::uint8_t>(rng.engine()()));
    u16s.push_back(static_cast<std::uint16_t>(rng.engine()()));
    u32s.push_back(static_cast<std::uint32_t>(rng.engine()()));
    u64s.push_back(rng.engine()());
    double value = std::bit_cast<double>(rng.engine()());
    if (std::isnan(value)) value = 0.0;  // NaN != NaN breaks ==
    f64s.push_back(value);
  }
  u64s.push_back(0);
  u64s.push_back(~0ull);
  f64s.push_back(-0.0);

  proto::Buffer payload;
  proto::Writer writer(payload);
  for (auto v : u8s) writer.u8(v);
  for (auto v : u16s) writer.u16(v);
  for (auto v : u32s) writer.u32(v);
  for (auto v : u64s) writer.u64(v);
  for (auto v : f64s) writer.f64(v);
  const auto blob_size = static_cast<std::size_t>(rng.uniform_int(0, 32));
  const proto::Buffer blob(blob_size,
                           static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
  writer.bytes(blob.data(), blob.size());

  proto::Reader reader(payload);
  for (auto v : u8s) {
    if (reader.u8() != v) return fail("u8 round-trip mismatch");
  }
  for (auto v : u16s) {
    if (reader.u16() != v) return fail("u16 round-trip mismatch");
  }
  for (auto v : u32s) {
    if (reader.u32() != v) return fail("u32 round-trip mismatch");
  }
  for (auto v : u64s) {
    if (reader.u64() != v) return fail("u64 round-trip mismatch");
  }
  for (auto v : f64s) {
    if (std::bit_cast<std::uint64_t>(reader.f64()) !=
        std::bit_cast<std::uint64_t>(v)) {
      return fail("f64 round-trip not bit-exact");
    }
  }
  if (reader.bytes() != blob) return fail("bytes round-trip mismatch");
  if (!reader.done()) return fail("reader has trailing bytes");

  const proto::Buffer framed = proto::frame(payload);
  proto::Reader frame_reader(framed);
  const auto unframed = proto::unframe(frame_reader).unread();
  if (!std::equal(unframed.begin(), unframed.end(), payload.begin(),
                  payload.end())) {
    return fail("frame/unframe round-trip mismatch");
  }
  if (!frame_reader.done()) return fail("unframe left trailing bytes");
  return pass();
}

Gen<std::uint64_t> seeds() {
  return [](cvr::Rng& rng) { return rng.engine()(); };
}

// --- workload pack: Wi-Fi / HEVC / probing estimator ----------------------

/// Draws a valid randomized WifiContentionConfig from `rng`.
net::WifiContentionConfig random_wifi_config(cvr::Rng& rng) {
  net::WifiContentionConfig config;
  config.enabled = true;
  config.contention_overhead = rng.uniform(0.0, 0.2);
  config.max_overhead = rng.uniform(0.2, 0.9);
  config.base_error_rate = rng.uniform(0.001, 0.1);
  config.error_growth = rng.uniform(1.0, 1.6);
  config.max_retries = static_cast<std::size_t>(rng.uniform_int(0, 10));
  config.retry_airtime_overhead = rng.uniform(0.0, 1.0);
  config.backoff_base_slots = static_cast<std::size_t>(rng.uniform_int(1, 4));
  config.backoff_multiplier = rng.uniform(1.0, 3.0);
  config.backoff_max_slots = static_cast<std::size_t>(rng.uniform_int(4, 64));
  config.backoff_jitter = rng.uniform(0.0, 0.9);
  return config;
}

/// Airtime shares sum to <= 1 and the per-station share strictly
/// decreases as contenders join, for every valid config.
CheckResult check_wifi_airtime_shares(const std::uint64_t& seed) {
  cvr::Rng rng(seed);
  const net::WifiContentionConfig config = random_wifi_config(rng);
  double previous = 2.0;
  for (std::size_t stations = 1; stations <= 12; ++stations) {
    const auto shares = net::wifi_airtime_shares(config, stations);
    if (shares.size() != stations) return fail("share count != stations");
    double sum = 0.0;
    for (double s : shares) {
      if (!(s > 0.0) || !std::isfinite(s)) {
        return fail("non-positive share at k=" + std::to_string(stations));
      }
      if (s != shares[0]) return fail("shares not airtime-fair");
      sum += s;
    }
    if (sum > 1.0 + 1e-12) {
      return fail("shares sum " + show_double(sum) + " > 1 at k=" +
                  std::to_string(stations));
    }
    if (shares[0] >= previous) {
      return fail("per-station share not decreasing at k=" +
                  std::to_string(stations));
    }
    previous = shares[0];
  }
  return pass();
}

/// Backoff is a pure function of (config, seed, station, attempt),
/// never below one slot, and capped at backoff_max_slots * (1 + jitter).
CheckResult check_wifi_backoff_deterministic(const std::uint64_t& seed) {
  cvr::Rng rng(seed);
  const net::WifiContentionConfig config = random_wifi_config(rng);
  const std::uint64_t channel_seed = rng.engine()();
  const double cap = static_cast<double>(config.backoff_max_slots) *
                     (1.0 + config.backoff_jitter) + 1.0;
  for (std::size_t station = 0; station < 4; ++station) {
    for (std::size_t attempt = 0; attempt < 10; ++attempt) {
      const std::size_t a =
          net::wifi_backoff_slots(config, channel_seed, station, attempt);
      const std::size_t b =
          net::wifi_backoff_slots(config, channel_seed, station, attempt);
      if (a != b) {
        return fail("backoff not deterministic at (" +
                    std::to_string(station) + ", " + std::to_string(attempt) +
                    "): " + std::to_string(a) + " vs " + std::to_string(b));
      }
      if (a < 1) return fail("backoff below one slot");
      if (static_cast<double>(a) > cap) {
        return fail("backoff " + std::to_string(a) + " above cap " +
                    show_double(cap));
      }
    }
  }
  return pass();
}

/// The structural I/P pattern averages to exactly 1 over each GoP
/// (within 1e-9, Welford over the frames of the GoP), and a zero-sigma
/// process replays it.
CheckResult check_hevc_gop_mean(const std::uint64_t& seed) {
  cvr::Rng rng(seed);
  content::HevcProcessConfig config;
  config.enabled = true;
  config.gop_length = static_cast<std::size_t>(rng.uniform_int(1, 64));
  config.i_frame_ratio = rng.uniform(1.0, 12.0);
  config.size_sigma = 0.0;
  config.burst_rho = rng.uniform(0.0, 0.99);
  // Widen the clamps past any reachable structural value (I < R <= 12):
  // the default bounds are part of the *process* model, but this
  // property checks the unclipped structural pattern.
  config.min_multiplier = 1e-3;
  config.max_multiplier = 64.0;
  content::HevcFrameProcess process(config, rng.engine()());
  cvr::RunningStat gop_mean;
  for (std::size_t t = 0; t < 3 * config.gop_length; ++t) {
    const double structural =
        content::hevc_structural_multiplier(config, t % config.gop_length);
    const double stepped = process.step();
    if (stepped != structural) {
      return fail("zero-sigma process diverges from structural at frame " +
                  std::to_string(t));
    }
    gop_mean.add(structural);
    if ((t + 1) % config.gop_length == 0) {
      if (std::abs(gop_mean.mean() - 1.0) > 1e-9) {
        return fail("per-GoP mean " + show_double(gop_mean.mean()) +
                    " != 1 (gop=" + std::to_string(config.gop_length) +
                    ", ratio=" + show_double(config.i_frame_ratio) + ")");
      }
      gop_mean = cvr::RunningStat();
    }
  }
  return pass();
}

/// The probing estimator survives arbitrary (including hostile) sample
/// streams with a finite non-negative estimate, and the budget split
/// conserves the slot budget bitwise: content == total - probe.
CheckResult check_probing_estimator_sane(const std::uint64_t& seed) {
  cvr::Rng rng(seed);
  net::ProbingConfig config;
  config.probe_period_slots = static_cast<std::size_t>(rng.uniform_int(1, 200));
  config.probe_fraction = rng.uniform(0.0, 1.0);
  config.probe_cap_mbps = rng.uniform(0.0, 50.0);
  config.alpha_passive = rng.uniform(1e-3, 1.0);
  config.alpha_probe = rng.uniform(1e-3, 1.0);
  config.initial_mbps = rng.uniform(0.0, 100.0);
  net::ProbingThroughputEstimator estimator(config);
  for (int k = 0; k < 200; ++k) {
    double sample = rng.uniform(-50.0, 200.0);
    const int corrupt = static_cast<int>(rng.uniform_int(0, 19));
    if (corrupt == 0) sample = std::numeric_limits<double>::quiet_NaN();
    if (corrupt == 1) sample = std::numeric_limits<double>::infinity();
    if (rng.bernoulli(0.3)) {
      estimator.observe_probe(sample);
    } else {
      estimator.observe_passive(sample);
    }
    const double estimate = estimator.estimate_mbps();
    if (!std::isfinite(estimate) || estimate < 0.0) {
      return fail("estimate " + show_double(estimate) + " after sample " +
                  show_double(sample));
    }
    const double budget = estimator.probe_budget_mbps();
    if (!std::isfinite(budget) || budget < 0.0) {
      return fail("probe budget " + show_double(budget));
    }
    const double total = rng.uniform(0.0, 120.0);
    const net::BudgetSplit split = net::split_probe_budget(total, budget);
    if (split.probe_mbps < 0.0 || split.probe_mbps > total) {
      return fail("probe share " + show_double(split.probe_mbps) +
                  " outside [0, " + show_double(total) + "]");
    }
    if (split.content_mbps != total - split.probe_mbps) {
      return fail("budget not conserved bitwise: content " +
                  show_double(split.content_mbps) + " != total " +
                  show_double(total) + " - probe " +
                  show_double(split.probe_mbps));
    }
  }
  return pass();
}

/// Defaults-off bit-identity as a property: a SystemSim whose workload
/// pack is disabled — but with every other pack field randomized — is
/// bitwise identical to one that never mentions the pack.
CheckResult check_workload_defaults_inert(const std::uint64_t& seed) {
  cvr::Rng rng(seed);
  system::SystemSimConfig plain = system::setup_one_router(
      static_cast<std::size_t>(rng.uniform_int(2, 4)));
  plain.slots = static_cast<std::size_t>(rng.uniform_int(40, 90));
  plain.seed = rng.engine()();
  system::SystemSimConfig tweaked = plain;
  tweaked.channel.contention = random_wifi_config(rng);
  tweaked.channel.contention.enabled = false;
  tweaked.server.hevc.enabled = false;
  tweaked.server.hevc.gop_length =
      static_cast<std::size_t>(rng.uniform_int(1, 64));
  tweaked.server.hevc.i_frame_ratio = rng.uniform(1.0, 12.0);
  tweaked.server.hevc.size_sigma = rng.uniform(0.0, 1.0);
  tweaked.server.estimator_arm = system::EstimatorArm::kEma;
  tweaked.server.probing.probe_period_slots =
      static_cast<std::size_t>(rng.uniform_int(1, 200));
  tweaked.server.probing.probe_fraction = rng.uniform(0.0, 1.0);
  tweaked.server.probing.alpha_probe = rng.uniform(1e-3, 1.0);
  core::DvGreedyAllocator alloc_plain, alloc_tweaked;
  const auto a = system::SystemSim(plain).run(alloc_plain, 0);
  const auto b = system::SystemSim(tweaked).run(alloc_tweaked, 0);
  if (a.size() != b.size()) return fail("outcome count differs");
  for (std::size_t u = 0; u < a.size(); ++u) {
    if (std::bit_cast<std::uint64_t>(a[u].avg_qoe) !=
            std::bit_cast<std::uint64_t>(b[u].avg_qoe) ||
        std::bit_cast<std::uint64_t>(a[u].avg_quality) !=
            std::bit_cast<std::uint64_t>(b[u].avg_quality) ||
        std::bit_cast<std::uint64_t>(a[u].avg_delay_ms) !=
            std::bit_cast<std::uint64_t>(b[u].avg_delay_ms) ||
        std::bit_cast<std::uint64_t>(a[u].variance) !=
            std::bit_cast<std::uint64_t>(b[u].variance) ||
        std::bit_cast<std::uint64_t>(a[u].fps) !=
            std::bit_cast<std::uint64_t>(b[u].fps)) {
      return fail("disabled workload pack changed user " + std::to_string(u) +
                  ": qoe " + show_double(a[u].avg_qoe) + " vs " +
                  show_double(b[u].avg_qoe));
    }
  }
  return pass();
}

}  // namespace

void register_builtin_properties(Registry& registry) {
  // --- core: allocator differential oracles -------------------------------
  CVR_PROPERTY_ITERS("core.dv_scan_heap_identical", 10000,
                     slot_problems(tie_heavy_config()),
                     check_scan_heap_identical);
  CVR_PROPERTY_ITERS("core.htable_matches_direct", 10000,
                     slot_problems(tie_heavy_config()),
                     check_htable_matches_direct);
  CVR_PROPERTY_ITERS("core.htable_simd_matches_scalar", 10000,
                     slot_problems(extreme_rates_config()),
                     check_htable_simd_matches_scalar);
  CVR_PROPERTY_ITERS("core.htable_rebuild_matches_fresh", 10000,
                     slot_problems(tie_heavy_config()),
                     check_htable_rebuild_matches_fresh);
  {
    SlotProblemGenConfig theorem = published_model_config();
    theorem.max_users = 6;
    CVR_PROPERTY_ITERS("core.dv_theorem1_half_approx", 10000,
                       slot_problems(theorem), check_theorem1);
    CVR_PROPERTY("core.dv_bounds_sandwich", slot_problems(theorem),
                 check_bounds_sandwich);
    CVR_PROPERTY("core.h_concave_published_model", slot_problems(theorem),
                 check_h_concave);
  }
  CVR_PROPERTY("core.dv_allocation_feasible",
               slot_problems(tie_heavy_config()), check_allocation_feasible);
  {
    SlotProblemGenConfig mixed;  // random tables + Section-VIII loss
    mixed.loss_aware_probability = 0.3;
    CVR_PROPERTY("core.dv_combined_best_of_passes", slot_problems(mixed),
                 check_combined_best_of_passes);
  }
  CVR_PROPERTY("core.qoe_accumulator_decomposition", qoe_traces(),
               check_qoe_accumulator);

  // --- util: Welford + RNG -------------------------------------------------
  CVR_PROPERTY("util.welford_matches_batch", sample_streams(),
               check_welford_batch);
  CVR_PROPERTY("util.welford_merge_consistent", sample_streams(),
               check_welford_merge);
  CVR_PROPERTY("util.rng_uniform_int_bounds", seeds(), check_rng_bounds);

  // --- net: M/M/1 delay model ---------------------------------------------
  CVR_PROPERTY("net.mm1_delay_monotone_convex",
               uniform_real(0.5, 300.0), check_mm1_shape);

  // --- faults: schedule generator -----------------------------------------
  CVR_PROPERTY("faults.schedule_deterministic", fault_schedule_configs(),
               check_fault_schedule_deterministic);
  CVR_PROPERTY("faults.schedule_queries_consistent", fault_schedule_configs(),
               check_fault_schedule_queries);
  CVR_PROPERTY("faults.fleet_events_appended", fault_schedule_configs(),
               check_fleet_events_appended);

  // --- workload pack: Wi-Fi / HEVC / probing (docs/workloads.md) -----------
  CVR_PROPERTY("net.wifi_airtime_shares", seeds(), check_wifi_airtime_shares);
  CVR_PROPERTY("net.wifi_backoff_deterministic", seeds(),
               check_wifi_backoff_deterministic);
  CVR_PROPERTY("content.hevc_gop_mean", seeds(), check_hevc_gop_mean);
  CVR_PROPERTY("net.probing_estimator_sane", seeds(),
               check_probing_estimator_sane);
  // Runs two full (small) SystemSims per iteration; a lean budget keeps
  // the default sweep fast while still varying users/slots/seeds.
  CVR_PROPERTY_ITERS("system.workload_defaults_inert", 40, seeds(),
                     check_workload_defaults_inert);

  // --- proto: wire codec ---------------------------------------------------
  CVR_PROPERTY("proto.roundtrip", wire_messages(), check_proto_roundtrip);
  CVR_PROPERTY_ITERS("proto.malformed_rejected", 4000, mutation_cases(),
                     check_proto_malformed);
  CVR_PROPERTY("proto.codec_primitive_roundtrip", seeds(),
               check_codec_primitives);
}

}  // namespace cvr::proptest
