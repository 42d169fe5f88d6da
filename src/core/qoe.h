// The QoE model of Section II and its per-slot decomposition (Section III).
//
// QoE_n(T) = sum_t ( E[q_n(t) 1_n(t)] - alpha E[d_n(f^R(q_n(t)))] )
//            - beta T sigma_n^2(T),
// decomposed via Welford's recurrence (eq. 4) into per-slot terms
//
// h_n(q) = delta_n q - alpha E[d_n(f(q))]
//          - beta ( delta_n (t-1)(q - qbar)^2 / t
//                 + (1 - delta_n)(t-1) qbar^2 / t ),
//
// where delta_n = E[1_n(t)] is the prediction-success probability and
// qbar = qbar_n(t-1) is the running mean of *successfully viewed* quality.
//
// Delay units: the objective uses eq. (13)'s M/M/1 delay
// d = r / (B_n - r) with rates in Mbps, and we read the value in
// *milliseconds* — the natural scale of the local-WLAN RTTs in Fig. 1b
// (equivalently: the queue's mean service time is normalised to 1 ms).
// With B_n - r ~ 10 Mbps of headroom this gives single-digit-ms delays,
// matching the paper's measurements.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "src/content/quality.h"
#include "src/content/rate_function.h"
#include "src/net/mm1.h"

namespace cvr::core {

using content::QualityLevel;
using content::kNumQualityLevels;

/// Tolerance used by EVERY feasibility comparison in the allocator
/// stack — the greedy passes, the exact solvers, h_is_concave's level
/// ceiling, and the free-function oracles in allocator.h all accept
/// rate <= budget + kFeasibilityEpsilon, so an allocation sitting
/// exactly on a cap is feasible for all of them and differential tests
/// can compare solvers bit-for-bit at the boundary.
inline constexpr double kFeasibilityEpsilon = 1e-9;

/// QoE weights (Section II). alpha scales the delay penalty, beta the
/// quality-variance penalty. The paper uses (0.02, 0.5) for the
/// trace-based simulation and (0.1, 0.5) for the real-world system.
struct QoeParams {
  double alpha = 0.02;
  double beta = 0.5;
};

/// The Welford factor (t-1)/t of slot t (1-based), 0 for the first
/// slot: the level-invariant weight of h_n's variance term.
inline double welford_weight(double t) { return t > 1.0 ? (t - 1.0) / t : 0.0; }

/// Everything the per-slot problem knows about one user: exactly the
/// values one lane of a SlotProblem holds (src/core/allocator.h), so a
/// context round-trips through SlotProblem::set_user / user() bit for
/// bit.
///
/// The tables are fixed-size arrays: the level count is a compile-time
/// constant of the content model, so a complete table is a structural
/// invariant — no per-call size validation is needed (or possible) on
/// the hot path, and a context is a flat, allocation-free value.
struct UserSlotContext {
  /// Probability the level-q content is viewed, index q-1: the
  /// prediction-success probability delta at every level, or, in the
  /// Section-VIII loss-aware mode, delta * (1 - frame_loss(q)) —
  /// content is seen iff the prediction covers the FoV AND every packet
  /// of the frame arrives.
  std::array<double, kNumQualityLevels> success{1.0, 1.0, 1.0,
                                                1.0, 1.0, 1.0};
  /// welford_weight(t) of the current slot t; 0 for the first slot.
  double weight = 0.0;
  double qbar = 0.0;        ///< Running mean of viewed quality, qbar_n(t-1).
  double user_bandwidth = 0.0;  ///< B_n(t), Mbps.
  /// f_{c(t)}^R(q) per level, index q-1.
  std::array<double, kNumQualityLevels> rate{};
  /// E[d_n(f(q))] per level, index q-1.
  std::array<double, kNumQualityLevels> delay{};

  /// Sets the per-user history inputs of h_n: success = delta at every
  /// level (the loss-oblivious form), qbar, and the weight of slot t.
  void set_history(double delta, double qbar_in, double slot) {
    success.fill(delta);
    qbar = qbar_in;
    weight = welford_weight(slot);
  }

  /// Builds the rate/delay tables from a rate function and B_n using the
  /// analytic M/M/1 delay (the Section IV setting where the server has
  /// perfect knowledge).
  static UserSlotContext from_rate_function(const content::RateFunction& f,
                                            double user_bandwidth,
                                            double delta, double qbar,
                                            double slot);
};
static_assert(kNumQualityLevels == 6,
              "UserSlotContext::success lists one 1.0 per level");

namespace detail {

/// The exact arithmetic of h_n(q) from one lane's inputs: success s,
/// weight w, qbar qb and delay d at level q. Shared by h_value(), the
/// lane readers and the HTableSet build kernels (which spell out the
/// same operations lane-parallel), so the precomputed table is
/// bit-identical to the direct path *by construction* — every path
/// evaluates this one expression, in this one association order.
inline double h_lane(double s, double w, double qb, double q, double d,
                     const QoeParams& params) {
  const double dq = q - qb;
  const double variance_term = s * w * dq * dq + (1.0 - s) * w * qb * qb;
  return s * q - params.alpha * d - params.beta * variance_term;
}

/// h_lane() on a context. Precondition (asserted by callers):
/// is_valid_level(q).
inline double h_value_unchecked(const UserSlotContext& user, QualityLevel q,
                                const QoeParams& params) {
  const auto idx = static_cast<std::size_t>(q - 1);
  return h_lane(user.success[idx], user.weight, user.qbar,
                static_cast<double>(q), user.delay[idx], params);
}

}  // namespace detail

/// h_n(q) of Section III. Precondition: is_valid_level(q) (throws
/// std::out_of_range otherwise; the table sizes are compile-time
/// invariants of UserSlotContext and need no runtime check).
double h_value(const UserSlotContext& user, QualityLevel q,
               const QoeParams& params);

/// Marginal value v_{n} = h(q+1) - h(q). Requires q+1 valid.
double h_increment(const UserSlotContext& user, QualityLevel q,
                   const QoeParams& params);

/// Marginal density eta_n = (h(q+1) - h(q)) / (f(q+1) - f(q)).
/// Requires strictly increasing rates (guaranteed by RateFunction).
double h_density(const UserSlotContext& user, QualityLevel q,
                 const QoeParams& params);

/// Diagnostic: whether h_n is discretely concave over the levels the
/// user can actually select (f(q) <= B_n — levels beyond the link sit
/// at the saturated-delay cap, where convexity of d() is deliberately
/// truncated, and constraint (7) excludes them from every allocator
/// anyway). Concavity here is the assumption behind Theorem 1's 1/2
/// guarantee: always true for the published model; the Section-VIII
/// frame_loss extension can break it — the allocator still runs, but
/// the formal bound no longer applies.
bool h_is_concave(const UserSlotContext& user, const QoeParams& params);

/// Tracks one user's realized QoE across a horizon: quality samples
/// q_n(t) 1_n(t), delay samples, and the exact variance sigma_n^2(T)
/// computed by Welford's recurrence — by construction identical to the
/// decomposition the allocator optimises against.
class UserQoeAccumulator {
 public:
  /// Records slot t's outcome: chosen level, whether the content was
  /// successfully viewed, and the delivery delay.
  void record(QualityLevel q, bool viewed, double delay);

  /// General form: the user may end up seeing content at a *different*
  /// quality than chosen — e.g. a level-1 fallback cell after a position
  /// misprediction (footnote-1 extension). `displayed_quality` is the
  /// quality sample entering the mean/variance (0 = nothing correct
  /// seen; must lie in [0, kNumQualityLevels]).
  void record_displayed(QualityLevel chosen, double displayed_quality,
                        double delay);

  std::size_t slots() const { return slots_; }
  /// qbar_n(t): running mean of viewed quality (0 before any slot).
  double mean_viewed_quality() const;
  /// Mean *chosen* level (ignores 1_n) — diagnostic, not a QoE term.
  double mean_level() const;
  double mean_delay() const;
  double variance() const;  ///< sigma_n^2(T) so far.

  /// Time-averaged QoE: mean(q 1) - alpha mean(d) - beta sigma^2(T).
  double average_qoe(const QoeParams& params) const;

 private:
  std::size_t slots_ = 0;
  double level_sum_ = 0.0;
  double quality_sum_ = 0.0;
  double quality_mean_ = 0.0;  // Welford mean of q*1
  double quality_m2_ = 0.0;    // Welford M2 of q*1
  double delay_sum_ = 0.0;
};

}  // namespace cvr::core
