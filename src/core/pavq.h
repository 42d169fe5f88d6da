// Modified PAVQ baseline (Joseph & de Veciana, INFOCOM'12).
//
// Section IV: "Practical Adaptive Variance Aware Quality Allocation
// algorithm (PAVQ). Notice that we cannot directly apply this algorithm
// since it does not consider the delay in the original paper. For a fair
// comparison, we modify the way to calculate mu_i^P ... to adapt to our
// problem setting."
//
// Reproduction (DESIGN.md Section 5). PAVQ is a *price-based* mean-
// variability trade-off policy: each user independently selects the
// level maximising its modified score minus a network price on its rate,
//     q_n = argmax_q  mu_n(q) - lambda f(q),   f(q) <= B_n,
// with mu_n(q) = q - alpha E[d_n(f(q))] - beta (t-1)(q - qbar)^2 / t
// (the delay term is our modification; PAVQ predates FoV prediction, so
// it assumes content is always seen, i.e. delta = 1). The dual price
// lambda adapts by subgradient steps toward the shared budget:
//     lambda <- max(0, lambda + kappa (sum_n f(q_n) - B(t))).
//
// Both the price and the per-user inputs operate on *long-run averages*
// — the form the original algorithm was designed for (it budgets against
// token rates / mean throughput, not instantaneous estimates). PAVQ
// therefore smooths the per-user bandwidth and delay tables it sees with
// a slow EMA before optimising. With slowly varying capacity (Section IV
// traces: multi-second dwell) the smoothing is harmless and PAVQ tracks
// the optimum closely (Fig. 2); under the fast fading/interference of
// the real system its inputs lag reality, it overcommits during dips and
// oscillates — exactly the "vulnerable to the dynamic network
// environment ... inaccurate throughput estimation" behaviour Fig. 8
// reports.
#pragma once

#include <array>
#include <vector>

#include "src/core/allocator.h"

namespace cvr::core {

class PavqAllocator final : public Allocator {
 public:
  /// `kappa`: subgradient step per Mbps of budget violation per slot.
  /// `smoothing_alpha`: EMA weight for the long-run input averages.
  explicit PavqAllocator(double kappa = 5e-4, double smoothing_alpha = 0.02)
      : kappa_(kappa), smoothing_alpha_(smoothing_alpha) {}

  /// Section-IV mode: the trace-based simulation hands every algorithm
  /// perfect per-slot knowledge of throughput and delay, so PAVQ's
  /// long-run input averaging is bypassed (smoothing_alpha = 1).
  static PavqAllocator perfect_knowledge() { return PavqAllocator(5e-4, 1.0); }

  std::string_view name() const override { return "pavq-modified"; }

  Allocation allocate(const SlotProblem& problem) override;

  /// Allocation-free steady state: levels build directly into `out`,
  /// the smoothed inputs recycle their storage, and the objective is
  /// evaluate()'s sum of h over the problem's lanes.
  void allocate_into(const SlotProblem& problem, Allocation& out) override;

  void reset() override {
    price_ = 0.0;
    smoothed_.clear();
  }

  double price() const { return price_; }

 private:
  struct SmoothedInputs {
    double bandwidth = 0.0;
    std::array<double, kNumQualityLevels> delay{};
    bool primed = false;
  };

  /// PAVQ's modified per-user score mu_n(q) (delta forced to 1), on the
  /// smoothed delays and the lane's Welford weight and qbar.
  static double score(const SmoothedInputs& inputs, double weight,
                      double qbar, QualityLevel q, const QoeParams& params);

  /// Folds user n's lane (B_n and delays) into its long-run averages
  /// and returns them. The reference points into recycled member
  /// storage — valid until the next call.
  const SmoothedInputs& smooth(const SlotProblem& problem, std::size_t n);

  double kappa_;
  double smoothing_alpha_;
  double price_ = 0.0;
  std::vector<SmoothedInputs> smoothed_;
};

}  // namespace cvr::core
