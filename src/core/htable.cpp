#include "src/core/htable.h"

#include <stdexcept>
#include <vector>

namespace cvr::core {

void SlotProblemSoA::gather(const SlotProblem& problem) {
  users = problem.user_count();
  stride = simd::padded(users);
  const auto levels = static_cast<std::size_t>(kNumQualityLevels);
  success.resize(levels * stride);
  weight.resize(stride);
  qbar.resize(stride);
  rate.resize(levels * stride);
  delay.resize(levels * stride);
  // Pad lanes: success 1, weight 0, qbar 0, delay 0 and strictly
  // increasing rates make every derived pad output a finite number that
  // passes the dr > 0 validation without masking.
  for (std::size_t i = users; i < stride; ++i) {
    weight[i] = 0.0;
    qbar[i] = 0.0;
    for (std::size_t l = 0; l < levels; ++l) {
      success[l * stride + i] = 1.0;
      rate[l * stride + i] = static_cast<double>(l + 1);
      delay[l * stride + i] = 0.0;
    }
  }
  for (std::size_t i = 0; i < users; ++i) {
    const UserSlotContext& user = problem.users[i];
    const double t = user.slot;
    weight[i] = t > 1.0 ? (t - 1.0) / t : 0.0;
    qbar[i] = user.qbar;
    for (std::size_t l = 0; l < levels; ++l) {
      success[l * stride + i] =
          user.effective_delta(static_cast<QualityLevel>(l + 1));
      rate[l * stride + i] = user.rate[l];
      delay[l * stride + i] = user.delay[l];
    }
  }
}

namespace detail {

void build_htables_scalar(const SlotProblemSoA& soa, const QoeParams& params,
                          double* h, double* increment, double* density) {
  const std::size_t stride = soa.stride;
  for (std::size_t l = 0; l < static_cast<std::size_t>(kNumQualityLevels);
       ++l) {
    const double qv = static_cast<double>(l + 1);
    const double* success_row = soa.success.data() + l * stride;
    const double* delay_row = soa.delay.data() + l * stride;
    double* out = h + l * stride;
    for (std::size_t i = 0; i < stride; ++i) {
      const double s = success_row[i];
      const double w = soa.weight[i];
      const double qb = soa.qbar[i];
      const double dq = qv - qb;
      // The exact expression and association order of
      // detail::h_value_unchecked — the bit-identity anchor.
      const double variance_term = s * w * dq * dq + (1.0 - s) * w * qb * qb;
      out[i] = s * qv - params.alpha * delay_row[i] - params.beta * variance_term;
    }
  }
  for (std::size_t l = 0; l + 1 < static_cast<std::size_t>(kNumQualityLevels);
       ++l) {
    const double* h_lo = h + l * stride;
    const double* h_hi = h + (l + 1) * stride;
    const double* r_lo = soa.rate.data() + l * stride;
    const double* r_hi = soa.rate.data() + (l + 1) * stride;
    double* inc = increment + l * stride;
    double* den = density + l * stride;
    for (std::size_t i = 0; i < stride; ++i) {
      inc[i] = h_hi[i] - h_lo[i];
      den[i] = inc[i] / (r_hi[i] - r_lo[i]);
    }
  }
}

}  // namespace detail

void HTableSet::build(const SlotProblem& problem) {
  soa_.gather(problem);
  users_ = soa_.users;
  stride_ = soa_.stride;
  const auto levels = static_cast<std::size_t>(kNumQualityLevels);
  h_.resize(levels * stride_);
  increment_.resize((levels - 1) * stride_);
  density_.resize((levels - 1) * stride_);
#if defined(CVR_HAVE_AVX2)
  const auto kernel = simd::active_backend() == simd::Backend::kAvx2
                          ? detail::build_htables_avx2
                          : detail::build_htables_scalar;
#else
  const auto kernel = detail::build_htables_scalar;
#endif
  kernel(soa_, problem.params, h_.data(), increment_.data(), density_.data());
  validate_rates();
}

void HTableSet::validate_rates() const {
  // Validated-at-build: this pass over the rate planes replaces
  // h_density's per-call throw. NaN steps are deliberately NOT flagged
  // (dr <= 0 is false for NaN), matching h_density exactly.
  const auto levels = static_cast<std::size_t>(kNumQualityLevels);
  for (std::size_t l = 0; l + 1 < levels; ++l) {
    const double* r_lo = soa_.rate.data() + l * stride_;
    const double* r_hi = soa_.rate.data() + (l + 1) * stride_;
    for (std::size_t i = 0; i < users_; ++i) {
      if (r_hi[i] - r_lo[i] <= 0.0) {
        throw std::logic_error("HTable: rates must be strictly increasing");
      }
    }
  }
}

double HTableSet::evaluate(const std::vector<QualityLevel>& levels) const {
  if (levels.size() != users_) {
    throw std::invalid_argument("HTableSet::evaluate: level count mismatch");
  }
  double total = 0.0;
  for (std::size_t n = 0; n < users_; ++n) {
    total += h_[static_cast<std::size_t>(levels[n] - 1) * stride_ + n];
  }
  return total;
}

}  // namespace cvr::core
