#include "src/core/htable.h"

#include <stdexcept>
#include <vector>

namespace cvr::core {

namespace detail {

bool build_htables_scalar(const SlotProblem& problem, double* h,
                          double* increment, double* density) {
  const std::size_t stride = problem.stride();
  const QoeParams& params = problem.params;
  for (std::size_t l = 0; l < static_cast<std::size_t>(kNumQualityLevels);
       ++l) {
    const double qv = static_cast<double>(l + 1);
    const double* success_row = problem.success.data() + l * stride;
    const double* delay_row = problem.delay.data() + l * stride;
    double* out = h + l * stride;
    for (std::size_t i = 0; i < stride; ++i) {
      // The exact expression and association order of detail::h_lane —
      // the bit-identity anchor.
      out[i] = h_lane(success_row[i], problem.weight[i], problem.qbar[i], qv,
                      delay_row[i], params);
    }
  }
  bool non_increasing = false;
  for (std::size_t l = 0; l + 1 < static_cast<std::size_t>(kNumQualityLevels);
       ++l) {
    const double* h_lo = h + l * stride;
    const double* h_hi = h + (l + 1) * stride;
    const double* r_lo = problem.rate.data() + l * stride;
    const double* r_hi = problem.rate.data() + (l + 1) * stride;
    double* inc = increment + l * stride;
    double* den = density + l * stride;
    for (std::size_t i = 0; i < stride; ++i) {
      const double dr = r_hi[i] - r_lo[i];
      // Ordered compare: false for a NaN step, matching h_density.
      non_increasing |= dr <= 0.0;
      inc[i] = h_hi[i] - h_lo[i];
      den[i] = inc[i] / dr;
    }
  }
  return non_increasing;
}

}  // namespace detail

void HTableSet::build(const SlotProblem& problem) {
  users_ = problem.user_count();
  stride_ = problem.stride();
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
  // Validated-at-build: the kernels' rate check replaces h_density's
  // per-call throw.
  if (kernel(problem, h_.data(), increment_.data(), density_.data())) {
    throw std::logic_error("HTable: rates must be strictly increasing");
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
