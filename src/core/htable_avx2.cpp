// AVX2 kernel for the SoA h-table build.
//
// This translation unit is the ONLY one compiled with -mavx2 (see
// src/core/CMakeLists.txt), so the rest of the library keeps the
// baseline x86-64 ISA and the runtime dispatcher in simd.cpp decides
// whether this kernel is ever called. Every arithmetic step here is
// the same IEEE-754 operation, in the same association order, as the
// scalar kernel in htable.cpp — AVX2 mul/add/sub/div are lane-wise
// correctly rounded, -mavx2 does not imply FMA, and the project builds
// with -ffp-contract=off, so the outputs are bit-identical to the
// scalar path (docs/vectorization.md).
#include "src/core/htable.h"
#include "src/core/simd.h"

#if defined(CVR_HAVE_AVX2)

#include <immintrin.h>

namespace cvr::core::detail {

bool build_htables_avx2(const SlotProblem& problem, double* h,
                        double* increment, double* density) {
  const std::size_t stride = problem.stride();
  const QoeParams& params = problem.params;
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d alpha = _mm256_set1_pd(params.alpha);
  const __m256d beta = _mm256_set1_pd(params.beta);
  for (std::size_t l = 0; l < static_cast<std::size_t>(kNumQualityLevels);
       ++l) {
    const __m256d qv = _mm256_set1_pd(static_cast<double>(l + 1));
    const double* success_row = problem.success.data() + l * stride;
    const double* delay_row = problem.delay.data() + l * stride;
    double* out = h + l * stride;
    for (std::size_t i = 0; i < stride; i += simd::kLanes) {
      const __m256d s = _mm256_loadu_pd(success_row + i);
      const __m256d w = _mm256_loadu_pd(problem.weight.data() + i);
      const __m256d qb = _mm256_loadu_pd(problem.qbar.data() + i);
      const __m256d dq = _mm256_sub_pd(qv, qb);
      // variance_term = ((s*w)*dq)*dq + (((1-s)*w)*qb)*qb — the exact
      // association order of detail::h_lane.
      const __m256d viewed = _mm256_mul_pd(
          _mm256_mul_pd(_mm256_mul_pd(s, w), dq), dq);
      const __m256d missed = _mm256_mul_pd(
          _mm256_mul_pd(_mm256_mul_pd(_mm256_sub_pd(one, s), w), qb), qb);
      const __m256d variance_term = _mm256_add_pd(viewed, missed);
      const __m256d d = _mm256_loadu_pd(delay_row + i);
      // h = ((s*q) - (alpha*delay)) - (beta*variance_term).
      const __m256d value = _mm256_sub_pd(
          _mm256_sub_pd(_mm256_mul_pd(s, qv), _mm256_mul_pd(alpha, d)),
          _mm256_mul_pd(beta, variance_term));
      _mm256_storeu_pd(out + i, value);
    }
  }
  // Ordered, non-signalling compare: a NaN step is not flagged,
  // matching h_density's `dr <= 0`.
  const __m256d zero = _mm256_setzero_pd();
  __m256d non_increasing = zero;
  for (std::size_t l = 0; l + 1 < static_cast<std::size_t>(kNumQualityLevels);
       ++l) {
    const double* h_lo = h + l * stride;
    const double* h_hi = h + (l + 1) * stride;
    const double* r_lo = problem.rate.data() + l * stride;
    const double* r_hi = problem.rate.data() + (l + 1) * stride;
    double* inc = increment + l * stride;
    double* den = density + l * stride;
    for (std::size_t i = 0; i < stride; i += simd::kLanes) {
      const __m256d dv = _mm256_sub_pd(_mm256_loadu_pd(h_hi + i),
                                       _mm256_loadu_pd(h_lo + i));
      const __m256d dr = _mm256_sub_pd(_mm256_loadu_pd(r_hi + i),
                                       _mm256_loadu_pd(r_lo + i));
      non_increasing = _mm256_or_pd(non_increasing,
                                    _mm256_cmp_pd(dr, zero, _CMP_LE_OQ));
      _mm256_storeu_pd(inc + i, dv);
      _mm256_storeu_pd(den + i, _mm256_div_pd(dv, dr));
    }
  }
  return _mm256_movemask_pd(non_increasing) != 0;
}

}  // namespace cvr::core::detail

#endif  // CVR_HAVE_AVX2
