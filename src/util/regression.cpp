#include "src/util/regression.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace cvr {

SlidingLinearRegressor::SlidingLinearRegressor(std::size_t window)
    : window_(window == 0 ? 1 : window) {}

void SlidingLinearRegressor::add(double x, double y) {
  sx_ += x;
  sy_ += y;
  sxx_ += x * x;
  sxy_ += x * y;
  if (points_.size() < window_) {
    if (points_.empty()) points_.reserve(window_);
    points_.emplace_back(x, y);
    return;
  }
  std::pair<double, double>& oldest = points_[oldest_];
  const auto [ox, oy] = oldest;
  sx_ -= ox;
  sy_ -= oy;
  sxx_ -= ox * ox;
  sxy_ -= ox * oy;
  oldest = {x, y};
  oldest_ = oldest_ + 1 == window_ ? 0 : oldest_ + 1;
}

double SlidingLinearRegressor::slope() const {
  const double n = static_cast<double>(points_.size());
  const double denom = n * sxx_ - sx_ * sx_;
  if (std::abs(denom) < 1e-12) return 0.0;
  return (n * sxy_ - sx_ * sy_) / denom;
}

double SlidingLinearRegressor::intercept() const {
  if (points_.empty()) return 0.0;
  const double n = static_cast<double>(points_.size());
  return (sy_ - slope() * sx_) / n;
}

double SlidingLinearRegressor::predict(double x) const {
  if (points_.empty()) return 0.0;
  if (points_.size() == 1) return points_.front().second;
  return intercept() + slope() * x;
}

namespace {

using Sample = PolynomialRegressor::Sample;

/// Normal equations (V^T V) c = V^T y of a Vandermonde V over the samples
/// older[0, n_older) then newer[0, n_newer), oldest first. Row k of V is
/// p_0 = 1, p_i = p_(i-1) * x_k. Only the upper triangle is summed; V^T V
/// is symmetric and p_i * p_j == p_j * p_i, so mirroring it gives the
/// bits of the full double loop. kDim is fixed at compile time and the
/// loops are unrolled outright, so the sums and powers stay in registers;
/// left to the optimiser, powers went through the stack and the refit
/// ran several times slower.
template <std::size_t kDim>
void fixed_normal_equations(const Sample* older, std::size_t n_older,
                            const Sample* newer, std::size_t n_newer,
                            double* ata, double* aty) {
  double sxx[kDim * kDim] = {};
  double sxy[kDim] = {};
  auto accumulate = [&](const Sample* s, std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) {
      const double x = s[k].x;
      const double y = s[k].y;
      double p[kDim];
      double power = 1.0;
#pragma GCC unroll 8
      for (std::size_t i = 0; i < kDim; ++i) {
        p[i] = power;
        power *= x;
      }
#pragma GCC unroll 8
      for (std::size_t i = 0; i < kDim; ++i) {
        sxy[i] += p[i] * y;
#pragma GCC unroll 8
        for (std::size_t j = i; j < kDim; ++j) {
          sxx[i * kDim + j] += p[i] * p[j];
        }
      }
    }
  };
  accumulate(older, n_older);
  accumulate(newer, n_newer);
  for (std::size_t i = 0; i < kDim; ++i) {
    aty[i] = sxy[i];
    for (std::size_t j = i; j < kDim; ++j) {
      ata[i * kDim + j] = ata[j * kDim + i] = sxx[i * kDim + j];
    }
  }
}

/// fixed_normal_equations for any `dim`, summing in ata/aty directly.
void normal_equations(std::size_t dim, const Sample* older,
                      std::size_t n_older, const Sample* newer,
                      std::size_t n_newer, double* ata, double* aty) {
  std::fill(ata, ata + dim * dim, 0.0);
  std::fill(aty, aty + dim, 0.0);
  auto accumulate = [&](const Sample* s, std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) {
      double pi = 1.0;
      for (std::size_t i = 0; i < dim; ++i) {
        aty[i] += pi * s[k].y;
        double pj = pi;
        for (std::size_t j = i; j < dim; ++j) {
          ata[i * dim + j] += pi * pj;
          pj *= s[k].x;
        }
        pi *= s[k].x;
      }
    }
  };
  accumulate(older, n_older);
  accumulate(newer, n_newer);
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < i; ++j) ata[i * dim + j] = ata[j * dim + i];
  }
}

}  // namespace

PolynomialRegressor::PolynomialRegressor(int degree, std::size_t max_history)
    : degree_(degree < 0 ? 0 : degree),
      max_history_(max_history == 0 ? 1 : max_history) {
  const std::size_t dim = static_cast<std::size_t>(degree_) + 1;
  ata_.resize(dim * dim);
  aty_.resize(dim);
  coeffs_.resize(dim);
}

void PolynomialRegressor::add(double x, double y) {
  if (samples_.size() < max_history_) {
    if (samples_.empty()) samples_.reserve(max_history_);
    samples_.push_back({x, y});
  } else {
    samples_[oldest_] = {x, y};
    oldest_ = oldest_ + 1 == max_history_ ? 0 : oldest_ + 1;
  }
  dirty_ = true;
}

bool PolynomialRegressor::ready() const {
  return samples_.size() >= static_cast<std::size_t>(degree_) + 1;
}

void PolynomialRegressor::fit() {
  if (!dirty_) return;
  dirty_ = false;
  fitted_ = false;
  if (!ready()) return;
  const std::size_t dim = aty_.size();
  // Oldest first: the ring's tail [oldest_, size), then its head.
  const Sample* older = samples_.data() + oldest_;
  const std::size_t n_older = samples_.size() - oldest_;
  const Sample* newer = samples_.data();
  const std::size_t n_newer = oldest_;
  double* ata = ata_.data();
  double* aty = aty_.data();
  // Degree 2, the delay fit (net::DelayPredictor), is the hot refit.
  if (dim == 3) {
    fixed_normal_equations<3>(older, n_older, newer, n_newer, ata, aty);
  } else {
    normal_equations(dim, older, n_older, newer, n_newer, ata, aty);
  }
  if (solve_linear_system(ata_, aty_, dim)) {
    std::copy(aty_.begin(), aty_.end(), coeffs_.begin());
    fitted_ = true;
  }
}

double PolynomialRegressor::predict(double x) {
  fit();
  if (!fitted_) {
    if (samples_.empty()) return 0.0;
    double total = 0.0;
    for (std::size_t k = 0; k < samples_.size(); ++k) {
      total += samples_[(oldest_ + k) % samples_.size()].y;
    }
    return total / static_cast<double>(samples_.size());
  }
  double result = 0.0;
  double power = 1.0;
  for (double c : coeffs_) {
    result += c * power;
    power *= x;
  }
  return result;
}

std::vector<double> PolynomialRegressor::coefficients() {
  fit();
  return fitted_ ? coeffs_ : std::vector<double>{};
}

bool solve_linear_system(std::vector<double>& a, std::vector<double>& b,
                         std::size_t n) {
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row) {
      if (std::abs(a[row * n + col]) > std::abs(a[pivot * n + col])) pivot = row;
    }
    if (std::abs(a[pivot * n + col]) < 1e-12) return false;
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a[col * n + j], a[pivot * n + j]);
      std::swap(b[col], b[pivot]);
    }
    for (std::size_t row = col + 1; row < n; ++row) {
      const double factor = a[row * n + col] / a[col * n + col];
      for (std::size_t j = col; j < n; ++j) a[row * n + j] -= factor * a[col * n + j];
      b[row] -= factor * b[col];
    }
  }
  for (std::size_t i = n; i-- > 0;) {
    double total = b[i];
    for (std::size_t j = i + 1; j < n; ++j) total -= a[i * n + j] * b[j];
    b[i] = total / a[i * n + i];
  }
  return true;
}

}  // namespace cvr
