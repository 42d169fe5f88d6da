// Least-squares regression utilities.
//
// * SlidingLinearRegressor — per-axis 6-DoF motion prediction
//   (Section V: "We use linear regression to predict the virtual position
//   and head orientation in each axis independently").
// * PolynomialRegressor — delay-vs-rate prediction on the client
//   (Section V: "we use polynomial regression to predict the delay instead
//   of linear regression" because d_n(r) is non-linear).
//
// Both keep their history in one ring, reserved on the first add, so
// neither allocates after that. PolynomialRegressor refits from scratch
// whenever a sample arrived since the last fit, which in the system slot
// is about every third user-slot; the refit works in member scratch. It
// sums the samples oldest to newest with exactly the products the plain
// normal-equation loop forms, so the coefficients do not depend on where
// the ring starts (tests/regression_test.cpp pins them bit for bit
// against a deque-backed fit).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace cvr {

/// Ordinary least squares y = intercept + slope * x over a sliding window
/// of the most recent `window` observations. O(1) update via running sums
/// over a ring of `window` points, reserved on the first add.
class SlidingLinearRegressor {
 public:
  explicit SlidingLinearRegressor(std::size_t window);

  void add(double x, double y);

  std::size_t size() const { return points_.size(); }
  bool ready() const { return points_.size() >= 2; }

  double slope() const;
  double intercept() const;

  /// Predicts y at x. With fewer than 2 points, returns the last y seen
  /// (or 0 when empty) — a persistence forecast.
  double predict(double x) const;

 private:
  std::size_t window_;
  /// The window ring: filled in order, then add overwrites the oldest,
  /// points_[oldest_].
  std::vector<std::pair<double, double>> points_;
  std::size_t oldest_ = 0;
  double sx_ = 0.0, sy_ = 0.0, sxx_ = 0.0, sxy_ = 0.0;
};

/// Polynomial least squares of fixed degree, fit on demand from a bounded
/// history. Solves the normal equations by Gaussian elimination with
/// partial pivoting. Any degree works; degree 2, the delay fit of
/// net::DelayPredictor, sums the normal equations in registers.
class PolynomialRegressor {
 public:
  PolynomialRegressor(int degree, std::size_t max_history);

  /// Appends a sample; once max_history are held, it replaces the oldest.
  void add(double x, double y);

  bool ready() const;

  /// Fits (if dirty) and evaluates the polynomial at x. Falls back to the
  /// mean of observed y (or 0 when empty) while underdetermined.
  double predict(double x);

  /// Coefficients c0..cd of the current fit (fits first if dirty).
  std::vector<double> coefficients();

  std::size_t size() const { return samples_.size(); }

  /// One observation in the history.
  struct Sample {
    double x = 0.0;
    double y = 0.0;
  };

 private:
  void fit();

  int degree_;
  std::size_t max_history_;
  /// The history ring: filled in order until max_history samples, then
  /// add overwrites the oldest, samples_[oldest_].
  std::vector<Sample> samples_;
  std::size_t oldest_ = 0;
  /// Refit scratch, sized once: the normal matrix (dim x dim, row-major)
  /// and right-hand side, which the solver overwrites with the solution.
  std::vector<double> ata_, aty_;
  /// c0..cd of the last successful fit; meaningful only when fitted_.
  std::vector<double> coeffs_;
  bool fitted_ = false;
  bool dirty_ = true;
};

/// Solves the dense linear system a * x = b in place (Gaussian elimination,
/// partial pivoting). `a` is row-major n x n. Returns false if singular.
bool solve_linear_system(std::vector<double>& a, std::vector<double>& b,
                         std::size_t n);

}  // namespace cvr
