#include "src/core/allocator.h"

#include <algorithm>
#include <stdexcept>

#include "src/core/simd.h"

namespace cvr::core {

namespace {
constexpr auto kLevels = static_cast<std::size_t>(kNumQualityLevels);
}  // namespace

void SlotProblem::resize(std::size_t users) {
  users_ = users;
  stride_ = simd::padded(users);
  success.resize(kLevels * stride_);
  weight.resize(stride_);
  qbar.resize(stride_);
  rate.resize(kLevels * stride_);
  delay.resize(kLevels * stride_);
  user_bandwidth.resize(stride_);
  // Pad lanes: success 1, weight 0, qbar 0, delay 0 and strictly
  // increasing rates make every derived pad output a finite number that
  // passes the kernels' dr > 0 check without masking.
  for (std::size_t i = users_; i < stride_; ++i) {
    weight[i] = 0.0;
    qbar[i] = 0.0;
    user_bandwidth[i] = 0.0;
    for (std::size_t l = 0; l < kLevels; ++l) {
      success[l * stride_ + i] = 1.0;
      rate[l * stride_ + i] = static_cast<double>(l + 1);
      delay[l * stride_ + i] = 0.0;
    }
  }
}

void SlotProblem::set_user(std::size_t n, const UserSlotContext& user) {
  if (n >= users_) throw std::out_of_range("SlotProblem::set_user: no lane");
  weight[n] = user.weight;
  qbar[n] = user.qbar;
  user_bandwidth[n] = user.user_bandwidth;
  for (std::size_t l = 0; l < kLevels; ++l) {
    success[l * stride_ + n] = user.success[l];
    rate[l * stride_ + n] = user.rate[l];
    delay[l * stride_ + n] = user.delay[l];
  }
}

UserSlotContext SlotProblem::user(std::size_t n) const {
  if (n >= users_) throw std::out_of_range("SlotProblem::user: no lane");
  UserSlotContext out;
  out.weight = weight[n];
  out.qbar = qbar[n];
  out.user_bandwidth = user_bandwidth[n];
  for (std::size_t l = 0; l < kLevels; ++l) {
    out.success[l] = success[l * stride_ + n];
    out.rate[l] = rate[l * stride_ + n];
    out.delay[l] = delay[l * stride_ + n];
  }
  return out;
}

void SlotProblem::push_back(const UserSlotContext& user) {
  const std::size_t n = users_;
  if (simd::padded(n + 1) == stride_) {
    resize(n + 1);  // lane n was a pad; the stride is unchanged
  } else {
    std::vector<UserSlotContext> kept;
    kept.reserve(n + 1);
    for (std::size_t i = 0; i < n; ++i) kept.push_back(this->user(i));
    resize(n + 1);
    for (std::size_t i = 0; i < n; ++i) set_user(i, kept[i]);
  }
  set_user(n, user);
}

void SlotProblem::erase(std::size_t n) {
  if (n >= users_) throw std::out_of_range("SlotProblem::erase: no lane");
  std::vector<UserSlotContext> kept;
  kept.reserve(users_ - 1);
  for (std::size_t i = 0; i < users_; ++i) {
    if (i != n) kept.push_back(user(i));
  }
  resize(kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) set_user(i, kept[i]);
}

double evaluate(const SlotProblem& problem,
                const std::vector<QualityLevel>& levels) {
  if (levels.size() != problem.user_count()) {
    throw std::invalid_argument("evaluate: level count mismatch");
  }
  double total = 0.0;
  for (std::size_t n = 0; n < levels.size(); ++n) {
    total += h_value(problem, n, levels[n]);
  }
  return total;
}

double total_rate(const SlotProblem& problem,
                  const std::vector<QualityLevel>& levels) {
  if (levels.size() != problem.user_count()) {
    throw std::invalid_argument("total_rate: level count mismatch");
  }
  double total = 0.0;
  for (std::size_t n = 0; n < levels.size(); ++n) {
    total += problem.rate_of(n, levels[n]);
  }
  return total;
}

bool server_feasible(const SlotProblem& problem,
                     const std::vector<QualityLevel>& levels) {
  return total_rate(problem, levels) <=
         problem.server_bandwidth + kFeasibilityEpsilon;
}

bool user_feasible(const UserSlotContext& user, QualityLevel q) {
  return user.rate[static_cast<std::size_t>(q - 1)] <=
         user.user_bandwidth + kFeasibilityEpsilon;
}

bool allocation_feasible(const SlotProblem& problem,
                         const std::vector<QualityLevel>& levels) {
  if (levels.size() != problem.user_count()) return false;
  bool all_ones = true;
  for (std::size_t n = 0; n < levels.size(); ++n) {
    if (!content::is_valid_level(levels[n])) return false;
    if (levels[n] > 1) {
      all_ones = false;
      if (!user_feasible(problem, n, levels[n])) return false;
    }
  }
  return all_ones || server_feasible(problem, levels);
}

}  // namespace cvr::core
