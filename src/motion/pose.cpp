#include "src/motion/pose.h"

#include <algorithm>
#include <cmath>

namespace cvr::motion {

double wrap_degrees(double angle) {
  // Most angles are already in range: fmod would return the shifted
  // value unchanged, so skip it. NaN and infinities fall through.
  const double shifted = angle + 180.0;
  if (shifted >= 0.0 && shifted < 360.0) return shifted - 180.0;
  angle = std::fmod(shifted, 360.0);
  if (angle < 0.0) angle += 360.0;
  return angle - 180.0;
}

double angular_difference(double a, double b) {
  double diff = wrap_degrees(a - b);
  // wrap_degrees returns [-180, 180); map -180 to +180 for a symmetric
  // "shortest way around" convention.
  if (diff == -180.0) diff = 180.0;
  return diff;
}

Pose Pose::normalized() const {
  Pose p = *this;
  p.yaw = wrap_degrees(p.yaw);
  p.roll = wrap_degrees(p.roll);
  p.pitch = std::clamp(p.pitch, -90.0, 90.0);
  return p;
}

double Pose::position_distance(const Pose& other) const {
  const double dx = x - other.x;
  const double dy = y - other.y;
  const double dz = z - other.z;
  return std::sqrt(dx * dx + dy * dy + dz * dz);
}

double Pose::view_angle_to(const Pose& other) const {
  constexpr double kDeg = M_PI / 180.0;
  // Unit view vectors from yaw (azimuth) and pitch (elevation).
  auto direction = [](double yaw_deg, double pitch_deg) {
    const double yaw_r = yaw_deg * kDeg;
    const double pitch_r = pitch_deg * kDeg;
    return std::array<double, 3>{std::cos(pitch_r) * std::cos(yaw_r),
                                 std::cos(pitch_r) * std::sin(yaw_r),
                                 std::sin(pitch_r)};
  };
  const auto a = direction(yaw, pitch);
  const auto b = direction(other.yaw, other.pitch);
  const double dot =
      std::clamp(a[0] * b[0] + a[1] * b[1] + a[2] * b[2], -1.0, 1.0);
  return std::acos(dot) / kDeg;
}

Pose Pose::from_array(const std::array<double, 6>& a) {
  return Pose{a[0], a[1], a[2], a[3], a[4], a[5]};
}

double interpolate_degrees(double a, double b, double t) {
  t = std::clamp(t, 0.0, 1.0);
  return wrap_degrees(a + angular_difference(b, a) * t);
}

Pose interpolate(const Pose& a, const Pose& b, double t) {
  t = std::clamp(t, 0.0, 1.0);
  Pose out;
  out.x = a.x + (b.x - a.x) * t;
  out.y = a.y + (b.y - a.y) * t;
  out.z = a.z + (b.z - a.z) * t;
  out.yaw = interpolate_degrees(a.yaw, b.yaw, t);
  out.pitch = a.pitch + (b.pitch - a.pitch) * t;
  out.roll = interpolate_degrees(a.roll, b.roll, t);
  return out.normalized();
}

}  // namespace cvr::motion
