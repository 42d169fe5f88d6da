#include "src/motion/pose.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "src/util/rng.h"

namespace cvr::motion {
namespace {

TEST(WrapDegrees, CanonicalRange) {
  EXPECT_DOUBLE_EQ(wrap_degrees(0.0), 0.0);
  EXPECT_DOUBLE_EQ(wrap_degrees(179.0), 179.0);
  EXPECT_DOUBLE_EQ(wrap_degrees(180.0), -180.0);
  EXPECT_DOUBLE_EQ(wrap_degrees(-180.0), -180.0);
  EXPECT_DOUBLE_EQ(wrap_degrees(360.0), 0.0);
  EXPECT_DOUBLE_EQ(wrap_degrees(540.0), -180.0);
  EXPECT_DOUBLE_EQ(wrap_degrees(-190.0), 170.0);
  EXPECT_DOUBLE_EQ(wrap_degrees(725.0), 5.0);
}

TEST(WrapDegrees, BitIdenticalToTheFmodForm) {
  // wrap_degrees skips fmod for angles already in range; every result,
  // signed zeros and NaN payloads included, must match the plain form.
  const auto fmod_form = [](double angle) {
    angle = std::fmod(angle + 180.0, 360.0);
    if (angle < 0.0) angle += 360.0;
    return angle - 180.0;
  };
  const auto expect_same = [&](double angle) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(wrap_degrees(angle)),
              std::bit_cast<std::uint64_t>(fmod_form(angle)))
        << "angle " << angle;
  };
  using limits = std::numeric_limits<double>;
  const double edges[] = {0.0,
                          -0.0,
                          180.0,
                          -180.0,
                          540.0,
                          -540.0,
                          std::nextafter(180.0, 0.0),
                          std::nextafter(-180.0, 0.0),
                          std::nextafter(-180.0, -360.0),
                          359.99999999999994,
                          -359.99999999999994,
                          limits::denorm_min(),
                          -limits::denorm_min(),
                          limits::min() - limits::denorm_min(),
                          -(limits::min() - limits::denorm_min()),
                          limits::max(),
                          limits::lowest(),
                          limits::quiet_NaN(),
                          -limits::quiet_NaN(),
                          limits::infinity(),
                          -limits::infinity()};
  for (const double angle : edges) expect_same(angle);
  cvr::Rng rng(2022);
  for (int i = 0; i < 200000; ++i) {
    // Mostly in-range angles (the fast path), plus wide magnitudes.
    expect_same(rng.uniform(-200.0, 200.0));
    expect_same(std::ldexp(rng.uniform(-1.0, 1.0),
                           static_cast<int>(rng.uniform_int(-60, 60))));
  }
}

TEST(AngularDifference, ShortestWay) {
  EXPECT_DOUBLE_EQ(angular_difference(10.0, 350.0), 20.0);
  EXPECT_DOUBLE_EQ(angular_difference(350.0, 10.0), -20.0);
  EXPECT_DOUBLE_EQ(angular_difference(90.0, 0.0), 90.0);
  EXPECT_DOUBLE_EQ(angular_difference(0.0, 0.0), 0.0);
}

TEST(AngularDifference, AntipodalIsPlus180) {
  EXPECT_DOUBLE_EQ(angular_difference(180.0, 0.0), 180.0);
  EXPECT_DOUBLE_EQ(angular_difference(0.0, 180.0), 180.0);
}

TEST(AngularDifference, AntiSymmetryAwayFromBoundary) {
  for (double a : {-120.0, -30.0, 5.0, 77.0}) {
    for (double b : {-90.0, 0.0, 33.0, 140.0}) {
      if (std::abs(angular_difference(a, b)) == 180.0) continue;
      EXPECT_DOUBLE_EQ(angular_difference(a, b), -angular_difference(b, a));
    }
  }
}

TEST(Pose, NormalizedWrapsAnglesAndClampsPitch) {
  Pose p;
  p.yaw = 270.0;
  p.pitch = 120.0;
  p.roll = -200.0;
  const Pose n = p.normalized();
  EXPECT_DOUBLE_EQ(n.yaw, -90.0);
  EXPECT_DOUBLE_EQ(n.pitch, 90.0);
  EXPECT_DOUBLE_EQ(n.roll, 160.0);
}

TEST(Pose, PositionDistanceEuclidean) {
  Pose a, b;
  a.x = 1.0;
  a.y = 2.0;
  a.z = 3.0;
  b.x = 4.0;
  b.y = 6.0;
  b.z = 3.0;
  EXPECT_DOUBLE_EQ(a.position_distance(b), 5.0);
  EXPECT_DOUBLE_EQ(b.position_distance(a), 5.0);
  EXPECT_DOUBLE_EQ(a.position_distance(a), 0.0);
}

TEST(Pose, ViewAngleZeroForSameDirection) {
  Pose a, b;
  a.yaw = b.yaw = 33.0;
  a.pitch = b.pitch = -12.0;
  EXPECT_NEAR(a.view_angle_to(b), 0.0, 1e-9);
}

TEST(Pose, ViewAngleYawOnly) {
  Pose a, b;
  a.yaw = 0.0;
  b.yaw = 90.0;
  EXPECT_NEAR(a.view_angle_to(b), 90.0, 1e-9);
}

TEST(Pose, ViewAnglePitchOnly) {
  Pose a, b;
  a.pitch = 0.0;
  b.pitch = 45.0;
  EXPECT_NEAR(a.view_angle_to(b), 45.0, 1e-9);
}

TEST(Pose, ViewAngleOpposite) {
  Pose a, b;
  a.yaw = 0.0;
  b.yaw = 180.0;
  EXPECT_NEAR(a.view_angle_to(b), 180.0, 1e-9);
}

TEST(Pose, ViewAngleIgnoresRoll) {
  Pose a, b;
  a.roll = 0.0;
  b.roll = 90.0;
  EXPECT_NEAR(a.view_angle_to(b), 0.0, 1e-9);
}

TEST(Pose, ViewAngleWrapAware) {
  Pose a, b;
  a.yaw = 170.0;
  b.yaw = -170.0;
  EXPECT_NEAR(a.view_angle_to(b), 20.0, 1e-9);
}

TEST(Pose, ArrayRoundTrip) {
  Pose p{1.0, 2.0, 3.0, 40.0, 50.0, 60.0};
  const Pose q = Pose::from_array(p.as_array());
  EXPECT_DOUBLE_EQ(q.x, 1.0);
  EXPECT_DOUBLE_EQ(q.yaw, 40.0);
  EXPECT_DOUBLE_EQ(q.roll, 60.0);
}

}  // namespace
}  // namespace cvr::motion
