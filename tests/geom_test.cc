#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "geom/triangle.h"
#include "geom/unfold.h"
#include "geom/vec2.h"
#include "geom/vec3.h"

namespace tso {
namespace {

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_EQ(b - a, Vec3(3, 3, 3));
  EXPECT_EQ(a * 2.0, Vec3(2, 4, 6));
  EXPECT_EQ(2.0 * a, Vec3(2, 4, 6));
  EXPECT_EQ(-a, Vec3(-1, -2, -3));
  EXPECT_DOUBLE_EQ(a.Dot(b), 32.0);
  EXPECT_EQ(a.Cross(b), Vec3(-3, 6, -3));
  EXPECT_DOUBLE_EQ(Vec3(3, 4, 0).Norm(), 5.0);
  EXPECT_DOUBLE_EQ(Distance(a, b), std::sqrt(27.0));
}

TEST(Vec3, Normalized) {
  EXPECT_NEAR(Vec3(10, 0, 0).Normalized().x, 1.0, 1e-15);
  EXPECT_EQ(Vec3(0, 0, 0).Normalized(), Vec3(0, 0, 0));
}

TEST(Vec2, CrossSign) {
  EXPECT_GT(Vec2(1, 0).Cross(Vec2(0, 1)), 0.0);  // CCW positive
  EXPECT_LT(Vec2(0, 1).Cross(Vec2(1, 0)), 0.0);
}

TEST(Triangle, AreaAndAngles) {
  const Vec3 a{0, 0, 0}, b{3, 0, 0}, c{0, 4, 0};
  EXPECT_DOUBLE_EQ(TriangleArea(a, b, c), 6.0);
  EXPECT_NEAR(AngleAt(a, b, c), M_PI / 2.0, 1e-12);
  EXPECT_NEAR(AngleAt(b, c, a) + AngleAt(c, a, b) + AngleAt(a, b, c), M_PI,
              1e-12);
  EXPECT_NEAR(MinAngle(a, b, c), std::atan2(3.0, 4.0), 1e-12);
}

TEST(Triangle, Degeneracy) {
  EXPECT_TRUE(IsDegenerate({0, 0, 0}, {1, 0, 0}, {2, 0, 0}));
  EXPECT_FALSE(IsDegenerate({0, 0, 0}, {1, 0, 0}, {0, 1, 0}));
}

TEST(Triangle, Barycentric) {
  const Vec2 a{0, 0}, b{1, 0}, c{0, 1};
  double wa, wb, wc;
  ASSERT_TRUE(Barycentric2D(a, b, c, {0.25, 0.25}, &wa, &wb, &wc));
  EXPECT_NEAR(wa, 0.5, 1e-12);
  EXPECT_NEAR(wb, 0.25, 1e-12);
  EXPECT_NEAR(wc, 0.25, 1e-12);
  EXPECT_TRUE(PointInTriangle2D(a, b, c, {0.1, 0.1}));
  EXPECT_FALSE(PointInTriangle2D(a, b, c, {0.9, 0.9}));
  EXPECT_TRUE(PointInTriangle2D(a, b, c, {0.0, 0.0}));  // corner counts
}

TEST(Unfold, ApexEquilateral) {
  const Vec2 apex = ApexPosition(1.0, 1.0, 1.0);
  EXPECT_NEAR(apex.x, 0.5, 1e-12);
  EXPECT_NEAR(apex.y, std::sqrt(3.0) / 2.0, 1e-12);
}

TEST(Unfold, ApexRightTriangle) {
  // base 4 from (0,0) to (4,0); apex at (0,3): left=3, right=5.
  const Vec2 apex = ApexPosition(4.0, 3.0, 5.0);
  EXPECT_NEAR(apex.x, 0.0, 1e-12);
  EXPECT_NEAR(apex.y, 3.0, 1e-12);
}

TEST(Unfold, ApexDegenerateClampsToBase) {
  const Vec2 apex = ApexPosition(2.0, 1.0, 1.0);  // collinear
  EXPECT_NEAR(apex.x, 1.0, 1e-12);
  EXPECT_NEAR(apex.y, 0.0, 1e-12);
}

TEST(Unfold, ApexRoundTripRandom) {
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    const Vec2 true_apex{rng.UniformDouble(-3, 6), rng.UniformDouble(0.1, 5)};
    const double base = rng.UniformDouble(0.5, 8);
    const double left = true_apex.Norm();
    const double right = Distance(true_apex, {base, 0});
    const Vec2 got = ApexPosition(base, left, right);
    EXPECT_NEAR(got.x, true_apex.x, 1e-8 * (1 + base));
    EXPECT_NEAR(got.y, true_apex.y, 1e-6 * (1 + base));
  }
}

TEST(Unfold, RaySegmentBasic) {
  double t;
  // Ray from below through origin upward hits segment (-1,1)-(1,1) at mid.
  ASSERT_TRUE(RaySegmentIntersect({0, -1}, {0, 0}, {-1, 1}, {1, 1}, &t));
  EXPECT_NEAR(t, 0.5, 1e-12);
}

TEST(Unfold, RaySegmentParallel) {
  double t;
  EXPECT_FALSE(RaySegmentIntersect({0, 0}, {1, 0}, {0, 1}, {1, 1}, &t));
}

TEST(Unfold, RaySegmentBehindOrigin) {
  double t;
  EXPECT_FALSE(RaySegmentIntersect({0, 0}, {0, 1}, {-1, -2}, {1, -2}, &t));
}

TEST(Unfold, WavefrontCrossingEquidistant) {
  // Two mirror sources, same sigma: crossing at the midline.
  double xs[2];
  const int n = WavefrontCrossings({0, 1}, 0.0, {4, 1}, 0.0, xs);
  ASSERT_GE(n, 1);
  EXPECT_NEAR(xs[0], 2.0, 1e-9);
}

TEST(Unfold, WavefrontCrossingSigmaOffset) {
  // Source 2 carries extra path length; crossing shifts toward source 2.
  double xs[2];
  const int n = WavefrontCrossings({0, 1}, 0.0, {4, 1}, 1.0, xs);
  ASSERT_GE(n, 1);
  EXPECT_GT(xs[0], 2.0);
  // Verify the crossing satisfies the defining equation.
  const double d1 = std::hypot(xs[0] - 0, 1.0) + 0.0;
  const double d2 = std::hypot(xs[0] - 4, 1.0) + 1.0;
  EXPECT_NEAR(d1, d2, 1e-9);
}

TEST(Unfold, WavefrontNoCrossingWhenDominated) {
  // Identical positions, different sigma: one always wins, no real crossing.
  double xs[2];
  const int n = WavefrontCrossings({1, 1}, 0.0, {1, 1}, 0.5, xs);
  EXPECT_EQ(n, 0);
}

TEST(Unfold, WavefrontCrossingsVerifyEquationRandom) {
  Rng rng(55);
  for (int i = 0; i < 300; ++i) {
    const Vec2 s1{rng.UniformDouble(-5, 5), rng.UniformDouble(0.01, 4)};
    const Vec2 s2{rng.UniformDouble(-5, 5), rng.UniformDouble(0.01, 4)};
    const double g1 = rng.UniformDouble(0, 3);
    const double g2 = rng.UniformDouble(0, 3);
    double xs[2];
    const int n = WavefrontCrossings(s1, g1, s2, g2, xs);
    for (int k = 0; k < n; ++k) {
      const double d1 = std::hypot(xs[k] - s1.x, s1.y) + g1;
      const double d2 = std::hypot(xs[k] - s2.x, s2.y) + g2;
      EXPECT_NEAR(d1, d2, 1e-6 * (1.0 + d1));
    }
  }
}

// The range-limited overload is the full function's result filtered to the
// open interval (lo, hi), bit for bit, including roots a hair inside or
// outside either end and equal-sigma pairs (the linear-equation branch).
TEST(Unfold, WavefrontCrossingsInRangeIsFilteredFullResult) {
  Rng rng(20170514);
  auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  int in_range_roots = 0;
  int near_end_cases = 0;
  int equal_sigma_cases = 0;
  for (int i = 0; i < 100'000; ++i) {
    const Vec2 s1{rng.UniformDouble(-50, 150), rng.UniformDouble(0, 60)};
    const Vec2 s2{rng.UniformDouble(-50, 150), rng.UniformDouble(0, 60)};
    const double g1 = rng.UniformDouble(0, 80);
    double g2 = rng.UniformDouble(0, 80);
    if (i % 10 == 0) {
      g2 = g1;
      ++equal_sigma_cases;
    }
    double full[2];
    const int n_full = WavefrontCrossings(s1, g1, s2, g2, full);
    double lo = rng.UniformDouble(-10, 110);
    double hi = rng.UniformDouble(-10, 110);
    if (lo > hi && i % 7 != 0) std::swap(lo, hi);  // some stay empty
    if (n_full > 0 && i % 5 == 1) {
      // Put one end within 1e-8 of a root, on either side of it.
      const double root = full[rng.Uniform(n_full)];
      const double nudge = rng.UniformDouble(-1e-8, 1e-8);
      if (rng.Bernoulli(0.5)) {
        lo = root + nudge;
        hi = lo + rng.UniformDouble(0, 50);
      } else {
        hi = root + nudge;
        lo = hi - rng.UniformDouble(0, 50);
      }
      ++near_end_cases;
    }
    double expected[2];
    int n_expected = 0;
    for (int k = 0; k < n_full; ++k) {
      if (full[k] > lo && full[k] < hi) expected[n_expected++] = full[k];
    }
    double got[2];
    const int n_got = WavefrontCrossings(s1, g1, s2, g2, lo, hi, got);
    ASSERT_EQ(n_got, n_expected) << "case " << i;
    for (int k = 0; k < n_got; ++k) {
      ASSERT_TRUE(same_bits(got[k], expected[k])) << "case " << i;
    }
    in_range_roots += n_got;
  }
  // Both the early exit and the verified path ran many times.
  EXPECT_GT(in_range_roots, 10'000);
  EXPECT_GT(near_end_cases, 5'000);
  EXPECT_EQ(equal_sigma_cases, 10'000);
}

}  // namespace
}  // namespace tso
