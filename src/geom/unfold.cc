#include "geom/unfold.h"

#include <algorithm>
#include <cmath>

namespace tso {

Vec2 ApexPosition(double base_len, double left_len, double right_len) {
  // Law of cosines: x = (L^2 + b^2 - a^2) / (2L) where b = left, a = right.
  const double x =
      (base_len * base_len + left_len * left_len - right_len * right_len) /
      (2.0 * base_len);
  const double y_sq = left_len * left_len - x * x;
  const double y = y_sq > 0.0 ? std::sqrt(y_sq) : 0.0;
  return {x, y};
}

bool RaySegmentIntersect(const Vec2& origin, const Vec2& through,
                         const Vec2& a, const Vec2& b, double* t) {
  const Vec2 d = through - origin;  // ray direction
  const Vec2 e = b - a;             // segment direction
  const double denom = d.Cross(e);
  if (denom == 0.0) return false;  // parallel (or zero-length direction)
  const Vec2 ao = a - origin;
  const double s = ao.Cross(e) / denom;   // ray parameter
  const double u = ao.Cross(d) / denom;   // segment parameter
  if (s < 0.0) return false;              // behind the ray origin
  *t = u;
  return true;
}

namespace {

// Candidate roots of the squared crossing equation (at most two); returns
// their count. Squaring can add spurious roots, which VerifyCrossings drops.
int CrossingCandidates(const Vec2& s1, double sigma1, const Vec2& s2,
                       double sigma2, double cand[2]) {
  // f1(x) + sigma1 = f2(x) + sigma2 with fi(x) = sqrt((x-ai)^2 + bi^2).
  const double a1 = s1.x, b1 = s1.y;
  const double a2 = s2.x, b2 = s2.y;
  const double c = sigma2 - sigma1;  // f1 - f2 = c

  int n_cand = 0;

  // f1^2 - f2^2 = A x + B.
  const double kA = -2.0 * (a1 - a2);
  const double kB = a1 * a1 + b1 * b1 - a2 * a2 - b2 * b2;

  if (c == 0.0) {
    // f1 = f2  =>  A x + B = 0.
    if (kA != 0.0) cand[n_cand++] = -kB / kA;
  } else {
    // f2 = (A x + B - c^2) / (2c) =: p x + q, then square:
    // (x-a2)^2 + b2^2 = (p x + q)^2.
    const double p = kA / (2.0 * c);
    const double q = (kB - c * c) / (2.0 * c);
    const double qa = 1.0 - p * p;
    const double qb = -2.0 * a2 - 2.0 * p * q;
    const double qc = a2 * a2 + b2 * b2 - q * q;
    if (std::abs(qa) < 1e-14) {
      if (qb != 0.0) cand[n_cand++] = -qc / qb;
    } else {
      const double disc = qb * qb - 4.0 * qa * qc;
      if (disc >= 0.0) {
        const double sq = std::sqrt(disc);
        cand[n_cand++] = (-qb - sq) / (2.0 * qa);
        cand[n_cand++] = (-qb + sq) / (2.0 * qa);
      }
    }
  }
  return n_cand;
}

// Keeps the candidates that satisfy the unsquared equation, deduplicated, in
// ascending order; returns their count.
int VerifyCrossings(const Vec2& s1, double sigma1, const Vec2& s2,
                    double sigma2, const double* cand, int n_cand,
                    double xs[2]) {
  int count = 0;
  for (int i = 0; i < n_cand; ++i) {
    const double x = cand[i];
    if (!std::isfinite(x)) continue;
    const double f1 = std::hypot(x - s1.x, s1.y);
    const double f2 = std::hypot(x - s2.x, s2.y);
    // Filter roots introduced by squaring: require the original equation to
    // hold to a tolerance that scales with magnitude.
    const double scale = 1.0 + std::abs(f1) + std::abs(f2) +
                         std::abs(sigma1) + std::abs(sigma2);
    if (std::abs((f1 + sigma1) - (f2 + sigma2)) <= 1e-9 * scale) {
      // Deduplicate.
      bool dup = false;
      for (int j = 0; j < count; ++j) {
        if (std::abs(xs[j] - x) <= 1e-12 * scale) dup = true;
      }
      if (!dup) xs[count++] = x;
    }
  }
  if (count == 2 && xs[0] > xs[1]) std::swap(xs[0], xs[1]);
  return count;
}

}  // namespace

int WavefrontCrossings(const Vec2& s1, double sigma1, const Vec2& s2,
                       double sigma2, double xs[2]) {
  double cand[2];
  const int n_cand = CrossingCandidates(s1, sigma1, s2, sigma2, cand);
  return VerifyCrossings(s1, sigma1, s2, sigma2, cand, n_cand, xs);
}

int WavefrontCrossings(const Vec2& s1, double sigma1, const Vec2& s2,
                       double sigma2, double lo, double hi, double xs[2]) {
  double cand[2];
  const int n_cand = CrossingCandidates(s1, sigma1, s2, sigma2, cand);
  // Verified roots are a subset of the candidates, so with no candidate in
  // (lo, hi) the answer is empty without a single hypot.
  bool any_inside = false;
  for (int i = 0; i < n_cand; ++i) {
    if (cand[i] > lo && cand[i] < hi) any_inside = true;
  }
  if (!any_inside) return 0;
  // Verify all candidates, not only the inside ones, so de-duplication
  // keeps exactly the root the full function keeps.
  double all[2];
  const int n_all = VerifyCrossings(s1, sigma1, s2, sigma2, cand, n_cand, all);
  int count = 0;
  for (int i = 0; i < n_all; ++i) {
    if (all[i] > lo && all[i] < hi) xs[count++] = all[i];
  }
  return count;
}

}  // namespace tso
