#ifndef TSO_GEOM_UNFOLD_H_
#define TSO_GEOM_UNFOLD_H_

#include "geom/vec2.h"

namespace tso {

/// Planar-unfolding primitives for the MMP continuous-Dijkstra algorithm.
///
/// Convention: a mesh edge of length `base_len` is laid out in the plane from
/// (0, 0) to (base_len, 0); triangles are unfolded into the upper half-plane
/// (y > 0) and wavefront sources into the lower half-plane (y <= 0).

/// Position of a triangle apex given the three side lengths: the base spans
/// (0,0)-(base_len,0), `left_len` is the distance from the apex to (0,0) and
/// `right_len` the distance to (base_len,0). The apex is placed with y >= 0.
/// Degenerate inputs are clamped onto the base line (y = 0).
Vec2 ApexPosition(double base_len, double left_len, double right_len);

/// Intersects the ray from `origin` through `through` with the segment a-b.
/// On success stores the segment parameter t in [0,1] (point = a + t*(b-a))
/// and returns true. Rays that are parallel to the segment or point away from
/// it return false.
bool RaySegmentIntersect(const Vec2& origin, const Vec2& through,
                         const Vec2& a, const Vec2& b, double* t);

/// Solves for the parameter x along an edge where two wavefront distance
/// functions are equal:
///
///   sqrt((x-s1.x)^2 + s1.y^2) + sigma1 = sqrt((x-s2.x)^2 + s2.y^2) + sigma2
///
/// Stores up to two real solutions in xs (ascending) and returns their count.
/// Spurious roots introduced by squaring are filtered out.
int WavefrontCrossings(const Vec2& s1, double sigma1, const Vec2& s2,
                       double sigma2, double xs[2]);

/// The solutions of the overload above that lie strictly inside (lo, hi),
/// ascending: exactly that subset, bit for bit. It skips the (hypot-heavy)
/// verification when no candidate root of the squared equation falls in the
/// range, which is the common case for the MMP window trim.
int WavefrontCrossings(const Vec2& s1, double sigma1, const Vec2& s2,
                       double sigma2, double lo, double hi, double xs[2]);

}  // namespace tso

#endif  // TSO_GEOM_UNFOLD_H_
