#include "geodesic/mmp_solver.h"

#include <algorithm>
#include <cmath>

#include "base/logging.h"
#include "geom/unfold.h"
#include "geom/vec2.h"

namespace tso {
namespace {

constexpr double kTieEps = 1e-11;

}  // namespace

MmpSolver::MmpSolver(const TerrainMesh& mesh)
    : mesh_(mesh),
      unfoldings_(2 * mesh.num_edges()),
      vdist_(mesh.num_vertices(), kInfDist),
      vertex_processed_(mesh.num_vertices(), 0),
      edge_windows_(mesh.num_edges()),
      face_targets_(mesh.num_faces()),
      vertex_targets_(mesh.num_vertices()) {
  eps_len_ = 1e-9 * mesh.MaxEdgeLength();
  for (uint32_t e = 0; e < mesh.num_edges(); ++e) {
    const TerrainMesh::Edge& ed = mesh.edge(e);
    const uint32_t faces[2] = {ed.f0, ed.f1};
    for (int side = 0; side < 2; ++side) {
      Unfolding& u = unfoldings_[2 * size_t{e} + side];
      u.face = faces[side];
      if (u.face == kInvalidId) continue;
      u.apex = mesh.opposite_vertex(u.face, e);
      const Vec3& pap = mesh.vertex(u.apex);
      u.apex_pos = ApexPosition(ed.length, Distance(pap, mesh.vertex(ed.v0)),
                                Distance(pap, mesh.vertex(ed.v1)));
      u.side_edge[0] = mesh.edge_between(ed.v0, u.apex);
      u.side_edge[1] = mesh.edge_between(ed.v1, u.apex);
    }
  }
}

double MmpSolver::DistAt(const Window& w, double x) {
  return w.sigma + std::hypot(x - w.sx, w.sy);
}

bool MmpSolver::WinsStrictly(const Window& w, const Window& o, double x) {
  // The answer is defined by the hypot distances. sqrt(dx*dx + dy*dy) is
  // within a few ulps of hypot, or within ~1e-300 of it where the squares
  // underflow, so when the two sides differ by more than the slack (at
  // least 1e-12, far beyond that error) the sqrt estimates give the same
  // answer. Near-ties, and overflow or NaN (which fail both tests), fall
  // through to the hypot values.
  constexpr double kFilterEps = 1e-12;
  const double wx = x - w.sx;
  const double ox = x - o.sx;
  const double dw_est = w.sigma + std::sqrt(wx * wx + w.sy * w.sy);
  const double do_est = o.sigma + std::sqrt(ox * ox + o.sy * o.sy);
  const double lhs_est = dw_est + kTieEps * (1.0 + dw_est);
  const double slack = kFilterEps * (1.0 + dw_est + do_est);
  if (lhs_est < do_est - slack) return true;
  if (lhs_est > do_est + slack) return false;
  const double dw = DistAt(w, x);
  return dw + kTieEps * (1.0 + dw) < DistAt(o, x);
}

double MmpSolver::MinKey(const Window& w) {
  if (w.sx < w.b0) return w.sigma + w.d0;  // == DistAt(w, w.b0)
  if (w.sx > w.b1) return w.sigma + w.d1;  // == DistAt(w, w.b1)
  return w.sigma + w.sy;
}

void MmpSolver::ComputeSource(Window* w) {
  const double span = w->b1 - w->b0;
  w->sx = 0.5 * ((w->d0 * w->d0 - w->d1 * w->d1) / span + w->b0 + w->b1);
  const double sy_sq = w->d0 * w->d0 - (w->sx - w->b0) * (w->sx - w->b0);
  w->sy = sy_sq > 0.0 ? std::sqrt(sy_sq) : 0.0;
}

void MmpSolver::Reset() {
  for (uint32_t e : touched_edges_) edge_windows_[e].clear();
  touched_edges_.clear();
  pool_.clear();
  heap_.clear();
  std::fill(vdist_.begin(), vdist_.end(), kInfDist);
  std::fill(vertex_processed_.begin(), vertex_processed_.end(), 0);
  frontier_ = 0.0;
  stats_ = RunStats{};
  for (const SurfacePoint& t : targets_) {
    if (std::vector<uint32_t>* list = TargetList(t)) list->clear();
  }
  targets_.clear();
  target_geometry_.clear();
  target_est_.clear();
  target_settled_.clear();
  target_dirty_.clear();
  dirty_stack_.clear();
  target_heap_.clear();
  targets_settled_count_ = 0;
}

std::vector<uint32_t>* MmpSolver::TargetList(const SurfacePoint& t) {
  // Out-of-range ids are never marked dirty (no vertex or face carries
  // them), so such targets keep only their initial evaluation.
  if (t.is_vertex()) {
    return t.vertex < vertex_targets_.size() ? &vertex_targets_[t.vertex]
                                             : nullptr;
  }
  return t.face < face_targets_.size() ? &face_targets_[t.face] : nullptr;
}

void MmpSolver::UpdateVertex(uint32_t v, double d) {
  if (d + kTieEps * (1.0 + d) < vdist_[v]) {
    vdist_[v] = d;
    heap_.push_back({d, v, 1});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<Event>());
    if (targets_.empty()) return;
    MarkTargetsDirty(vertex_targets_[v]);
    // Vertex labels feed face-interior estimates too.
    for (uint32_t f : mesh_.vertex_faces(v)) MarkFaceTargetsDirty(f);
  }
}

void MmpSolver::MarkFaceTargetsDirty(uint32_t face) {
  if (targets_.empty()) return;
  MarkTargetsDirty(face_targets_[face]);
}

void MmpSolver::MarkTargetsDirty(const std::vector<uint32_t>& list) {
  for (uint32_t t : list) {
    TSO_DCHECK(t < targets_.size());  // Reset() cleared earlier runs' lists
    if (!target_dirty_[t]) {
      target_dirty_[t] = 1;
      dirty_stack_.push_back(t);
    }
  }
}

void MmpSolver::InsertWindow(Window w) {
  const TerrainMesh::Edge& ed = mesh_.edge(w.edge);
  const double len = ed.length;
  w.b0 = std::max(w.b0, 0.0);
  w.b1 = std::min(w.b1, len);
  if (w.b1 - w.b0 <= eps_len_) return;
  ComputeSource(&w);
  w.alive = true;

  // Endpoint relaxations: window point + straight run along the edge is a
  // valid surface path, so these hold whether or not the window survives.
  // The two distances are also the d0 / d1 of the fragments that keep an
  // endpoint of w.
  const double w_d0 = std::hypot(w.b0 - w.sx, w.sy);
  const double w_d1 = std::hypot(w.b1 - w.sx, w.sy);
  UpdateVertex(ed.v0, (w.sigma + w_d0) + w.b0);
  UpdateVertex(ed.v1, (w.sigma + w_d1) + (len - w.b1));

  std::vector<uint32_t>& list = edge_windows_[w.edge];
  if (list.empty()) touched_edges_.push_back(w.edge);

  // Fragments of the new window that remain after losing to existing
  // windows. Existing windows are pairwise disjoint, so each existing window
  // carves independently.
  w_frags_.assign(1, {w.b0, w.b1});
  rebuilt_.clear();
  o_fragments_.clear();
  rebuilt_.reserve(list.size() + 2);

  for (uint32_t oid : list) {
    Window& o = pool_[oid];
    const double lo = std::max(o.b0, w.b0);
    const double hi = std::min(o.b1, w.b1);
    if (hi - lo <= eps_len_) {
      rebuilt_.push_back(oid);
      continue;
    }
    // Breakpoints of the winner function on [lo, hi].
    double xs[2];
    const int ncross =
        WavefrontCrossings({o.sx, o.sy}, o.sigma, {w.sx, w.sy}, w.sigma,
                           lo + eps_len_, hi - eps_len_, xs);
    double pts[4];
    int npts = 0;
    pts[npts++] = lo;
    for (int i = 0; i < ncross; ++i) pts[npts++] = xs[i];
    pts[npts++] = hi;

    // Sub-intervals of [o.b0, o.b1] that o keeps (everything outside the
    // overlap plus overlap pieces where o wins or ties).
    o_keep_.clear();
    if (o.b0 < lo - eps_len_) o_keep_.emplace_back(o.b0, lo);
    bool o_lost_any = false;
    for (int i = 0; i + 1 < npts; ++i) {
      const double mid = 0.5 * (pts[i] + pts[i + 1]);
      if (WinsStrictly(w, o, mid)) {
        // w wins strictly: o loses this piece.
        o_lost_any = true;
        // Carve the piece out of nothing for o (skip).
      } else {
        // o wins or ties: o keeps, w loses this piece.
        o_keep_.emplace_back(pts[i], pts[i + 1]);
        // Subtract [pts[i], pts[i+1]] from w_frags_.
        w_frags_next_.clear();
        for (const auto& [a, b] : w_frags_) {
          const double cl = std::max(a, pts[i]);
          const double ch = std::min(b, pts[i + 1]);
          if (ch - cl <= eps_len_) {
            w_frags_next_.emplace_back(a, b);
            continue;
          }
          if (cl - a > eps_len_) w_frags_next_.emplace_back(a, cl);
          if (b - ch > eps_len_) w_frags_next_.emplace_back(ch, b);
        }
        w_frags_.swap(w_frags_next_);
      }
    }
    if (o.b1 > hi + eps_len_) o_keep_.emplace_back(hi, o.b1);

    if (!o_lost_any) {
      rebuilt_.push_back(oid);
      continue;
    }
    // o shrinks: merge adjacent keep-intervals, materialize fragments.
    o.alive = false;
    o_merged_.clear();
    for (const auto& iv : o_keep_) {
      if (!o_merged_.empty() &&
          iv.first - o_merged_.back().second <= eps_len_) {
        o_merged_.back().second = iv.second;
      } else {
        o_merged_.push_back(iv);
      }
    }
    for (const auto& [a, b] : o_merged_) {
      if (b - a <= eps_len_) continue;
      Window frag = o;
      frag.alive = true;
      frag.b0 = a;
      frag.b1 = b;
      // Source position is inherited (same pseudo-source); a kept endpoint
      // keeps its distance.
      frag.d0 = a == o.b0 ? o.d0 : std::hypot(a - o.sx, o.sy);
      frag.d1 = b == o.b1 ? o.d1 : std::hypot(b - o.sx, o.sy);
      o_fragments_.push_back(frag);
    }
  }

  // Materialize o fragments.
  for (Window& frag : o_fragments_) {
    TSO_DCHECK(frag.d0 == std::hypot(frag.b0 - frag.sx, frag.sy));
    TSO_DCHECK(frag.d1 == std::hypot(frag.b1 - frag.sx, frag.sy));
    const uint32_t id = static_cast<uint32_t>(pool_.size());
    pool_.push_back(frag);
    rebuilt_.push_back(id);
    if (!frag.propagated) {
      heap_.push_back({MinKey(frag), id, 0});
      std::push_heap(heap_.begin(), heap_.end(), std::greater<Event>());
    }
  }
  // Materialize surviving fragments of w.
  bool any_new = false;
  for (const auto& [a, b] : w_frags_) {
    if (b - a <= eps_len_) continue;
    Window frag = w;
    frag.b0 = a;
    frag.b1 = b;
    frag.d0 = a == w.b0 ? w_d0 : std::hypot(a - w.sx, w.sy);
    frag.d1 = b == w.b1 ? w_d1 : std::hypot(b - w.sx, w.sy);
    TSO_DCHECK(frag.d0 == std::hypot(frag.b0 - frag.sx, frag.sy));
    TSO_DCHECK(frag.d1 == std::hypot(frag.b1 - frag.sx, frag.sy));
    frag.propagated = false;
    const uint32_t id = static_cast<uint32_t>(pool_.size());
    pool_.push_back(frag);
    rebuilt_.push_back(id);
    heap_.push_back({MinKey(frag), id, 0});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<Event>());
    ++stats_.windows_created;
    any_new = true;
  }

  // Windows on an edge are disjoint, so their b0 keys are distinct and any
  // sorted order is the sorted order: skip the sort when it already holds.
  const auto by_b0 = [&](uint32_t a, uint32_t b) {
    return pool_[a].b0 < pool_[b].b0;
  };
  if (!std::is_sorted(rebuilt_.begin(), rebuilt_.end(), by_b0)) {
    std::sort(rebuilt_.begin(), rebuilt_.end(), by_b0);
  }
  // The edge's old list becomes next call's scratch.
  list.swap(rebuilt_);

  if (any_new) {
    // New coverage on this edge can improve estimates in both adjacent faces.
    MarkFaceTargetsDirty(ed.f0);
    if (ed.f1 != kInvalidId) MarkFaceTargetsDirty(ed.f1);
  }
}

void MmpSolver::Propagate(const Window& w) {
  const TerrainMesh::Edge& ed = mesh_.edge(w.edge);
  const Unfolding& unf = unfolding(w.edge, w.from_face);
  if (unf.face == kInvalidId) return;
  if (w.sy <= eps_len_) return;  // collinear source: no 2D spread across

  const double len = ed.length;
  const uint32_t target_face = unf.face;
  const Vec2& a2d = unf.apex_pos;
  if (a2d.y <= eps_len_) return;  // degenerate unfolding

  const double sx = w.sx;
  const double sy = w.sy;  // source at (sx, -sy)

  struct Side {
    Vec2 p;          // base-line endpoint of the target edge
    uint32_t pv;     // mesh vertex at p
    uint32_t te;     // target edge, pv-apex
  };
  const Side sides[2] = {{{0.0, 0.0}, ed.v0, unf.side_edge[0]},
                         {{len, 0.0}, ed.v1, unf.side_edge[1]}};

  for (const Side& side : sides) {
    const uint32_t te = side.te;
    TSO_DCHECK(te != kInvalidId);
    const TerrainMesh::Edge& ted = mesh_.edge(te);
    const Vec2 P = side.p;
    const Vec2 Q = a2d;
    const double dx = Q.x - P.x;

    // x-coordinate where the segment source->X (X on PQ) crosses the base
    // line y=0: x(u) = sx + sy*(P.x + u*dx - sx) / (u*Q.y + sy).
    auto x_cross = [&](double u) {
      return sx + sy * (P.x + u * dx - sx) / (u * Q.y + sy);
    };
    const double x_at_p = x_cross(0.0);
    const double x_at_q = x_cross(1.0);
    const double reach_lo = std::min(x_at_p, x_at_q);
    const double reach_hi = std::max(x_at_p, x_at_q);
    const double blo = std::max(w.b0, reach_lo);
    const double bhi = std::min(w.b1, reach_hi);
    if (bhi - blo <= eps_len_) continue;

    auto u_for = [&](double b) {
      // Invert x_cross: u = sy*(b - P.x) / (sy*dx - (b - sx)*Q.y).
      const double denom = sy * dx - (b - sx) * Q.y;
      if (denom == 0.0) return kInfDist;
      return sy * (b - P.x) / denom;
    };
    double u0 = u_for(blo);
    double u1 = u_for(bhi);
    if (!std::isfinite(u0) || !std::isfinite(u1)) continue;
    if (u0 > u1) std::swap(u0, u1);
    u0 = std::clamp(u0, 0.0, 1.0);
    u1 = std::clamp(u1, 0.0, 1.0);
    if (u1 - u0 <= 1e-12) continue;

    const Vec2 x0_pt = P + (Q - P) * u0;
    const Vec2 x1_pt = P + (Q - P) * u1;
    const Vec2 s_pt{sx, -sy};
    const double dn0 = Distance(s_pt, x0_pt);
    const double dn1 = Distance(s_pt, x1_pt);

    Window nw;
    nw.sigma = w.sigma;
    nw.edge = te;
    nw.from_face = target_face;
    nw.propagated = false;
    nw.alive = true;
    const double tlen = ted.length;
    if (ted.v0 == side.pv) {
      nw.b0 = u0 * tlen;
      nw.b1 = u1 * tlen;
      nw.d0 = dn0;
      nw.d1 = dn1;
    } else {
      // Canonical param runs from the apex end.
      TSO_DCHECK(ted.v1 == side.pv);
      nw.b0 = (1.0 - u1) * tlen;
      nw.b1 = (1.0 - u0) * tlen;
      nw.d0 = dn1;
      nw.d1 = dn0;
    }
    InsertWindow(nw);
  }
}

void MmpSolver::SpawnPseudoSource(uint32_t v) {
  const double base = vdist_[v];
  const Vec3& pv = mesh_.vertex(v);
  for (uint32_t f : mesh_.vertex_faces(v)) {
    // Edge of f opposite to v.
    uint32_t opp = kInvalidId;
    for (int i = 0; i < 3; ++i) {
      const uint32_t e = mesh_.face_edges(f)[i];
      const TerrainMesh::Edge& ed = mesh_.edge(e);
      if (ed.v0 != v && ed.v1 != v) {
        opp = e;
        break;
      }
    }
    if (opp == kInvalidId) continue;
    const TerrainMesh::Edge& ed = mesh_.edge(opp);
    Window w;
    w.b0 = 0.0;
    w.b1 = ed.length;
    w.d0 = Distance(pv, mesh_.vertex(ed.v0));
    w.d1 = Distance(pv, mesh_.vertex(ed.v1));
    w.sigma = base;
    w.edge = opp;
    w.from_face = f;
    w.propagated = false;
    w.alive = true;
    InsertWindow(w);
  }
}

Status MmpSolver::InitSource(const SurfacePoint& source) {
  source_ = source;
  if (source.is_vertex()) {
    if (source.vertex >= mesh_.num_vertices()) {
      return Status::InvalidArgument("source vertex out of range");
    }
    UpdateVertex(source.vertex, 0.0);
    return Status::Ok();
  }
  if (source.face == kInvalidId || source.face >= mesh_.num_faces()) {
    return Status::InvalidArgument("source has no valid face");
  }
  const uint32_t f = source.face;
  // A source exactly on a face edge yields degenerate (collinear) initial
  // windows that cannot spread into the neighboring face; nudge such sources
  // toward the centroid by a negligible amount.
  {
    const Vec3 c = mesh_.FaceCentroid(f);
    double min_edge_dist = kInfDist;
    for (int i = 0; i < 3; ++i) {
      const TerrainMesh::Edge& ed = mesh_.edge(mesh_.face_edges(f)[i]);
      const Vec3& a = mesh_.vertex(ed.v0);
      const Vec3 ab = mesh_.vertex(ed.v1) - a;
      const double t =
          std::clamp((source_.pos - a).Dot(ab) / ab.NormSq(), 0.0, 1.0);
      min_edge_dist = std::min(min_edge_dist,
                               Distance(source_.pos, a + ab * t));
    }
    if (min_edge_dist < 1e-7 * mesh_.edge(mesh_.face_edges(f)[0]).length) {
      source_.pos = source_.pos + (c - source_.pos) * 1e-5;
    }
  }
  for (int i = 0; i < 3; ++i) {
    const uint32_t e = mesh_.face_edges(f)[i];
    const TerrainMesh::Edge& ed = mesh_.edge(e);
    Window w;
    w.b0 = 0.0;
    w.b1 = ed.length;
    w.d0 = Distance(source_.pos, mesh_.vertex(ed.v0));
    w.d1 = Distance(source_.pos, mesh_.vertex(ed.v1));
    w.sigma = 0.0;
    w.edge = e;
    w.from_face = f;
    w.propagated = false;
    w.alive = true;
    InsertWindow(w);
  }
  return Status::Ok();
}

double MmpSolver::VertexDistance(uint32_t v) const { return vdist_[v]; }

void MmpSolver::ComputePointGeometry(const SurfacePoint& p,
                                     PointGeometry* g) const {
  const auto& tri = mesh_.face(p.face);
  for (int i = 0; i < 3; ++i) {
    g->vertex_dist[i] = Distance(mesh_.vertex(tri[i]), p.pos);
    // Unfold p into the edge frame (y > 0 side).
    const TerrainMesh::Edge& ed = mesh_.edge(mesh_.face_edges(p.face)[i]);
    const double dpv0 = Distance(p.pos, mesh_.vertex(ed.v0));
    const double dpv1 = Distance(p.pos, mesh_.vertex(ed.v1));
    g->unfolded[i] = ApexPosition(ed.length, dpv0, dpv1);
  }
}

double MmpSolver::EvaluatePoint(const SurfacePoint& p,
                                const PointGeometry* geometry) const {
  // Out-of-range ids are unreachable, as in DijkstraSolver.
  if (p.is_vertex()) {
    return p.vertex < vdist_.size() ? vdist_[p.vertex] : kInfDist;
  }
  if (p.face >= mesh_.num_faces()) return kInfDist;  // includes kInvalidId
  PointGeometry computed{};
  if (geometry == nullptr) {
    ComputePointGeometry(p, &computed);
    geometry = &computed;
  }
  const PointGeometry& g = *geometry;
  double best = kInfDist;
  // Direct in-face segment from the source.
  if (!source_.is_vertex() && source_.face == p.face) {
    best = Distance(source_.pos, p.pos);
  }
  // Via face vertices.
  const auto& tri = mesh_.face(p.face);
  for (int i = 0; i < 3; ++i) {
    const uint32_t v = tri[i];
    if (vdist_[v] < kInfDist) {
      best = std::min(best, vdist_[v] + g.vertex_dist[i]);
    }
  }
  // Via windows entering this face.
  for (int i = 0; i < 3; ++i) {
    const uint32_t e = mesh_.face_edges(p.face)[i];
    const std::vector<uint32_t>& list = edge_windows_[e];
    if (list.empty()) continue;
    const Vec2& p2d = g.unfolded[i];
    for (uint32_t wid : list) {
      const Window& w = pool_[wid];
      if (!w.alive) continue;
      if (mesh_.other_face(e, w.from_face) != p.face) continue;
      // Straight route if visible through the interval.
      if (w.sy > 0.0 || p2d.y > 0.0) {
        const double denom = p2d.y + w.sy;
        if (denom > 0.0) {
          const double x_cross = w.sx + (p2d.x - w.sx) * (w.sy / denom);
          if (x_cross >= w.b0 - eps_len_ && x_cross <= w.b1 + eps_len_) {
            best = std::min(
                best, w.sigma + std::hypot(p2d.x - w.sx, p2d.y + w.sy));
          }
        }
      }
      // Corner routes (always valid upper bounds; also plug trim gaps).
      // w.sigma + w.d0 is DistAt(w, w.b0) bit for bit (likewise at b1).
      best = std::min(best,
                      (w.sigma + w.d0) + std::hypot(p2d.x - w.b0, p2d.y));
      best = std::min(best,
                      (w.sigma + w.d1) + std::hypot(p2d.x - w.b1, p2d.y));
    }
  }
  return best;
}

double MmpSolver::PointDistance(const SurfacePoint& p) const {
  return EvaluatePoint(p, nullptr);
}

Status MmpSolver::Run(const SurfacePoint& source, const SsadOptions& opts) {
  const Status status = RunSweep(source, opts);
  MmpKernelCounters& g = GlobalMmpCounters();
  g.runs.fetch_add(1, std::memory_order_relaxed);
  g.windows_created.fetch_add(stats_.windows_created,
                              std::memory_order_relaxed);
  g.windows_propagated.fetch_add(stats_.windows_propagated,
                                 std::memory_order_relaxed);
  g.vertices_processed.fetch_add(stats_.vertices_processed,
                                 std::memory_order_relaxed);
  return status;
}

Status MmpSolver::RunSweep(const SurfacePoint& source,
                           const SsadOptions& opts) {
  Reset();

  // Register targets (cover set and/or stop target).
  if (opts.cover_targets != nullptr) {
    targets_ = *opts.cover_targets;
  }
  int stop_target_idx = -1;
  if (opts.stop_target != nullptr) {
    stop_target_idx = static_cast<int>(targets_.size());
    targets_.push_back(*opts.stop_target);
  }
  target_geometry_.resize(targets_.size());
  for (uint32_t t = 0; t < targets_.size(); ++t) {
    const SurfacePoint& p = targets_[t];
    if (!p.is_vertex() && p.face < mesh_.num_faces()) {
      ComputePointGeometry(p, &target_geometry_[t]);
    }
  }
  target_est_.assign(targets_.size(), kInfDist);
  target_settled_.assign(targets_.size(), 0);
  target_dirty_.assign(targets_.size(), 1);
  for (uint32_t t = 0; t < targets_.size(); ++t) {
    dirty_stack_.push_back(t);
    if (std::vector<uint32_t>* list = TargetList(targets_[t])) {
      list->push_back(t);
    }
  }

  TSO_RETURN_IF_ERROR(InitSource(source));

  auto drain_dirty = [&]() {
    while (!dirty_stack_.empty()) {
      const uint32_t t = dirty_stack_.back();
      dirty_stack_.pop_back();
      target_dirty_[t] = 0;
      const double est = EvaluatePoint(targets_[t], &target_geometry_[t]);
      if (est < target_est_[t]) {
        target_est_[t] = est;
        target_heap_.push_back({est, t, 2});
        std::push_heap(target_heap_.begin(), target_heap_.end(),
                       std::greater<Event>());
      }
    }
  };
  auto settle_targets = [&]() {
    while (!target_heap_.empty() &&
           target_heap_.front().key <=
               frontier_ + kTieEps * (1.0 + frontier_)) {
      const Event top = target_heap_.front();
      std::pop_heap(target_heap_.begin(), target_heap_.end(),
                    std::greater<Event>());
      target_heap_.pop_back();
      if (top.key > target_est_[top.id]) continue;  // stale
      if (!target_settled_[top.id]) {
        target_settled_[top.id] = 1;
        ++targets_settled_count_;
      }
    }
  };
  auto done = [&]() {
    if (targets_.empty()) return false;
    if (stop_target_idx >= 0 && target_settled_[stop_target_idx]) return true;
    return targets_settled_count_ == targets_.size();
  };

  drain_dirty();

  while (!heap_.empty()) {
    const Event top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<Event>());
    heap_.pop_back();

    if (top.type == 0) {
      if (top.id >= pool_.size()) continue;
      Window& w = pool_[top.id];
      if (!w.alive || w.propagated) continue;
      // A window's fields never change after its push, so its key is
      // still the one it was pushed with.
      TSO_DCHECK(MinKey(w) == top.key);
      frontier_ = std::max(frontier_, top.key);
      if (top.key > opts.radius_bound) break;
      w.propagated = true;
      ++stats_.windows_propagated;
      // Copy: InsertWindow during propagation may reallocate the pool.
      const Window snapshot = w;
      Propagate(snapshot);
    } else {
      const uint32_t v = top.id;
      if (vertex_processed_[v] ||
          top.key > vdist_[v] + kTieEps * (1.0 + vdist_[v])) {
        continue;
      }
      frontier_ = std::max(frontier_, top.key);
      if (top.key > opts.radius_bound) break;
      vertex_processed_[v] = 1;
      ++stats_.vertices_processed;
      SpawnPseudoSource(v);
    }

    if (pool_.size() > max_windows_) {
      return Status::Internal("MMP window budget exceeded");
    }
    if (!targets_.empty()) {
      drain_dirty();
      settle_targets();
      if (done()) return Status::Ok();
    }
  }
  if (heap_.empty()) frontier_ = kInfDist;  // wavefront exhausted: all settled
  if (!targets_.empty()) {
    drain_dirty();
    settle_targets();
  }
  return Status::Ok();
}

}  // namespace tso
