#ifndef TSO_GEODESIC_MMP_SOLVER_H_
#define TSO_GEODESIC_MMP_SOLVER_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "geodesic/solver.h"
#include "geom/vec2.h"

namespace tso {

/// Process-wide MMP kernel counters, flushed once per MmpSolver::Run (like
/// GlobalSsadCounters, so the atomics cost nothing on the hot path).
/// bench_build reads them to report window totals per build.
struct MmpKernelCounters {
  std::atomic<uint64_t> runs{0};
  std::atomic<uint64_t> windows_created{0};
  std::atomic<uint64_t> windows_propagated{0};
  std::atomic<uint64_t> vertices_processed{0};
};

inline MmpKernelCounters& GlobalMmpCounters() {
  static MmpKernelCounters counters;
  return counters;
}

/// Plain-value snapshot of the global MMP counters (for before/after deltas).
struct MmpCounterSnapshot {
  uint64_t runs = 0;
  uint64_t windows_created = 0;
  uint64_t windows_propagated = 0;
  uint64_t vertices_processed = 0;

  static MmpCounterSnapshot Take() {
    MmpKernelCounters& g = GlobalMmpCounters();
    MmpCounterSnapshot s;
    s.runs = g.runs.load(std::memory_order_relaxed);
    s.windows_created = g.windows_created.load(std::memory_order_relaxed);
    s.windows_propagated =
        g.windows_propagated.load(std::memory_order_relaxed);
    s.vertices_processed =
        g.vertices_processed.load(std::memory_order_relaxed);
    return s;
  }

  MmpCounterSnapshot Delta(const MmpCounterSnapshot& earlier) const {
    MmpCounterSnapshot d;
    d.runs = runs - earlier.runs;
    d.windows_created = windows_created - earlier.windows_created;
    d.windows_propagated = windows_propagated - earlier.windows_propagated;
    d.vertices_processed = vertices_processed - earlier.vertices_processed;
    return d;
  }
};

/// Exact geodesic SSAD via the MMP continuous-Dijkstra algorithm
/// (Mitchell–Mount–Papadimitriou [26], in the practical formulation of
/// Surazhsky et al.): the wavefront is maintained as *windows* on mesh edges
/// — intervals with a planar-unfolded pseudo-source — propagated in
/// min-distance order across faces. Overlapping windows are trimmed against
/// each other by solving for the exact hyperbola crossing of their distance
/// functions, so the surviving windows form the lower envelope of the
/// distance field restricted to each edge.
///
/// Pseudo-sources are spawned from *every* vertex whose label improves (not
/// only saddle vertices). Windows that such spawning adds at non-saddle
/// vertices are dominated and quickly trimmed, so distances stay exact while
/// the implementation remains robust on arbitrary manifold meshes (see
/// docs/substitutions.md, "Pseudo-sources at every vertex").
///
/// This is the paper's "SSAD exact shortest path algorithm" plug-in (§3.2
/// Implementation Detail 2), supporting all three stopping criteria of
/// SsadOptions.
class MmpSolver : public GeodesicSolver {
 public:
  explicit MmpSolver(const TerrainMesh& mesh);

  Status Run(const SurfacePoint& source, const SsadOptions& opts) override;
  double VertexDistance(uint32_t v) const override;
  double PointDistance(const SurfacePoint& p) const override;
  double frontier() const override { return frontier_; }
  const char* name() const override { return "mmp-exact"; }

  /// Statistics of the last run (for benchmarks / tests).
  struct RunStats {
    size_t windows_created = 0;
    size_t windows_propagated = 0;
    size_t vertices_processed = 0;
  };
  const RunStats& stats() const { return stats_; }

  /// Hard cap on windows per run; exceeding it aborts the run with an error.
  void set_max_windows(size_t cap) { max_windows_ = cap; }

  /// How a wave crossing an edge unfolds into the face beyond it: the face,
  /// its apex (the vertex off the edge), the apex laid out in the edge frame
  /// of geom/unfold.h, and the face's other two edges.
  struct Unfolding {
    Vec2 apex_pos;  // ApexPosition(edge length, |apex v0|, |apex v1|)
    uint32_t face = kInvalidId;  // kInvalidId past a boundary edge
    uint32_t apex = kInvalidId;
    // Edge apex-v0, edge apex-v1 (v0/v1 of the crossed edge).
    uint32_t side_edge[2] = {kInvalidId, kInvalidId};
  };
  /// The unfolding of `edge` into the face other than `from_face`. Built
  /// once per solver, so window propagation does no adjacency scans.
  const Unfolding& unfolding(uint32_t edge, uint32_t from_face) const {
    return unfoldings_[2 * size_t{edge} +
                       (mesh_.edge(edge).f0 == from_face ? 1 : 0)];
  }

 private:
  struct Window {
    double b0, b1;   // interval on the edge, canonical param in [0, length]
    // Pseudo-source distance to the points at b0 / b1. A pool window holds
    // exactly hypot(b0 - sx, sy) / hypot(b1 - sx, sy), so DistAt(w, w.b0)
    // == w.sigma + w.d0 bit for bit (likewise at b1).
    double d0, d1;
    double sigma;    // real source -> pseudo-source distance
    double sx, sy;   // unfolded pseudo-source; sy >= 0 by convention
    uint32_t edge;
    uint32_t from_face;  // face the wave crossed; propagates into the other
    bool alive;
    bool propagated;
  };

  struct Event {
    double key;
    uint32_t id;    // window id or vertex id
    uint8_t type;   // 0 = window, 1 = vertex
    bool operator>(const Event& o) const { return key > o.key; }
  };

  // What EvaluatePoint needs of a face point that depends only on the point:
  // its unfolding over each face edge (face_edges order) and its distance to
  // each face vertex (face order). Cover and stop runs compute it once per
  // target.
  struct PointGeometry {
    Vec2 unfolded[3];
    double vertex_dist[3];
  };

  static double DistAt(const Window& w, double x);
  static double MinKey(const Window& w);
  // Whether w's distance at x beats o's by more than the tie tolerance.
  static bool WinsStrictly(const Window& w, const Window& o, double x);
  static void ComputeSource(Window* w);

  Status RunSweep(const SurfacePoint& source, const SsadOptions& opts);
  void Reset();
  Status InitSource(const SurfacePoint& source);
  void InsertWindow(Window w);
  void Propagate(const Window& w);
  void SpawnPseudoSource(uint32_t v);
  void UpdateVertex(uint32_t v, double d);
  void MarkFaceTargetsDirty(uint32_t face);
  void MarkTargetsDirty(const std::vector<uint32_t>& list);
  std::vector<uint32_t>* TargetList(const SurfacePoint& t);
  // `geometry` is p's precomputed PointGeometry, or null to compute it.
  double EvaluatePoint(const SurfacePoint& p,
                       const PointGeometry* geometry) const;
  void ComputePointGeometry(const SurfacePoint& p, PointGeometry* g) const;

  const TerrainMesh& mesh_;
  // unfoldings_[2e] unfolds edge e into its face f0, [2e + 1] into f1.
  std::vector<Unfolding> unfoldings_;
  std::vector<double> vdist_;
  std::vector<uint8_t> vertex_processed_;
  std::vector<Window> pool_;
  std::vector<std::vector<uint32_t>> edge_windows_;
  std::vector<uint32_t> touched_edges_;
  // std::priority_queue replacement via push/pop_heap.
  std::vector<Event> heap_;
  double frontier_ = 0.0;
  double eps_len_ = 0.0;
  SurfacePoint source_;
  RunStats stats_;
  size_t max_windows_ = 50'000'000;

  // InsertWindow scratch, reused across calls so the kernel never allocates
  // once capacities have grown: the surviving pieces of the new window, the
  // pieces an existing window keeps, and the edge's next window list.
  using Interval = std::pair<double, double>;
  std::vector<Interval> w_frags_;
  std::vector<Interval> w_frags_next_;
  std::vector<Interval> o_keep_;
  std::vector<Interval> o_merged_;
  std::vector<Window> o_fragments_;
  std::vector<uint32_t> rebuilt_;

  // Target bookkeeping for cover/stop termination.
  std::vector<SurfacePoint> targets_;
  std::vector<PointGeometry> target_geometry_;  // set for in-range faces
  std::vector<double> target_est_;
  std::vector<uint8_t> target_settled_;
  std::vector<uint32_t> dirty_stack_;
  std::vector<uint8_t> target_dirty_;
  // Target indices per face / vertex, sized once; Reset() clears only the
  // entries the last run's targets filled.
  std::vector<std::vector<uint32_t>> face_targets_;
  std::vector<std::vector<uint32_t>> vertex_targets_;
  std::vector<Event> target_heap_;  // (est, target idx) min-heap, lazy
  size_t targets_settled_count_ = 0;
};

}  // namespace tso

#endif  // TSO_GEODESIC_MMP_SOLVER_H_
