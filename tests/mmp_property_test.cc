// Property-style tests for the exact MMP solver, parameterized over terrain
// seeds and relief amplitudes.

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "base/logging.h"
#include "base/rng.h"
#include "geodesic/dijkstra_solver.h"
#include "geodesic/mmp_solver.h"
#include "geodesic/steiner_graph.h"
#include "geodesic/steiner_solver.h"
#include "geom/unfold.h"
#include "mesh/point_locator.h"
#include "mesh/refine.h"
#include "terrain/poi_generator.h"
#include "terrain/terrain_synth.h"

namespace tso {
namespace {

TerrainMesh Synth(uint64_t seed, double amplitude, uint32_t n = 300) {
  SynthSpec spec;
  spec.extent_x = 900.0;
  spec.extent_y = 700.0;
  spec.amplitude = amplitude;
  spec.feature_size = 250.0;
  spec.seed = seed;
  StatusOr<TerrainMesh> mesh = SynthesizeMesh(spec, n);
  TSO_CHECK(mesh.ok());
  return std::move(*mesh);
}

class MmpTerrainSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

// Centroid refinement leaves the surface geometrically identical (the new
// vertex lies in the face plane), so exact geodesic distances must be
// invariant — a very sharp correctness probe for window propagation across
// different triangulations of the same surface.
TEST_P(MmpTerrainSweep, RefinementInvariance) {
  const auto [seed, amplitude] = GetParam();
  TerrainMesh mesh = Synth(seed, amplitude);
  StatusOr<TerrainMesh> refined = RefineCentroid(mesh);
  ASSERT_TRUE(refined.ok());
  MmpSolver coarse(mesh);
  MmpSolver fine(*refined);
  Rng rng(seed * 31 + 7);
  for (int trial = 0; trial < 5; ++trial) {
    const uint32_t a = static_cast<uint32_t>(rng.Uniform(mesh.num_vertices()));
    const uint32_t b = static_cast<uint32_t>(rng.Uniform(mesh.num_vertices()));
    if (a == b) continue;
    // Original vertices keep their ids in RefineCentroid's output.
    const double d0 = coarse
                          .PointToPoint(SurfacePoint::AtVertex(mesh, a),
                                        SurfacePoint::AtVertex(mesh, b))
                          .value();
    const double d1 = fine
                          .PointToPoint(SurfacePoint::AtVertex(*refined, a),
                                        SurfacePoint::AtVertex(*refined, b))
                          .value();
    EXPECT_NEAR(d0, d1, 1e-6 * (1.0 + d0))
        << "seed=" << seed << " amp=" << amplitude << " pair " << a << ","
        << b;
  }
}

TEST_P(MmpTerrainSweep, BoundedByDenseSteinerGraph) {
  const auto [seed, amplitude] = GetParam();
  TerrainMesh mesh = Synth(seed, amplitude);
  MmpSolver mmp(mesh);
  StatusOr<SteinerGraph> graph = SteinerGraph::Build(mesh, 8);
  ASSERT_TRUE(graph.ok());
  SteinerSolver steiner(*graph);
  Rng rng(seed * 17 + 3);
  for (int trial = 0; trial < 4; ++trial) {
    const uint32_t a = static_cast<uint32_t>(rng.Uniform(mesh.num_vertices()));
    const uint32_t b = static_cast<uint32_t>(rng.Uniform(mesh.num_vertices()));
    if (a == b) continue;
    const SurfacePoint s = SurfacePoint::AtVertex(mesh, a);
    const SurfacePoint t = SurfacePoint::AtVertex(mesh, b);
    const double exact = mmp.PointToPoint(s, t).value();
    const double graph_d = steiner.PointToPoint(s, t).value();
    EXPECT_LE(exact, graph_d * (1.0 + 1e-9));
    EXPECT_LE(graph_d, exact * 1.05);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndReliefs, MmpTerrainSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(0.0, 150.0, 450.0)));

TEST(MmpFlatAmplitude, ZeroReliefIsEuclidean) {
  TerrainMesh mesh = Synth(9, 0.0);
  MmpSolver solver(mesh);
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const uint32_t a = static_cast<uint32_t>(rng.Uniform(mesh.num_vertices()));
    const uint32_t b = static_cast<uint32_t>(rng.Uniform(mesh.num_vertices()));
    const double d = solver
                         .PointToPoint(SurfacePoint::AtVertex(mesh, a),
                                       SurfacePoint::AtVertex(mesh, b))
                         .value();
    EXPECT_NEAR(d, Distance(mesh.vertex(a), mesh.vertex(b)),
                1e-7 * (1.0 + d));
  }
}

// Failure injection: the window budget must abort the run with a clean
// error, not crash or hang.
TEST(MmpFailureInjection, WindowBudgetExceeded) {
  TerrainMesh mesh = Synth(11, 300.0, 400);
  MmpSolver solver(mesh);
  solver.set_max_windows(16);
  const Status status = solver.Run(SurfacePoint::AtVertex(mesh, 0), {});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST(MmpFailureInjection, RecoversAfterFailedRun) {
  TerrainMesh mesh = Synth(12, 300.0, 400);
  MmpSolver solver(mesh);
  solver.set_max_windows(16);
  (void)solver.Run(SurfacePoint::AtVertex(mesh, 0), {});
  solver.set_max_windows(50'000'000);
  ASSERT_TRUE(solver.Run(SurfacePoint::AtVertex(mesh, 0), {}).ok());
  EXPECT_EQ(solver.VertexDistance(0), 0.0);
  EXPECT_TRUE(std::isfinite(
      solver.VertexDistance(static_cast<uint32_t>(mesh.num_vertices() - 1))));
}

TEST(MmpState, UnrunSolverReportsInfinity) {
  TerrainMesh mesh = Synth(13, 100.0, 200);
  MmpSolver solver(mesh);
  EXPECT_EQ(solver.VertexDistance(3), kInfDist);
  EXPECT_EQ(solver.PointDistance(SurfacePoint::AtVertex(mesh, 5)), kInfDist);
}

TEST(MmpState, RunStatsPopulated) {
  TerrainMesh mesh = Synth(14, 200.0, 300);
  MmpSolver solver(mesh);
  const MmpCounterSnapshot before = MmpCounterSnapshot::Take();
  ASSERT_TRUE(solver.Run(SurfacePoint::AtVertex(mesh, 0), {}).ok());
  // One run flushes exactly its own stats into the process-wide counters.
  const MmpCounterSnapshot delta = MmpCounterSnapshot::Take().Delta(before);
  EXPECT_EQ(delta.runs, 1u);
  EXPECT_EQ(delta.windows_created, solver.stats().windows_created);
  EXPECT_EQ(delta.windows_propagated, solver.stats().windows_propagated);
  EXPECT_EQ(delta.vertices_processed, solver.stats().vertices_processed);
  EXPECT_GT(solver.stats().windows_created, 0u);
  EXPECT_GT(solver.stats().windows_propagated, 0u);
  EXPECT_GT(solver.stats().vertices_processed, 0u);
  EXPECT_LE(solver.stats().vertices_processed, mesh.num_vertices());
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The per-(edge, side) unfolding table holds exactly what window
// propagation would otherwise compute on the fly, boundary edges included.
TEST(MmpUnfolding, TableMatchesOnTheFlyUnfolding) {
  std::vector<TerrainMesh> meshes;
  meshes.push_back(Synth(1, 0.0));
  meshes.push_back(Synth(2, 150.0));
  meshes.push_back(Synth(3, 450.0, 500));
  StatusOr<TerrainMesh> refined = RefineCentroid(meshes.back());
  ASSERT_TRUE(refined.ok());
  meshes.push_back(std::move(*refined));
  for (size_t m = 0; m < meshes.size(); ++m) {
    const TerrainMesh& mesh = meshes[m];
    const MmpSolver solver(mesh);
    size_t interior = 0;
    size_t boundary = 0;
    for (uint32_t e = 0; e < mesh.num_edges(); ++e) {
      const TerrainMesh::Edge& ed = mesh.edge(e);
      for (const uint32_t from_face : {ed.f0, ed.f1}) {
        const MmpSolver::Unfolding& u = solver.unfolding(e, from_face);
        const uint32_t face = mesh.other_face(e, from_face);
        ASSERT_EQ(u.face, face) << "mesh " << m << " edge " << e;
        if (face == kInvalidId) {
          ++boundary;
          continue;
        }
        ++interior;
        const uint32_t apex = mesh.opposite_vertex(face, e);
        ASSERT_EQ(u.apex, apex) << "mesh " << m << " edge " << e;
        const Vec3& pap = mesh.vertex(apex);
        const Vec2 apex_pos =
            ApexPosition(ed.length, Distance(pap, mesh.vertex(ed.v0)),
                         Distance(pap, mesh.vertex(ed.v1)));
        EXPECT_TRUE(SameBits(u.apex_pos.x, apex_pos.x)) << "edge " << e;
        EXPECT_TRUE(SameBits(u.apex_pos.y, apex_pos.y)) << "edge " << e;
        EXPECT_EQ(u.side_edge[0], mesh.edge_between(ed.v0, apex));
        EXPECT_EQ(u.side_edge[1], mesh.edge_between(ed.v1, apex));
        EXPECT_NE(u.side_edge[0], kInvalidId);
        EXPECT_NE(u.side_edge[1], kInvalidId);
      }
    }
    EXPECT_GT(boundary, 0u) << "mesh " << m;
    EXPECT_GT(interior, boundary) << "mesh " << m;
  }
}

// Target ids past the mesh (vertex >= N, face >= F, not kInvalidId) are
// unreachable, as DijkstraSolver answers for them, whether they come as a
// cover target, a stop target or a PointDistance query; the solver must
// not index its labels or the face table with them.
TEST(MmpState, OutOfRangeTargetsAreUnreachable) {
  TerrainMesh mesh = Synth(17, 200.0, 200);
  const uint32_t n = static_cast<uint32_t>(mesh.num_vertices());
  const uint32_t f = static_cast<uint32_t>(mesh.num_faces());
  SurfacePoint bad_vertex = SurfacePoint::AtVertex(mesh, 3);
  bad_vertex.vertex = n + 5;
  const SurfacePoint bad_face = SurfacePoint::OnFace(f + 5, mesh.vertex(3));
  const SurfacePoint source = SurfacePoint::AtVertex(mesh, 0);
  const SurfacePoint good = SurfacePoint::AtVertex(mesh, n / 2);
  MmpSolver mmp(mesh);
  DijkstraSolver dijkstra(mesh);
  for (const SurfacePoint& bad : {bad_vertex, bad_face}) {
    const std::vector<SurfacePoint> cover = {good, bad};
    SsadOptions cover_opts;
    cover_opts.cover_targets = &cover;
    ASSERT_TRUE(mmp.Run(source, cover_opts).ok());
    EXPECT_EQ(mmp.PointDistance(bad), kInfDist);
    EXPECT_TRUE(std::isfinite(mmp.PointDistance(good)));
    ASSERT_TRUE(dijkstra.Run(source, cover_opts).ok());
    EXPECT_EQ(dijkstra.PointDistance(bad), kInfDist);

    SsadOptions stop_opts;
    stop_opts.stop_target = &bad;
    ASSERT_TRUE(mmp.Run(source, stop_opts).ok());
    EXPECT_EQ(mmp.PointDistance(bad), kInfDist);
    // Never settled, so the run swept the whole mesh.
    EXPECT_EQ(mmp.frontier(), kInfDist);
    EXPECT_TRUE(std::isfinite(mmp.VertexDistance(n - 1)));

    ASSERT_TRUE(mmp.Run(source, {}).ok());
    EXPECT_EQ(mmp.PointDistance(bad), kInfDist);
  }
}

// The enhanced-edge phase sweeps each partition-tree center once, at its
// largest reach, and reads every smaller layer's labels off that one sweep.
// That is exact only if a label within radius R is bit-for-bit the value a
// run bounded at R computes: once a run passes R, every new window and
// vertex relaxation carries values above R, so none of them can trim, beat
// or re-route a label <= R.
TEST(MmpState, BoundedLabelsIndependentOfBound) {
  TerrainMesh mesh = Synth(16, 300.0, 400);
  const PointLocator locator(mesh);
  Rng rng(16);
  const std::vector<SurfacePoint> pois =
      GenerateUniformPois(mesh, locator, 80, rng);
  ASSERT_GT(pois.size(), 40u);
  MmpSolver unbounded(mesh);
  MmpSolver r1_run(mesh);
  MmpSolver r2_run(mesh);
  for (int trial = 0; trial < 6; ++trial) {
    // Alternate face-interior and vertex sources.
    const uint32_t v = static_cast<uint32_t>(rng.Uniform(mesh.num_vertices()));
    SurfacePoint source = pois[rng.Uniform(pois.size())];
    if (trial % 2 == 1) source = SurfacePoint::AtVertex(mesh, v);
    ASSERT_TRUE(unbounded.Run(source, {}).ok());
    double max_dist = 0.0;
    for (uint32_t v = 0; v < mesh.num_vertices(); ++v) {
      max_dist = std::max(max_dist, unbounded.VertexDistance(v));
    }
    const double r1 = max_dist * (0.2 + 0.1 * trial);
    SsadOptions o1;
    o1.radius_bound = r1;
    SsadOptions o2;
    o2.radius_bound = r1 * 1.6;
    ASSERT_TRUE(r1_run.Run(source, o1).ok());
    ASSERT_TRUE(r2_run.Run(source, o2).ok());

    size_t compared = 0;
    auto check = [&](double a, double b, double c, const char* what,
                     uint32_t id) {
      // The same set of labels lies within r1 in every run ...
      EXPECT_EQ(a <= r1, b <= r1) << what << " " << id << " trial " << trial;
      EXPECT_EQ(a <= r1, c <= r1) << what << " " << id << " trial " << trial;
      if (a > r1) return;
      // ... and each of them is bit-identical.
      ++compared;
      EXPECT_TRUE(SameBits(a, b))
          << what << " " << id << " trial " << trial << ": " << a << " vs "
          << b;
      EXPECT_TRUE(SameBits(a, c))
          << what << " " << id << " trial " << trial << ": " << a << " vs "
          << c;
    };
    for (uint32_t i = 0; i < pois.size(); ++i) {
      check(r1_run.PointDistance(pois[i]), r2_run.PointDistance(pois[i]),
            unbounded.PointDistance(pois[i]), "poi", i);
    }
    for (uint32_t v = 0; v < mesh.num_vertices(); ++v) {
      check(r1_run.VertexDistance(v), r2_run.VertexDistance(v),
            unbounded.VertexDistance(v), "vertex", v);
    }
    EXPECT_GT(compared, 10u) << "trial " << trial;
  }
}

// Consecutive runs from different sources must not leak state.
TEST(MmpState, RunsAreIndependent) {
  TerrainMesh mesh = Synth(15, 250.0, 300);
  MmpSolver fresh_a(mesh);
  MmpSolver fresh_b(mesh);
  MmpSolver reused(mesh);
  const SurfacePoint s0 = SurfacePoint::AtVertex(mesh, 0);
  const SurfacePoint s1 = SurfacePoint::AtVertex(
      mesh, static_cast<uint32_t>(mesh.num_vertices() / 2));
  ASSERT_TRUE(fresh_a.Run(s0, {}).ok());
  ASSERT_TRUE(fresh_b.Run(s1, {}).ok());
  ASSERT_TRUE(reused.Run(s0, {}).ok());
  ASSERT_TRUE(reused.Run(s1, {}).ok());  // second run on the same instance
  for (uint32_t v = 0; v < mesh.num_vertices(); v += 7) {
    EXPECT_NEAR(reused.VertexDistance(v), fresh_b.VertexDistance(v),
                1e-9 * (1.0 + fresh_b.VertexDistance(v)));
  }

  // Interleave cover-target runs, target-free runs and a run aborted by the
  // window budget: the reused window scratch and per-face / per-vertex target
  // lists must carry nothing from one run into the next, so every run matches
  // a fresh solver bit for bit.
  const PointLocator locator(mesh);
  Rng rng(15);
  std::vector<SurfacePoint> targets =
      GenerateUniformPois(mesh, locator, 12, rng);
  targets.push_back(SurfacePoint::AtVertex(mesh, 5));
  SsadOptions cover;
  cover.cover_targets = &targets;
  const std::vector<SurfacePoint> few(targets.begin(), targets.begin() + 3);
  SsadOptions cover_few;
  cover_few.cover_targets = &few;

  auto expect_targets_match = [&](const MmpSolver& got,
                                  const std::vector<SurfacePoint>& pts,
                                  const SurfacePoint& source,
                                  const SsadOptions& opts, const char* what) {
    MmpSolver fresh(mesh);
    ASSERT_TRUE(fresh.Run(source, opts).ok());
    for (size_t i = 0; i < pts.size(); ++i) {
      EXPECT_TRUE(SameBits(got.PointDistance(pts[i]),
                           fresh.PointDistance(pts[i])))
          << what << " target " << i;
    }
    EXPECT_TRUE(SameBits(got.frontier(), fresh.frontier())) << what;
  };
  auto expect_vertices_match = [&](const MmpSolver& got,
                                   const MmpSolver& fresh, const char* what) {
    for (uint32_t v = 0; v < mesh.num_vertices(); ++v) {
      EXPECT_TRUE(SameBits(got.VertexDistance(v), fresh.VertexDistance(v)))
          << what << " vertex " << v;
    }
  };

  ASSERT_TRUE(reused.Run(s0, cover).ok());
  expect_targets_match(reused, targets, s0, cover, "cover s0");
  ASSERT_TRUE(reused.Run(s1, {}).ok());
  expect_vertices_match(reused, fresh_b, "target-free s1");
  ASSERT_TRUE(reused.Run(s1, cover_few).ok());
  expect_targets_match(reused, few, s1, cover_few, "few targets s1");
  reused.set_max_windows(16);
  EXPECT_EQ(reused.Run(s1, cover).code(), StatusCode::kInternal);
  reused.set_max_windows(50'000'000);
  ASSERT_TRUE(reused.Run(s0, {}).ok());
  expect_vertices_match(reused, fresh_a, "target-free s0 after failure");
  ASSERT_TRUE(reused.Run(s1, cover).ok());
  expect_targets_match(reused, targets, s1, cover, "cover s1 after failure");
}

}  // namespace
}  // namespace tso
