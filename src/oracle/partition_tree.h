#ifndef TSO_ORACLE_PARTITION_TREE_H_
#define TSO_ORACLE_PARTITION_TREE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/rng.h"
#include "geodesic/solver.h"
#include "mesh/terrain_mesh.h"

namespace tso {

/// Uniform x-y grid over a point set; returns candidate ids whose cells
/// intersect a query disk (caller verifies real distances — geodesic
/// distance dominates x-y Euclidean distance, so the filter is
/// conservative). Shared by the partition-tree build and the enhanced-edge
/// phase of SeOracle::Build.
class XyGrid {
 public:
  XyGrid(const std::vector<SurfacePoint>& points, double cell);

  void Query(double x, double y, double radius,
             std::vector<uint32_t>* out) const;

 private:
  int64_t Coord(double v) const;
  static uint64_t Pack(int64_t cx, int64_t cy);

  double cell_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> cells_;
};

/// Groups point indices into batches of at most `max_batch`, consecutive in
/// x-y cell order (cell width sized for ~max_batch points per cell,
/// lexicographic by cell coordinate), so each batch is spatially clustered;
/// a batch never spans more than `max_spread` along any axis (x, y, or z —
/// points too far apart to share a sweep get their own batch). This is the
/// source-grouping used to feed GeodesicSolver::SolveBatch: it only pays off
/// when a sweep's sources search overlapping regions. Deterministic in the
/// input order — independent of thread count or hash-map iteration.
std::vector<std::vector<uint32_t>> XyClusteredBatches(
    const std::vector<SurfacePoint>& points, size_t max_batch,
    double max_spread);

/// Point-selection strategies of §3.2 Implementation Detail 1.
enum class SelectionStrategy {
  kRandom,  // SE(Random): uniform pick from the uncovered set
  kGreedy,  // SE(Greedy): pick from the densest grid cell
};

const char* SelectionStrategyName(SelectionStrategy s);

struct PartitionTreeStats {
  int height = 0;
  size_t num_nodes = 0;
  size_t ssad_runs = 0;
  double build_seconds = 0.0;
  // Parallel-build accounting: SSADs executed by worker threads, and
  // speculative runs whose candidate never became a center (wasted work).
  size_t speculative_ssads = 0;
  size_t wasted_ssads = 0;
};

/// Parallel-construction knobs. When `solver_factory` is set and
/// `num_threads` > 1, the per-layer coverage/parent SSADs are precomputed
/// speculatively in batches of pairwise-separated candidates by
/// `num_threads` ParallelFor workers (base/parallel.h), each with its own
/// factory-created solver. The committed tree is bit-identical
/// to the serial build for any thread count: candidate selection order and
/// RNG consumption are unchanged, and an SSAD's result does not depend on
/// when it runs. The factory must produce solvers over the same mesh and
/// metric as the injected solver.
struct PartitionTreeOptions {
  SolverFactory solver_factory;
  uint32_t num_threads = 1;
};

/// The hierarchical disk cover of §3.2: Layer i consists of nodes with radius
/// r_0/2^i whose disks cover all POIs, with centers pairwise at least
/// r_0/2^i apart (Separation + Covering properties); every node's center lies
/// within 2·r_parent of its parent's center (Distance property).
class PartitionTree {
 public:
  struct Node {
    uint32_t center;   // POI index
    double radius;
    int32_t layer;
    uint32_t parent;   // kInvalidId for the root
    std::vector<uint32_t> children;
  };

  /// Builds the tree over `pois` using `solver` as the geodesic engine
  /// (§3.2's construction algorithm). POIs must be distinct. `options`
  /// optionally parallelizes the per-layer SSADs (see PartitionTreeOptions);
  /// the result is identical for every thread count.
  static StatusOr<PartitionTree> Build(
      const TerrainMesh& mesh, const std::vector<SurfacePoint>& pois,
      GeodesicSolver& solver, SelectionStrategy strategy, Rng& rng,
      PartitionTreeStats* stats = nullptr,
      const PartitionTreeOptions& options = {});

  int height() const { return height_; }        // h
  double root_radius() const { return r0_; }    // r_0
  double LayerRadius(int layer) const {
    return r0_ / static_cast<double>(1u << layer);
  }

  size_t num_nodes() const { return nodes_.size(); }
  const Node& node(uint32_t id) const { return nodes_[id]; }
  uint32_t root() const { return 0; }
  const std::vector<uint32_t>& layer_nodes(int layer) const {
    return layer_nodes_[layer];
  }
  /// The Layer-h leaf whose center is POI p.
  uint32_t leaf_of_poi(uint32_t poi) const { return leaf_of_poi_[poi]; }
  size_t num_pois() const { return leaf_of_poi_.size(); }

  /// Verifies the Separation / Covering / Distance properties (Lemma 1)
  /// using `solver` for distances. O(n² · h) — tests only.
  Status CheckProperties(const std::vector<SurfacePoint>& pois,
                         GeodesicSolver& solver) const;

 private:
  PartitionTree() = default;

  std::vector<Node> nodes_;
  std::vector<std::vector<uint32_t>> layer_nodes_;
  std::vector<uint32_t> leaf_of_poi_;
  double r0_ = 0.0;
  int height_ = 0;
};

}  // namespace tso

#endif  // TSO_ORACLE_PARTITION_TREE_H_
