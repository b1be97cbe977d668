#include "oracle/se_oracle_builder.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "base/logging.h"
#include "base/parallel.h"
#include "base/timer.h"

namespace tso {
namespace {

/// Mutex-striped distance memo shared by the parallel WSPD workers (replaces
/// the single-threaded unordered_map fallback path). Keys are PairKey of the
/// ordered POI ids.
class ShardedDistMemo {
 public:
  bool Lookup(uint64_t key, double* out) {
    Shard& s = shard(key);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.map.find(key);
    if (it == s.map.end()) return false;
    *out = it->second;
    return true;
  }

  void Insert(uint64_t key, double value) {
    Shard& s = shard(key);
    std::lock_guard<std::mutex> lock(s.mu);
    s.map.emplace(key, value);
  }

 private:
  static constexpr size_t kShards = 64;
  struct Shard {
    std::mutex mu;
    std::unordered_map<uint64_t, double> map;
  };
  Shard& shard(uint64_t key) {
    return shards_[(key * 0x9e3779b97f4a7c15ULL) >> 58];
  }
  Shard shards_[kShards];
};

/// Build-time enhanced-edge index (§3.5 Steps 2–3): for each pair of
/// same-layer partition-tree nodes with d(c_O, c_O') <= l·r_O (l = 8/ε+10),
/// the exact center distance. Keyed by ordered original-tree node ids.
struct EnhancedEdges {
  PerfectHash hash;
  size_t count = 0;

  bool Lookup(uint32_t a, uint32_t b, double* dist) const {
    uint64_t bits;
    if (!hash.Lookup(PairKey(a, b), &bits)) return false;
    static_assert(sizeof(double) == sizeof(uint64_t));
    std::memcpy(dist, &bits, sizeof(double));
    return true;
  }
};

/// Per-layer lookup structures shared by both enhanced-edge pipelines.
struct EnhancedLayer {
  double reach = 0.0;                // candidate-pair distance cap
  std::vector<SurfacePoint> center_points;  // aligned with layer_nodes
  std::unique_ptr<XyGrid> grid;      // x-y prefilter over the centers
  std::unordered_map<uint32_t, uint32_t> center_to_index;  // POI -> index
};

/// Emits every enhanced edge of `layer` anchored at its center index `i`,
/// reading per-source distances from the solver's last sweep. The grid
/// prefilter is conservative (geodesic >= planar distance), so the emitted
/// set is exactly the pairs with d <= reach regardless of the sweep that
/// produced the labels.
void EmitLayerEdges(const EnhancedLayer& layer,
                    const std::vector<uint32_t>& nodes, uint32_t i,
                    const GeodesicSolver& s, uint32_t source_index,
                    std::vector<uint32_t>* candidates,
                    std::vector<std::pair<uint64_t, uint64_t>>* out) {
  const SurfacePoint& center = layer.center_points[i];
  layer.grid->Query(center.pos.x, center.pos.y, layer.reach, candidates);
  for (uint32_t j : *candidates) {
    if (j == i) continue;
    const double d =
        s.BatchPointDistance(source_index, layer.center_points[j]);
    if (d <= layer.reach) {
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(double));
      out->emplace_back(PairKey(nodes[i], nodes[j]), bits);
    }
  }
}

using EdgeEntries = std::vector<std::pair<uint64_t, uint64_t>>;

/// Runs `process(solver, index, out)` for indices [0, count): serially on
/// the injected solver when a worker pool would not pay off (count < 2·T),
/// otherwise on `num_threads` ParallelFor workers, each with a
/// factory-created solver, concatenating the per-worker entry shards in
/// worker order. Entry order is scheduling-dependent in the parallel case;
/// consumers only depend on the entry set.
Status ShardEnhancedWork(
    GeodesicSolver& solver, const SolverFactory& factory,
    uint32_t num_threads, size_t count,
    const std::function<Status(GeodesicSolver&, uint32_t, EdgeEntries&)>&
        process,
    EdgeEntries* entries) {
  const uint32_t workers = count < 2 * size_t{num_threads} ? 1 : num_threads;
  std::vector<std::unique_ptr<GeodesicSolver>> local(workers);
  std::vector<EdgeEntries> shards(workers);
  auto run_chunk = [&](uint32_t w, size_t begin, size_t end) -> Status {
    GeodesicSolver* s = &solver;
    if (workers > 1) {
      if (local[w] == nullptr) local[w] = factory();
      if (local[w] == nullptr) {
        return Status::Internal("solver factory returned null");
      }
      s = local[w].get();
    }
    EdgeEntries& out = w == 0 ? *entries : shards[w];
    for (size_t i = begin; i < end; ++i) {
      TSO_RETURN_IF_ERROR(process(*s, static_cast<uint32_t>(i), out));
    }
    return Status::Ok();
  };
  TSO_RETURN_IF_ERROR(ParallelFor(workers, count, 1, run_chunk));
  for (uint32_t w = 1; w < workers; ++w) {
    entries->insert(entries->end(), shards[w].begin(), shards[w].end());
  }
  return Status::Ok();
}

StatusOr<EnhancedEdges> BuildEnhancedEdges(
    const PartitionTree& tree, const std::vector<SurfacePoint>& pois,
    GeodesicSolver& solver, const SeOracleOptions& options,
    uint32_t num_threads, SeBuildStats* st) {
  const double l = 8.0 / options.epsilon + 10.0;
  // Sources per sweep: the requested batch, clamped to what the solver's
  // kernel can tag (1 for solvers without native multi-source support).
  const uint32_t batch_limit =
      std::max(1u, std::min(std::max(options.ssad_batch, 1u),
                            solver.max_batch()));
  st->ssad_batch_used = batch_limit;
  // Only an explicit request for one source per sweep selects the per-node
  // reference pipeline. A larger request that the solver clamps to 1 (MMP)
  // still takes the deduplicated pipeline, with singleton batches.
  const bool per_node = options.ssad_batch <= 1;
  const int height = tree.height();

  // Candidate lookup per layer. Layers with < 2 nodes have no same-layer
  // pairs; layer sizes are non-decreasing, so eligible layers are a suffix.
  std::vector<EnhancedLayer> layers(height + 1);
  for (int m = 0; m <= height; ++m) {
    const std::vector<uint32_t>& nodes = tree.layer_nodes(m);
    if (nodes.size() < 2) continue;
    EnhancedLayer& layer = layers[m];
    // All POIs lie within r_0 of the root center, so center distances never
    // exceed 2·r_0; capping the expansion there loses no enhanced edge.
    layer.reach = std::min(l * tree.LayerRadius(m),
                           2.0 * tree.root_radius() * (1.0 + 1e-9));
    layer.center_points.reserve(nodes.size());
    for (uint32_t id : nodes) {
      layer.center_points.push_back(pois[tree.node(id).center]);
    }
    layer.grid = std::make_unique<XyGrid>(layer.center_points, layer.reach);
    if (!per_node) {
      // Only the batched pipeline's cross-layer harvest looks centers up.
      layer.center_to_index.reserve(nodes.size());
      for (uint32_t i = 0; i < nodes.size(); ++i) {
        layer.center_to_index.emplace(tree.node(nodes[i]).center, i);
      }
    }
  }

  std::vector<std::pair<uint64_t, uint64_t>> entries;

  if (per_node) {
    // Reference pipeline (no cross-layer dedup, no multi-source batching):
    // one SSAD per tree node, layer by layer. Kept as the plain baseline the
    // batched pipeline must match bit-for-bit; still sharded over workers
    // when threads are given.
    for (int m = 0; m <= height; ++m) {
      if (layers[m].grid == nullptr) continue;
      const EnhancedLayer& layer = layers[m];
      const std::vector<uint32_t>& nodes = tree.layer_nodes(m);

      auto process_node = [&](GeodesicSolver& s, uint32_t i,
                              EdgeEntries& out) -> Status {
        SsadOptions opts;
        opts.radius_bound = layer.reach * (1.0 + 1e-9);
        TSO_RETURN_IF_ERROR(s.Run(layer.center_points[i], opts));
        std::vector<uint32_t> candidates;
        EmitLayerEdges(layer, nodes, i, s, 0, &candidates, &out);
        return Status::Ok();
      };
      TSO_RETURN_IF_ERROR(ShardEnhancedWork(
          solver, options.parallel_solver_factory, num_threads, nodes.size(),
          process_node, &entries));
      st->ssad_runs += nodes.size();
      st->enhanced_sweeps += nodes.size();
    }
  } else {
    // Batched pipeline. Two amortizations, both preserving the exact entry
    // set and bit-identical distances:
    //  * cross-layer sweep dedup — a center persists to every deeper layer
    //    (pc-priority selection + the Separation property), so instead of
    //    one SSAD per tree node, each *distinct* center sweeps once at its
    //    topmost (largest) reach and the labels are harvested for every
    //    layer it centers. A bounded sweep's labels within the bound do not
    //    depend on the bound: once a Dijkstra or MMP sweep passes radius R,
    //    every new label or window carries values above R, so it can neither
    //    beat nor trim a value <= R;
    //  * multi-source group sweeps — sweeps that start at the same topmost
    //    layer share one kernel sweep per spatially-clustered batch. When
    //    the solver clamps the batch to 1 (MMP) the batches are singletons:
    //    SolveBatch of one source is Run, BatchPointDistance(0, ·) is
    //    PointDistance.
    struct SweepGroup {
      int top_layer;                        // sweep radius = reach here
      std::vector<uint32_t> first_indices;  // into that layer's nodes
      std::vector<std::vector<uint32_t>> batches;
    };
    std::vector<SweepGroup> groups;
    std::vector<uint8_t> seen(pois.size(), 0);
    size_t total_batches = 0;
    for (int m = 0; m <= height; ++m) {
      if (layers[m].grid == nullptr) continue;
      const std::vector<uint32_t>& nodes = tree.layer_nodes(m);
      SweepGroup group;
      group.top_layer = m;
      std::vector<SurfacePoint> group_points;
      for (uint32_t i = 0; i < nodes.size(); ++i) {
        const uint32_t center = tree.node(nodes[i]).center;
        if (seen[center] != 0) continue;
        seen[center] = 1;
        group.first_indices.push_back(i);
        group_points.push_back(layers[m].center_points[i]);
      }
      if (group.first_indices.empty()) continue;
      // Sources sharing a sweep must be tight relative to the search
      // radius: a spread-comparable-to-reach batch degenerates into
      // label-correcting churn.
      group.batches = XyClusteredBatches(group_points, batch_limit,
                                         0.1 * layers[m].reach);
      total_batches += group.batches.size();
      st->ssad_runs += group.first_indices.size();
      groups.push_back(std::move(group));
    }
    st->enhanced_sweeps += total_batches;

    // Flatten for the work queue: one group sweep per batch, harvested for
    // every layer from the batch's top layer down. Batches are independent,
    // so shard them over workers.
    std::vector<std::pair<const SweepGroup*, const std::vector<uint32_t>*>>
        work;
    work.reserve(total_batches);
    for (const SweepGroup& group : groups) {
      for (const std::vector<uint32_t>& batch : group.batches) {
        work.emplace_back(&group, &batch);
      }
    }
    auto process_batch = [&](GeodesicSolver& s, const SweepGroup& group,
                             const std::vector<uint32_t>& batch,
                             EdgeEntries& out) -> Status {
      const EnhancedLayer& top = layers[group.top_layer];
      const std::vector<uint32_t>& top_nodes =
          tree.layer_nodes(group.top_layer);
      std::vector<SurfacePoint> sources;
      sources.reserve(batch.size());
      for (uint32_t b : batch) {
        sources.push_back(top.center_points[group.first_indices[b]]);
      }
      SsadOptions opts;
      opts.radius_bound = top.reach * (1.0 + 1e-9);
      TSO_RETURN_IF_ERROR(s.SolveBatch(sources, opts));
      std::vector<uint32_t> candidates;
      for (uint32_t b = 0; b < batch.size(); ++b) {
        const uint32_t i_top = group.first_indices[batch[b]];
        const uint32_t center = tree.node(top_nodes[i_top]).center;
        for (int m = group.top_layer; m <= height; ++m) {
          if (layers[m].grid == nullptr) continue;
          const auto it = layers[m].center_to_index.find(center);
          TSO_CHECK(it != layers[m].center_to_index.end());
          EmitLayerEdges(layers[m], tree.layer_nodes(m), it->second, s, b,
                         &candidates, &out);
        }
      }
      return Status::Ok();
    };

    TSO_RETURN_IF_ERROR(ShardEnhancedWork(
        solver, options.parallel_solver_factory, num_threads, work.size(),
        [&](GeodesicSolver& s, uint32_t i, EdgeEntries& out) {
          return process_batch(s, *work[i].first, *work[i].second, out);
        },
        &entries));
  }

  EnhancedEdges edges;
  edges.count = entries.size();
  StatusOr<PerfectHash> hash = PerfectHash::Build(entries);
  if (!hash.ok()) return hash.status();
  edges.hash = std::move(*hash);
  return edges;
}

}  // namespace

StatusOr<SeOracle> SeOracleBuilder::Build(std::vector<SurfacePoint> pois) {
  const SeOracleOptions& options = options_;
  const TerrainMesh& mesh = mesh_;
  GeodesicSolver& solver = solver_;
  if (options.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (pois.empty()) return Status::InvalidArgument("no POIs");
  WallTimer total_timer;
  SeBuildStats& st = stats_;
  st = SeBuildStats{};

  Rng rng(options.seed);

  // One thread count for every parallel phase: tree speculation, enhanced
  // edges, and the WSPD recursion.
  uint32_t num_threads = 1;
  if (options.parallel_solver_factory != nullptr) {
    num_threads =
        options.num_threads != 0 ? options.num_threads : HardwareThreads();
  }
  st.threads_used = num_threads;

  // --- Step 1: partition tree + compressed tree ---
  WallTimer phase_timer;
  PartitionTreeStats tree_stats;
  PartitionTreeOptions tree_options;
  if (num_threads > 1) {
    tree_options.solver_factory = options.parallel_solver_factory;
    tree_options.num_threads = num_threads;
  }
  StatusOr<PartitionTree> tree =
      PartitionTree::Build(mesh, pois, solver, options.selection, rng,
                           &tree_stats, tree_options);
  if (!tree.ok()) return tree.status();
  st.tree_seconds = phase_timer.ElapsedSeconds();
  st.ssad_runs += tree_stats.ssad_runs;
  st.tree_speculative_ssads = tree_stats.speculative_ssads;
  st.tree_wasted_ssads = tree_stats.wasted_ssads;
  st.height = tree->height();

  double epsilon = options.epsilon;
  CompressedTree compressed = CompressedTree::FromPartitionTree(*tree);

  // --- Steps 2+3 (efficient only): enhanced edges + perfect hash ---
  phase_timer.Reset();
  EnhancedEdges enhanced;
  if (options.construction == ConstructionMethod::kEfficient &&
      pois.size() > 1) {
    StatusOr<EnhancedEdges> built = BuildEnhancedEdges(
        *tree, pois, solver, options, num_threads, &st);
    if (!built.ok()) return built.status();
    enhanced = std::move(*built);
    st.enhanced_edges = enhanced.count;
  }
  st.enhanced_seconds = phase_timer.ElapsedSeconds();

  // --- Step 4: node pair set ---
  phase_timer.Reset();
  // Naive per-pair distances (used by SE-Naive for every pair, and by the
  // efficient method only as a guarded fallback) go through a sharded memo
  // and per-worker solvers, so the WSPD recursion can run multi-threaded.
  const PartitionTree& orig_tree = *tree;
  ShardedDistMemo memo;
  std::atomic<size_t> naive_ssad_runs{0};
  std::atomic<size_t> distance_fallbacks{0};
  std::vector<std::unique_ptr<GeodesicSolver>> worker_solvers(num_threads);

  // Builds worker t's center-distance function. Worker 0's is also used by
  // the calling thread for seed expansion (never concurrently).
  auto make_center_dist = [&](uint32_t t) -> CenterDistFn {
    auto naive_dist = [&, t](uint32_t ca, uint32_t cb) -> double {
      const uint64_t key = PairKey(std::min(ca, cb), std::max(ca, cb));
      double d;
      if (memo.Lookup(key, &d)) return d;
      GeodesicSolver* s = &solver;
      if (num_threads > 1) {
        if (worker_solvers[t] == nullptr) {
          worker_solvers[t] = options.parallel_solver_factory();
          TSO_CHECK(worker_solvers[t] != nullptr);
        }
        s = worker_solvers[t].get();
      }
      StatusOr<double> computed = s->PointToPoint(pois[ca], pois[cb]);
      naive_ssad_runs.fetch_add(1, std::memory_order_relaxed);
      TSO_CHECK(computed.ok());
      memo.Insert(key, *computed);
      return *computed;
    };
    if (options.construction == ConstructionMethod::kNaive) {
      return [naive_dist](uint32_t ca, uint32_t cb) -> double {
        if (ca == cb) return 0.0;
        return naive_dist(ca, cb);
      };
    }
    return [&, naive_dist](uint32_t ca, uint32_t cb) -> double {
      if (ca == cb) return 0.0;
      // Walk the original-tree leaf->root paths in lockstep (one node per
      // layer) and probe the enhanced-edge hash; Lemma 4 guarantees a hit
      // whose endpoints carry exactly these centers.
      uint32_t u = orig_tree.leaf_of_poi(ca);
      uint32_t v = orig_tree.leaf_of_poi(cb);
      while (u != kInvalidId && v != kInvalidId) {
        double d;
        if (enhanced.Lookup(u, v, &d) && orig_tree.node(u).center == ca &&
            orig_tree.node(v).center == cb) {
          return d;
        }
        u = orig_tree.node(u).parent;
        v = orig_tree.node(v).parent;
      }
      distance_fallbacks.fetch_add(1, std::memory_order_relaxed);
      return naive_dist(ca, cb);
    };
  };

  NodePairSetStats pair_stats;
  StatusOr<NodePairSet> pairs = NodePairSet::Generate(
      compressed, options.epsilon, make_center_dist, num_threads, &pair_stats);
  st.ssad_runs += naive_ssad_runs.load();
  st.distance_fallbacks += distance_fallbacks.load();
  if (!pairs.ok()) return pairs.status();
  st.pair_gen_seconds = phase_timer.ElapsedSeconds();
  st.node_pairs = pair_stats.pairs_final;
  st.pairs_considered = pair_stats.pairs_considered;

  SeOracle oracle = SeOracle::FromParts(epsilon, std::move(pois),
                                        std::move(compressed),
                                        std::move(*pairs));
  st.total_seconds = total_timer.ElapsedSeconds();
  return oracle;
}

}  // namespace tso
