#include "oracle/node_pair_set.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "base/logging.h"
#include "base/parallel.h"

namespace tso {
namespace {

/// One worker's share of the §3.3 splitting recursion: emits well-separated
/// pairs into `pairs` and counts its work. The seed expansion and every
/// worker walk the same recursion tree through Step.
struct SplitWalk {
  SplitWalk(const CompressedTree& tree, double separation,
            CenterDistFn center_dist)
      : tree(tree),
        separation(separation),
        center_dist(std::move(center_dist)) {}

  const CompressedTree& tree;
  double separation;
  CenterDistFn center_dist;
  std::vector<NodePair> pairs;
  std::vector<std::pair<uint32_t, uint32_t>> stack;
  size_t considered = 0;
  size_t dist_evals = 0;

  /// Processes one pair: emits it if well-separated, otherwise feeds the
  /// split children to `push(a, b)`.
  template <typename PushFn>
  void Step(uint32_t a, uint32_t b, PushFn&& push) {
    ++considered;
    const CompressedTree::Node& na = tree.node(a);
    const CompressedTree::Node& nb = tree.node(b);
    const double dist = center_dist(na.center, nb.center);
    ++dist_evals;
    // Radii of the *enlarged* disks (2x node radius; Distance property).
    const double enlarged = 2.0 * std::max(na.radius, nb.radius);
    if (dist >= separation * enlarged) {
      pairs.push_back({a, b, dist});
      return;
    }
    // Split the larger-radius node (ties: smaller node id, §3.3).
    bool split_a;
    if (na.radius != nb.radius) {
      split_a = na.radius > nb.radius;
    } else {
      split_a = a <= b;
    }
    // A leaf (radius 0) can never be the split side of a non-separated pair
    // unless both are leaves with distance < separation*0 = 0, i.e. a == b
    // co-located; radius ties at 0 mean dist == 0 which is well-separated.
    const uint32_t to_split = split_a ? a : b;
    TSO_CHECK_GT(tree.node(to_split).num_children, 0u);
    for (uint32_t c = tree.node(to_split).first_child; c != kInvalidId;
         c = tree.node(c).next_sibling) {
      push(split_a ? c : a, split_a ? b : c);
    }
  }

  /// Walks the whole recursion subtree under `seed` depth-first.
  void Run(std::pair<uint32_t, uint32_t> seed) {
    stack.assign(1, seed);
    while (!stack.empty()) {
      const auto [a, b] = stack.back();
      stack.pop_back();
      Step(a, b, [this](uint32_t x, uint32_t y) { stack.emplace_back(x, y); });
    }
  }
};

/// Indexes the finished pairs with the FKS perfect hash. Pairs are first
/// sorted by (a, b) — the recursion emits each ordered pair at most once, so
/// the sort gives one canonical layout regardless of traversal order or
/// worker interleaving.
StatusOr<NodePairSet> FinishSet(std::vector<NodePair> pairs) {
  std::sort(pairs.begin(), pairs.end(),
            [](const NodePair& x, const NodePair& y) {
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  entries.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    entries.emplace_back(PairKey(pairs[i].a, pairs[i].b), i);
  }
  StatusOr<PerfectHash> hash = PerfectHash::Build(entries);
  if (!hash.ok()) return hash.status();
  return NodePairSet::FromParts(std::move(pairs), std::move(*hash));
}

}  // namespace

StatusOr<NodePairSet> NodePairSet::Generate(
    const CompressedTree& tree, double epsilon,
    const std::function<CenterDistFn(uint32_t)>& make_center_dist,
    uint32_t num_threads, NodePairSetStats* stats) {
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (make_center_dist == nullptr) {
    return Status::InvalidArgument("make_center_dist is required");
  }
  const double separation = 2.0 / epsilon + 2.0;
  const uint32_t workers = std::max(num_threads, 1u);
  std::vector<SplitWalk> walks;
  walks.reserve(workers);
  for (uint32_t t = 0; t < workers; ++t) {
    walks.emplace_back(tree, separation, make_center_dist(t));
  }

  // Breadth-first seed expansion on the calling thread (as worker 0, before
  // any other worker runs) until the frontier is wide enough to shard; each
  // seed is an independent subtree of the recursion.
  std::deque<std::pair<uint32_t, uint32_t>> frontier;
  frontier.emplace_back(tree.root(), tree.root());
  while (!frontier.empty() && frontier.size() < 8 * size_t{workers}) {
    const auto [a, b] = frontier.front();
    frontier.pop_front();
    walks[0].Step(a, b, [&frontier](uint32_t x, uint32_t y) {
      frontier.emplace_back(x, y);
    });
  }
  const std::vector<std::pair<uint32_t, uint32_t>> seeds(frontier.begin(),
                                                         frontier.end());
  auto walk_seeds = [&](uint32_t w, size_t begin, size_t end) -> Status {
    for (size_t k = begin; k < end; ++k) walks[w].Run(seeds[k]);
    return Status::Ok();
  };
  TSO_RETURN_IF_ERROR(ParallelFor(workers, seeds.size(), 1, walk_seeds));

  std::vector<NodePair> pairs = std::move(walks[0].pairs);
  size_t considered = 0;
  size_t dist_evals = 0;
  for (uint32_t t = 0; t < workers; ++t) {
    considered += walks[t].considered;
    dist_evals += walks[t].dist_evals;
    if (t > 0) {
      pairs.insert(pairs.end(), walks[t].pairs.begin(), walks[t].pairs.end());
    }
  }
  if (stats != nullptr) {
    stats->pairs_considered = considered;
    stats->pairs_final = pairs.size();
    stats->distance_evals = dist_evals;
  }
  return FinishSet(std::move(pairs));
}

}  // namespace tso
