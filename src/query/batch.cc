#include "query/batch.h"

#include <algorithm>

#include "base/parallel.h"

namespace tso {
namespace {

/// In auto mode (num_threads == 0), never spawn more than one worker per
/// this many items of O(h) work — thread spawn would dominate.
constexpr size_t kMinItemsPerThread = 64;

/// An explicit request is honored (capped by the item count, since extra
/// workers would sit idle); auto mode additionally applies the
/// items-per-thread heuristic.
uint32_t EffectiveThreads(uint32_t requested, size_t items) {
  if (items < 2) return 1;
  if (requested == 0) {
    const size_t cap = std::max<size_t>(1, items / kMinItemsPerThread);
    return static_cast<uint32_t>(std::min<size_t>(HardwareThreads(), cap));
  }
  return static_cast<uint32_t>(std::min<size_t>(requested, items));
}

}  // namespace

StatusOr<std::vector<double>> DistanceBatch(
    const DistanceSource& source,
    std::span<const std::pair<uint32_t, uint32_t>> queries,
    uint32_t num_threads) {
  std::vector<double> out(queries.size(), 0.0);
  const uint32_t threads = EffectiveThreads(num_threads, queries.size());
  // Chunks of 256: big enough to amortize the shared counter, small enough
  // that a slow chunk cannot strand a worker.
  std::vector<QueryScratch> scratch(threads);
  auto answer = [&](uint32_t w, size_t begin, size_t end) -> Status {
    QueryScratch& local = scratch[w];
    for (size_t i = begin; i < end; ++i) {
      StatusOr<double> d =
          source.Distance(queries[i].first, queries[i].second, local);
      if (!d.ok()) return d.status();
      out[i] = *d;
    }
    return Status::Ok();
  };
  TSO_RETURN_IF_ERROR(ParallelFor(threads, queries.size(), 256, answer));
  return out;
}

StatusOr<std::vector<KnnResult>> KnnQueryParallel(const DistanceSource& source,
                                                  uint32_t query, size_t k,
                                                  uint32_t num_threads) {
  if (query >= source.num_pois()) {
    return Status::InvalidArgument("query POI out of range");
  }
  if (!source.IsLive(query)) {
    return Status::NotFound("query POI id is not live");
  }
  if (k == 0) return std::vector<KnnResult>{};
  const size_t n = source.num_pois();
  const uint32_t threads = EffectiveThreads(num_threads, n);
  if (threads <= 1) return KnnQuery(source, query, k);

  // One contiguous POI shard per chunk, each with its local top-k as a
  // max-heap; the global answer is the best k of the shard winners.
  std::vector<std::vector<KnnResult>> shard_best(threads);
  auto scan_shard = [&](uint32_t, size_t t, size_t) -> Status {
    const size_t begin = n * t / threads;
    const size_t end = n * (t + 1) / threads;
    QueryScratch scratch;
    std::vector<KnnResult>& best = shard_best[t];
    for (uint32_t p = static_cast<uint32_t>(begin); p < end; ++p) {
      if (p == query || !source.IsLive(p)) continue;
      StatusOr<double> d = source.Distance(query, p, scratch);
      if (!d.ok()) return d.status();
      PushBoundedTopK(best, {p, *d}, k);
    }
    return Status::Ok();
  };
  TSO_RETURN_IF_ERROR(ParallelFor(threads, threads, 1, scan_shard));

  std::vector<KnnResult> merged;
  for (std::vector<KnnResult>& best : shard_best) {
    merged.insert(merged.end(), best.begin(), best.end());
  }
  const size_t keep = std::min(k, merged.size());
  std::partial_sort(merged.begin(), merged.begin() + keep, merged.end(),
                    KnnBefore);
  merged.resize(keep);
  return merged;
}

StatusOr<std::vector<uint32_t>> RangeQueryParallel(
    const DistanceSource& source, uint32_t query, double radius,
    uint32_t num_threads) {
  if (query >= source.num_pois()) {
    return Status::InvalidArgument("query POI out of range");
  }
  if (radius < 0.0) return Status::InvalidArgument("radius must be >= 0");
  if (!source.IsLive(query)) {
    return Status::NotFound("query POI id is not live");
  }
  const size_t n = source.num_pois();
  const uint32_t threads = EffectiveThreads(num_threads, n);
  if (threads <= 1) return RangeQuery(source, query, radius);

  std::vector<std::vector<std::pair<double, uint32_t>>> shard_hits(threads);
  auto scan_shard = [&](uint32_t, size_t t, size_t) -> Status {
    const size_t begin = n * t / threads;
    const size_t end = n * (t + 1) / threads;
    QueryScratch scratch;
    for (uint32_t p = static_cast<uint32_t>(begin); p < end; ++p) {
      if (p == query || !source.IsLive(p)) continue;
      StatusOr<double> d = source.Distance(query, p, scratch);
      if (!d.ok()) return d.status();
      if (*d <= radius) shard_hits[t].emplace_back(*d, p);
    }
    return Status::Ok();
  };
  TSO_RETURN_IF_ERROR(ParallelFor(threads, threads, 1, scan_shard));

  std::vector<std::pair<double, uint32_t>> hits;
  for (auto& shard : shard_hits) {
    hits.insert(hits.end(), shard.begin(), shard.end());
  }
  std::sort(hits.begin(), hits.end());
  std::vector<uint32_t> out;
  out.reserve(hits.size());
  for (const auto& [d, p] : hits) out.push_back(p);
  return out;
}

}  // namespace tso
