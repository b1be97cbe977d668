#ifndef TSO_QUERY_BATCH_H_
#define TSO_QUERY_BATCH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "query/knn.h"
#include "query/range_query.h"

namespace tso {

/// The concurrent batch query engine: bulk workloads over a shared,
/// immutable oracle, fanned out across worker threads. Each worker owns a
/// QueryScratch, so no query touches shared mutable state; answers are
/// bitwise identical to the serial paths regardless of thread count.
///
/// Written once against DistanceSource (query/engine.h) — for a mapped
/// oracle or pack the workers read shared read-only pages.
///
/// Each engine below is one ParallelFor call (base/parallel.h). Everywhere
/// below, `num_threads == 0` means HardwareThreads(), capped at one worker
/// per 64 items, and `num_threads == 1` (or a workload too small to shard)
/// runs inline on the calling thread without spawning workers. These are
/// the query-side worker counts — the CLI exposes them as --query-threads
/// (build-side parallelism is a separate knob, --build-threads; see
/// tools/tso_main.cc).

/// Answers every (s, t) pair in `queries`; out[i] is the ε-approximate
/// distance for queries[i]. Work is handed to workers in chunks off a
/// shared counter, so skewed per-query costs still balance.
StatusOr<std::vector<double>> DistanceBatch(
    const DistanceSource& source,
    std::span<const std::pair<uint32_t, uint32_t>> queries,
    uint32_t num_threads = 0);

/// KnnQuery with the candidate scan sharded over POI ranges: each worker
/// computes a local top-k over its shard, then the shard winners are merged.
/// Same results (including tie-breaks) as KnnQuery.
StatusOr<std::vector<KnnResult>> KnnQueryParallel(const DistanceSource& source,
                                                  uint32_t query, size_t k,
                                                  uint32_t num_threads = 0);

/// RangeQuery with the candidate scan sharded over POI ranges. Same results
/// as RangeQuery (sorted by distance, ties by id).
StatusOr<std::vector<uint32_t>> RangeQueryParallel(
    const DistanceSource& source, uint32_t query, double radius,
    uint32_t num_threads = 0);

}  // namespace tso

#endif  // TSO_QUERY_BATCH_H_
