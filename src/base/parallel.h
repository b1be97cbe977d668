#ifndef TSO_BASE_PARALLEL_H_
#define TSO_BASE_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "base/status.h"

namespace tso {

/// The machine's hardware thread count, at least 1. What every
/// `num_threads == 0` ("auto") knob resolves to.
inline uint32_t HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// The one worker loop of the build and query engines: runs
/// `body(worker, begin, end) -> Status` over the indices [0, count), handed
/// out `chunk` at a time from one shared counter so skewed per-index costs
/// still balance. `worker` is in [0, workers) and names the calling worker,
/// so a body can keep per-worker state (a solver, a scratch buffer, an
/// output shard) in a vector indexed by it.
///
/// The calling thread is worker 0; at most `workers - 1` threads are
/// spawned (never more than there are chunks) and joined before return.
/// With one worker the body runs inline, with no thread and no heap
/// allocation. A worker stops at its first non-ok status and the others
/// take no further chunk; the result is the failing status of the
/// lowest-numbered failing worker, or Ok.
template <typename Body>
Status ParallelFor(uint32_t workers, size_t count, size_t chunk, Body&& body) {
  chunk = std::clamp<size_t>(chunk, 1, std::max<size_t>(count, 1));
  const size_t chunks = (count + chunk - 1) / chunk;
  workers = static_cast<uint32_t>(
      std::clamp<size_t>(chunks, 1, std::max(workers, 1u)));
  if (workers == 1) {
    for (size_t begin = 0; begin < count; begin += chunk) {
      TSO_RETURN_IF_ERROR(body(0u, begin, std::min(count, begin + chunk)));
    }
    return Status::Ok();
  }

  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<Status> status(workers);
  auto run = [&](uint32_t w) {
    while (!failed.load(std::memory_order_relaxed)) {
      const size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= count) return;
      Status st = body(w, begin, std::min(count, begin + chunk));
      if (!st.ok()) {
        status[w] = std::move(st);
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  {
    // std::jthread joins on destruction, also when a spawn or run(0) throws.
    std::vector<std::jthread> threads;
    threads.reserve(workers - 1);
    for (uint32_t w = 1; w < workers; ++w) threads.emplace_back(run, w);
    run(0);
  }
  for (const Status& st : status) TSO_RETURN_IF_ERROR(st);
  return Status::Ok();
}

}  // namespace tso

#endif  // TSO_BASE_PARALLEL_H_
