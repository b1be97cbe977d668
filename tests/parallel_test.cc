#include "base/parallel.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace tso {
namespace {

TEST(HardwareThreads, AtLeastOne) { EXPECT_GE(HardwareThreads(), 1u); }

// Every index in [0, count) is handed to exactly one body call, inside a
// chunk of at most `chunk` indices, by a worker in [0, workers).
TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  for (uint32_t workers : {1u, 2u, 8u}) {
    for (size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
      for (size_t chunk : {size_t{1}, size_t{3}, size_t{256}, count + 5}) {
        SCOPED_TRACE("workers=" + std::to_string(workers) +
                     " count=" + std::to_string(count) +
                     " chunk=" + std::to_string(chunk));
        std::unique_ptr<std::atomic<int>[]> hits(
            new std::atomic<int>[count + 1]);
        for (size_t i = 0; i <= count; ++i) hits[i] = 0;
        std::atomic<bool> bad_range{false};
        std::atomic<bool> bad_worker{false};
        auto body = [&](uint32_t w, size_t begin, size_t end) -> Status {
          if (w >= workers) bad_worker = true;
          if (begin >= end || end > count || end - begin > chunk) {
            bad_range = true;
          }
          for (size_t i = begin; i < end && i < count; ++i) ++hits[i];
          return Status::Ok();
        };
        ASSERT_TRUE(ParallelFor(workers, count, chunk, body).ok());
        EXPECT_FALSE(bad_range);
        EXPECT_FALSE(bad_worker);
        for (size_t i = 0; i < count; ++i) {
          ASSERT_EQ(hits[i].load(), 1) << "index " << i;
        }
      }
    }
  }
}

TEST(ParallelFor, OneWorkerRunsOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  size_t calls = 0;
  bool elsewhere = false;
  auto body = [&](uint32_t w, size_t, size_t) -> Status {
    ++calls;
    if (w != 0 || std::this_thread::get_id() != caller) elsewhere = true;
    return Status::Ok();
  };
  ASSERT_TRUE(ParallelFor(1, 100, 7, body).ok());
  EXPECT_EQ(calls, 15u);  // ceil(100 / 7)
  EXPECT_FALSE(elsewhere);
}

TEST(ParallelFor, WorkerZeroIsTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> zero_elsewhere{false};
  std::atomic<bool> other_on_caller{false};
  auto body = [&](uint32_t w, size_t, size_t) -> Status {
    const bool on_caller = std::this_thread::get_id() == caller;
    if (w == 0 && !on_caller) zero_elsewhere = true;
    if (w != 0 && on_caller) other_on_caller = true;
    return Status::Ok();
  };
  ASSERT_TRUE(ParallelFor(4, 64, 1, body).ok());
  EXPECT_FALSE(zero_elsewhere);
  EXPECT_FALSE(other_on_caller);
}

// A failing chunk stops its worker at once, and every other worker after
// at most the chunk it already holds. Chunks past the failing one sleep, so
// a worker that kept taking chunks would run for seconds, not milliseconds.
TEST(ParallelFor, FailureStopsFurtherChunks) {
  for (uint32_t workers : {1u, 2u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::atomic<size_t> calls{0};
    auto body = [&](uint32_t, size_t begin, size_t) -> Status {
      calls.fetch_add(1);
      if (begin == 10) return Status::Internal("boom");
      if (begin > 10) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return Status::Ok();
    };
    const Status st = ParallelFor(workers, 5000, 1, body);
    EXPECT_EQ(st.code(), StatusCode::kInternal);
    EXPECT_EQ(st.message(), "boom");
    if (workers == 1) {
      EXPECT_EQ(calls.load(), 11u);  // inline: chunks 0..10 in order
    } else {
      EXPECT_LE(calls.load(), 11u + 20u * workers);
    }
  }
}

// When several workers fail, the status of the lowest-numbered one wins,
// whichever failed first in time.
TEST(ParallelFor, LowestNumberedFailingWorkerWins) {
  const uint32_t workers = 4;
  std::atomic<uint32_t> arrived{0};
  auto body = [&](uint32_t w, size_t, size_t) -> Status {
    // Hold every worker until all four have taken their chunk, so each one
    // fails; worker 0 (the calling thread) fails last.
    arrived.fetch_add(1);
    while (arrived.load() < workers) std::this_thread::yield();
    if (w == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return Status::Internal("worker " + std::to_string(w));
  };
  const Status st = ParallelFor(workers, workers, 1, body);
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(st.message(), "worker 0");
}

// Per-worker state indexed by the worker id is never shared: each worker's
// slot is touched by one thread only.
TEST(ParallelFor, PerWorkerSlotsAreThreadPrivate) {
  const uint32_t workers = 8;
  std::vector<std::thread::id> owner(workers);
  std::vector<size_t> sum(workers, 0);
  std::atomic<bool> shared_slot{false};
  auto body = [&](uint32_t w, size_t begin, size_t end) -> Status {
    if (owner[w] == std::thread::id()) {
      owner[w] = std::this_thread::get_id();
    } else if (owner[w] != std::this_thread::get_id()) {
      shared_slot = true;
    }
    for (size_t i = begin; i < end; ++i) sum[w] += i;
    return Status::Ok();
  };
  ASSERT_TRUE(ParallelFor(workers, 5000, 3, body).ok());
  EXPECT_FALSE(shared_slot);
  size_t total = 0;
  for (size_t s : sum) total += s;
  EXPECT_EQ(total, size_t{5000} * 4999 / 2);
}

}  // namespace
}  // namespace tso
