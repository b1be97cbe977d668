#include "trace.h"

#include <atomic>
#include <cstdio>
#include <mutex>

#include "report.h"

namespace perfbench {
namespace {

struct KeptSpan {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t id;      // (thread << 32) | (index + 1)
  uint64_t parent;  // 0 = root
  uint64_t request;
};

struct Aggregate {
  const char* name;
  uint64_t opened = 0;
  uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
  tso::LatencyHistogram durations_ns;
};

struct OpenSpan {
  Aggregate* agg;
  int64_t start_ns;
  int64_t child_ns;
  uint64_t id;  // 0 when the span was not kept
};

struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<KeptSpan> kept;
  std::vector<OpenSpan> stack;
  std::vector<std::unique_ptr<Aggregate>> aggregates;  // few distinct names

  Aggregate& Find(const char* name) {
    for (auto& a : aggregates) {
      if (a->name == name) return *a;
    }
    aggregates.push_back(std::make_unique<Aggregate>());
    aggregates.back()->name = name;
    return *aggregates.back();
  }
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>>& Buffers() {
  static std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  return buffers;
}

// Buffers are owned by the registry, not the thread, so spans of threads
// that have exited are still there when the run ends.
ThreadBuffer& Local() {
  static thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    auto& buffers = Buffers();
    buffers.push_back(std::make_unique<ThreadBuffer>());
    local = buffers.back().get();
    local->thread = static_cast<uint32_t>(buffers.size());
  }
  return *local;
}

}  // namespace

void Trace::Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool Trace::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Trace::Open(const char* name, uint64_t request) {
  ThreadBuffer& buf = Local();
  Aggregate& agg = buf.Find(name);
  uint64_t id = 0;
  if (agg.opened++ < kMaxKeptSpans) {
    id = (static_cast<uint64_t>(buf.thread) << 32) | (buf.kept.size() + 1);
    buf.kept.push_back({name, 0, 0, id, 0, request});
  }
  buf.stack.push_back({&agg, NowNs(), 0, id});
}

void Trace::Close() {
  const int64_t end = NowNs();
  ThreadBuffer& buf = Local();
  const OpenSpan open = buf.stack.back();
  buf.stack.pop_back();
  const int64_t duration = end - open.start_ns;
  uint64_t parent = 0;
  if (!buf.stack.empty()) {
    buf.stack.back().child_ns += duration;
    parent = buf.stack.back().id;
  }
  if (open.id != 0) {
    KeptSpan& kept = buf.kept[(open.id & 0xffffffffu) - 1];
    kept.start_ns = open.start_ns;
    kept.end_ns = end;
    kept.parent = parent;
  }
  Aggregate& agg = *open.agg;
  agg.count++;
  agg.total_ns += static_cast<double>(duration);
  agg.self_ns += static_cast<double>(duration - open.child_ns);
  agg.durations_ns.Record(static_cast<uint64_t>(duration));
}

std::vector<Trace::NameStats> Trace::Summarize() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<NameStats> out;
  for (const auto& buf : Buffers()) {
    for (const auto& agg : buf->aggregates) {
      NameStats* stats = nullptr;
      for (NameStats& s : out) {
        if (s.name == agg->name) stats = &s;
      }
      if (stats == nullptr) {
        out.emplace_back();
        stats = &out.back();
        stats->name = agg->name;
      }
      stats->count += agg->count;
      stats->total_ns += agg->total_ns;
      stats->self_ns += agg->self_ns;
      stats->durations_ns.Merge(agg->durations_ns);
    }
  }
  return out;
}

size_t Trace::WriteJsonLines(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  size_t written = 0;
  for (const auto& buf : Buffers()) {
    for (const KeptSpan& s : buf->kept) {
      if (s.end_ns == 0) continue;  // still open
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      ++written;
    }
  }
  std::fclose(f);
  return written;
}

}  // namespace perfbench
