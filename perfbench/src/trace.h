#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/histogram.h"

namespace perfbench {

/// In-memory spans recorded by the benchmark around its calls into the
/// program's public functions (nothing inside src/ is instrumented). Each
/// span has a name, start, end, parent span and request id; a span's self
/// time is its duration minus its children's. Spans are kept in per-thread
/// buffers and written out when the run ends. Every span feeds its name's
/// aggregate; the first kMaxKeptSpans of each name on each thread are also
/// kept individually, so a hot loop cannot exhaust memory.
///
/// Tracing is off unless Enable(true) was called; a ScopedSpan then costs
/// one relaxed load.
class Trace {
 public:
  static constexpr size_t kMaxKeptSpans = 20000;

  static void Enable(bool on);
  static bool enabled();

  struct NameStats {
    std::string name;
    uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
    tso::LatencyHistogram durations_ns;
  };
  /// Aggregates of every span closed so far, merged across threads, in
  /// first-seen order.
  static std::vector<NameStats> Summarize();

  /// Writes the kept spans as JSON lines; returns the number written.
  static size_t WriteJsonLines(const std::string& path);

  // Used by ScopedSpan.
  static void Open(const char* name, uint64_t request);
  static void Close();
};

/// Records one span for the lifetime of the object when tracing is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0)
      : active_(Trace::enabled()) {
    if (active_) Trace::Open(name, request);
  }
  ~ScopedSpan() {
    if (active_) Trace::Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
