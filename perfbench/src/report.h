#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Raw samples of one timing. Percentiles are exact (nearest rank over the
/// sorted samples), not histogram-bucketed, so a reported value carries all
/// of its measured digits. A failed operation is recorded as +inf: it misses
/// every latency limit.
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void AddFailure() { Add(std::numeric_limits<double>::infinity()); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  size_t count() const { return values_.size(); }

  /// Value of nearest rank ceil(p/100 * n); 0 for no samples.
  double Percentile(double p) const {
    if (values_.empty()) return 0.0;
    Sort();
    const double want = p / 100.0 * static_cast<double>(values_.size());
    size_t rank = static_cast<size_t>(std::ceil(want));
    rank = std::clamp<size_t>(rank, 1, values_.size());
    return values_[rank - 1];
  }
  double Median() const { return Percentile(50.0); }
  double Max() const { return Percentile(100.0); }

  /// The highest of p90, p99, p99.9, ... that still has at least ten
  /// samples beyond it; 0 when even p90 has fewer.
  double TailPercentile() const {
    double best = 0.0;
    for (double p = 90.0; p < 100.0; p = 100.0 - (100.0 - p) / 10.0) {
      if (static_cast<double>(values_.size()) * (100.0 - p) / 100.0 < 10.0) {
        break;
      }
      best = p;
    }
    return best;
  }

 private:
  void Sort() const {
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
  }
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// Prints one timing the way every timing is reported: sample count,
/// median, and the highest percentile with at least ten samples beyond it.
inline void PrintTiming(const char* name, const Samples& s, const char* unit) {
  const double tail = s.TailPercentile();
  if (tail > 0.0) {
    std::printf("  %-28s n=%-9zu p50=%.4g %s  p%g=%.4g %s  max=%.4g %s\n", name,
                s.count(), s.Median(), unit, tail, s.Percentile(tail), unit,
                s.Max(), unit);
  } else {
    std::printf("  %-28s n=%-9zu p50=%.4g %s  max=%.4g %s\n", name,
                s.count(), s.Median(), unit, s.Max(), unit);
  }
}

/// Operations attempted and failed. A failed operation is one that returned
/// an error it should not have, or an answer a check found wrong.
class Tally {
 public:
  void Attempt(uint64_t n = 1) {
    attempted_.fetch_add(n, std::memory_order_relaxed);
  }
  void Fail(const std::string& what) {
    const uint64_t prior = failed_.fetch_add(1, std::memory_order_relaxed);
    if (prior < 20) {
      std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
    }
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
};

/// Named metrics in insertion order, each with its unit.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    for (Entry& e : entries_) {
      if (e.name == name) {
        e.value = value;
        e.unit = unit;
        return;
      }
    }
    entries_.push_back({name, value, unit});
  }
  double Get(const std::string& name) const {
    for (const Entry& e : entries_) {
      if (e.name == name) return e.value;
    }
    return 0.0;
  }
  bool Has(const std::string& name) const {
    for (const Entry& e : entries_) {
      if (e.name == name) return true;
    }
    return false;
  }
  std::string Unit(const std::string& name) const {
    for (const Entry& e : entries_) {
      if (e.name == name) return e.unit;
    }
    return "";
  }

  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
