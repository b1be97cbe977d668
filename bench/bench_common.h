#ifndef TSO_BENCH_BENCH_COMMON_H_
#define TSO_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "base/timer.h"
#include "geodesic/mmp_solver.h"
#include "oracle/se_oracle.h"
#include "terrain/dataset.h"

namespace tso::bench {

/// Scale knob for the whole harness: TSO_BENCH_SCALE = tiny | small | full.
/// "small" (default) keeps every binary under ~2 minutes on a laptop;
/// "full" runs the larger stand-ins (closer to the paper's regime, slower).
inline double ScaleFactor() {
  const char* env = std::getenv("TSO_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const std::string s = env;
  if (s == "tiny") return 0.25;
  if (s == "small") return 1.0;
  if (s == "full") return 4.0;
  return 1.0;
}

inline uint32_t Scaled(uint32_t base) {
  return static_cast<uint32_t>(base * ScaleFactor());
}

/// Markdown + CSV table printer used by every figure/table binary.
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns)
      : title_(std::move(title)), columns_(std::move(columns)) {}

  template <typename... Args>
  void AddRow(Args&&... args) {
    std::vector<std::string> row;
    (row.push_back(Str(std::forward<Args>(args))), ...);
    TSO_CHECK_EQ(row.size(), columns_.size());
    rows_.push_back(std::move(row));
  }

  void Print() const {
    std::cout << "\n## " << title_ << "\n\n";
    PrintRow(columns_);
    std::vector<std::string> sep;
    for (const auto& c : columns_) sep.push_back(std::string(c.size(), '-'));
    PrintRow(sep);
    for (const auto& row : rows_) PrintRow(row);
    std::cout << "\ncsv," << Join(columns_) << "\n";
    for (const auto& row : rows_) std::cout << "csv," << Join(row) << "\n";
    std::cout.flush();
  }

 private:
  template <typename T>
  static std::string Str(const T& v) {
    if constexpr (std::is_convertible_v<T, std::string>) {
      return std::string(v);
    } else if constexpr (std::is_floating_point_v<T>) {
      std::ostringstream os;
      os << std::setprecision(4) << v;
      return os.str();
    } else {
      std::ostringstream os;
      os << v;
      return os.str();
    }
  }

  static std::string Join(const std::vector<std::string>& cells) {
    std::string out;
    for (size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) out += ",";
      out += cells[i];
    }
    return out;
  }

  void PrintRow(const std::vector<std::string>& cells) const {
    std::cout << "|";
    for (const auto& c : cells) std::cout << " " << c << " |";
    std::cout << "\n";
  }

  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// The single producer of machine-readable benchmark output: one
/// `BENCH {...}` line per measurement, built key by key. The CI perf gate
/// (tools/bench_compare.py against bench/baselines/ci-tiny.json) consumes
/// these lines and docs/bench-json.md documents the schema — key names are
/// part of the gated contract, so add keys freely but do not rename them.
///
///   BenchJson("build").Str("solver", name).Int("threads", t)
///       .Num("seconds", secs, 6).Emit();
class BenchJson {
 public:
  explicit BenchJson(const char* bench) {
    os_ << "BENCH {\"bench\":\"" << bench << '"';
  }

  BenchJson& Str(const char* key, const char* value) {
    os_ << ",\"" << key << "\":\"" << value << '"';
    return *this;
  }

  BenchJson& Int(const char* key, uint64_t value) {
    os_ << ",\"" << key << "\":" << value;
    return *this;
  }

  /// Fixed-point double with `digits` fractional digits (seconds want 6,
  /// QPS 1, ratios 3).
  BenchJson& Num(const char* key, double value, int digits) {
    os_ << ",\"" << key << "\":" << std::fixed << std::setprecision(digits)
        << value;
    return *this;
  }

  void Emit() {
    os_ << "}";
    std::cout << os_.str() << "\n";
    std::cout.flush();
  }

 private:
  std::ostringstream os_;
};

/// Random P2P query pairs (the paper's query generation, §5.1).
inline std::vector<std::pair<uint32_t, uint32_t>> MakeQueryPairs(
    size_t n, size_t count, Rng& rng) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  pairs.reserve(count);
  while (pairs.size() < count) {
    const uint32_t s = static_cast<uint32_t>(rng.Uniform(n));
    const uint32_t t = static_cast<uint32_t>(rng.Uniform(n));
    if (s != t) pairs.emplace_back(s, t);
  }
  return pairs;
}

/// Exact geodesic distances for a set of query pairs (ground truth for the
/// error panels). Parallel across pairs, one MmpSolver per worker.
inline std::vector<double> ExactDistances(
    const TerrainMesh& mesh, const std::vector<SurfacePoint>& pois,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs) {
  std::vector<double> out(pairs.size(), 0.0);
  const uint32_t workers = HardwareThreads();
  std::vector<std::unique_ptr<MmpSolver>> solvers(workers);
  auto solve = [&](uint32_t w, size_t begin, size_t end) -> Status {
    if (solvers[w] == nullptr) solvers[w] = std::make_unique<MmpSolver>(mesh);
    for (size_t i = begin; i < end; ++i) {
      StatusOr<double> d = solvers[w]->PointToPoint(pois[pairs[i].first],
                                                    pois[pairs[i].second]);
      if (!d.ok()) return d.status();
      out[i] = *d;
    }
    return Status::Ok();
  };
  TSO_CHECK(ParallelFor(workers, pairs.size(), 1, solve).ok());
  return out;
}

/// The thread counts of every scaling sweep: always 1, 2, 4 and 8 (8 is
/// the acceptance gate's comparison point, swept even when oversubscribed),
/// plus HardwareThreads() when it is larger.
inline std::vector<uint32_t> ThreadSweep() {
  std::vector<uint32_t> counts = {1, 2, 4, 8};
  if (HardwareThreads() > counts.back()) counts.push_back(HardwareThreads());
  return counts;
}

/// Standard options for a parallel SE build over `mesh` with the exact
/// solver (what the figure benches use).
inline SeOracleOptions ParallelSeOptions(const TerrainMesh& mesh, double eps,
                                         uint64_t seed) {
  SeOracleOptions options;
  options.epsilon = eps;
  options.seed = seed;
  options.parallel_solver_factory = [&mesh]() {
    return std::unique_ptr<GeodesicSolver>(new MmpSolver(mesh));
  };
  return options;
}

struct QueryMeasurement {
  double avg_query_ms = 0.0;
  double mean_rel_error = 0.0;
  double max_rel_error = 0.0;
};

/// Times `query(s, t) -> double` over the pairs and reports error vs truth.
template <typename QueryFn>
QueryMeasurement MeasureQueries(
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    const std::vector<double>& truth, QueryFn&& query) {
  QueryMeasurement m;
  WallTimer timer;
  std::vector<double> answers;
  answers.reserve(pairs.size());
  for (const auto& [s, t] : pairs) {
    answers.push_back(query(s, t));
  }
  m.avg_query_ms = timer.ElapsedMillis() / pairs.size();
  double sum_err = 0.0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const double err =
        truth[i] > 0 ? std::abs(answers[i] - truth[i]) / truth[i] : 0.0;
    sum_err += err;
    m.max_rel_error = std::max(m.max_rel_error, err);
  }
  m.mean_rel_error = sum_err / pairs.size();
  return m;
}

inline double MegaBytes(size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

inline void PrintHeader(const std::string& what, const std::string& paper_ref,
                        uint64_t seed) {
  std::cout << "=== " << what << " ===\n"
            << "reproduces: " << paper_ref << "\n"
            << "seed: " << seed << "  scale: " << ScaleFactor()
            << " (TSO_BENCH_SCALE=tiny|small|full)\n";
}

}  // namespace tso::bench

#endif  // TSO_BENCH_BENCH_COMMON_H_
