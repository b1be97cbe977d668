#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "geodesic/solver_factory.h"
#include "oracle/se_oracle.h"
#include "report.h"
#include "terrain/dataset.h"

namespace perfbench {

// Fixed settings shared by every workload.
inline constexpr double kEpsilon = 0.25;
inline constexpr uint32_t kPackShards = 4;
inline constexpr int kMinBuilds = 3;
inline constexpr int kSetupReps = 15;
inline constexpr uint32_t kConnections = 2;  // one generator thread each
inline constexpr uint32_t kReaders = 2;
inline constexpr size_t kKnnK = 10;
// The datasets (terrain and POIs) are fixed, like the paper's; --seed
// draws the queries, arrivals, churn schedule, inserted points and the
// partition-tree selection.
inline constexpr uint64_t kDatasetSeed = 20170514;

/// One workload. Every workload runs the same four stages — set-up, build
/// and publish, open-loop `tsod` traffic, live churn — so that every
/// end-to-end metric is measured on every workload; the workload decides
/// the input and how the --seconds budget is split between the stages.
struct WorkloadConfig {
  const char* name;
  const char* why;
  tso::PaperDataset dataset;
  uint32_t vertices;  // target mesh size N
  uint32_t pois;      // n
  tso::SolverKind solver;
  uint32_t build_workers;  // SeOracle::Build threads
  double build_share;  // builds repeat until this share is spent
  double wire_share;
  double churn_share;
  double writer_rate;  // churn writer ops/s (3 inserts : 1 remove)
  bool ladder;         // climb the rate ladder for max_rps
};

const std::vector<WorkloadConfig>& Workloads();
const WorkloadConfig* FindWorkload(const std::string& name);

/// Everything one pass of a workload reads and produces.
struct Context {
  const WorkloadConfig* cfg = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool inject_fault = false;  // self-test: corrupt one expected answer

  Tally tally;
  MetricSet e2e;     // end-to-end metrics
  MetricSet layers;  // per-layer metrics

  // Inputs, made from the seed.
  std::optional<tso::Dataset> ds;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  std::vector<tso::SurfacePoint> insert_pool;

  // Where the build stage publishes the oracle the other stages serve.
  std::string flat_path;
  std::string pack_path;

  std::unique_ptr<tso::GeodesicSolver> NewSolver() const;
  tso::SeOracleOptions BuildOptions() const;
};

void RunSetup(Context& ctx);

// The measured stages. Each runs for about `seconds`, then checks its
// answers and records its metrics in `ctx`.

/// Builds and publishes the oracle files the other stages serve.
void RunBuild(Context& ctx, double seconds);
void RunWire(Context& ctx, double seconds);
void RunChurn(Context& ctx, double seconds);
/// Traced pass only: per-layer micro-measurements on the published oracle
/// (probe path, engine, wire codec replay, socket echo, blocking RTT).
void RunLayerProbes(Context& ctx);

inline bool BitsEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
