// Construction-performance baseline: per-phase wall-clock of
// SeOracle::Build, SSAD-kernel heap-op totals, 1-vs-T thread scaling, and
// the multi-source SSAD batch dimension of the enhanced-edge phase. Not a
// paper figure — this bench backs the build pipeline (partition tree,
// enhanced edges, WSPD node pairs) the way bench_throughput backs the query
// stack, and CI gates on its output (see tools/bench_compare.py and
// bench/baselines/ci-tiny.json).
//
// Every measurement is emitted as one machine-readable line:
//   BENCH {"bench":"build","solver":...,"threads":...,"batch":...,
//          "phase":...,"seconds":...}
// (plus "kernel", "scaling", and "batch_scaling" summary lines; the schema
// is documented in docs/bench-json.md). The kernel line of an exact (MMP)
// build adds the MMP window counters to the (zero) SSAD heap-op totals.

#include <filesystem>

#include "bench/bench_common.h"
#include "geodesic/mmp_solver.h"
#include "geodesic/solver_factory.h"
#include "geodesic/ssad_kernel.h"
#include "oracle/oracle_serde.h"
#include "oracle/oracle_view.h"

namespace tso::bench {
namespace {

struct BuildMeasurement {
  SeBuildStats stats;
  SsadCounterSnapshot kernel_ops;  // delta over the build
  MmpCounterSnapshot mmp_ops;      // delta over the build
  size_t size_bytes = 0;
};

void EmitPhase(const char* solver, uint32_t threads, uint32_t batch,
               const char* phase, double seconds, size_t ssad_runs) {
  BenchJson("build")
      .Str("solver", solver)
      .Int("threads", threads)
      .Int("batch", batch)
      .Str("phase", phase)
      .Num("seconds", seconds, 6)
      .Int("ssad_runs", ssad_runs)
      .Emit();
}

void EmitBuild(SolverKind kind, uint32_t threads, uint32_t batch,
               const BuildMeasurement& m) {
  const char* solver = SolverKindName(kind);
  const SeBuildStats& st = m.stats;
  EmitPhase(solver, threads, batch, "tree", st.tree_seconds, 0);
  EmitPhase(solver, threads, batch, "enhanced", st.enhanced_seconds, 0);
  EmitPhase(solver, threads, batch, "pairs", st.pair_gen_seconds, 0);
  EmitPhase(solver, threads, batch, "total", st.total_seconds, st.ssad_runs);
  BenchJson kernel("build");
  kernel.Str("solver", solver)
      .Int("threads", threads)
      .Int("batch", batch)
      .Str("phase", "kernel")
      .Int("settles", m.kernel_ops.settles)
      .Int("pushes", m.kernel_ops.pushes)
      .Int("decrease_keys", m.kernel_ops.decrease_keys)
      .Int("relaxations", m.kernel_ops.relaxations)
      .Int("kernel_runs", m.kernel_ops.runs);
  if (kind == SolverKind::kMmpExact) {
    kernel.Int("mmp_runs", m.mmp_ops.runs)
        .Int("windows_created", m.mmp_ops.windows_created)
        .Int("windows_propagated", m.mmp_ops.windows_propagated)
        .Int("vertices_processed", m.mmp_ops.vertices_processed);
  }
  kernel.Emit();
}

BuildMeasurement MeasureBuild(const Dataset& ds, SolverKind kind,
                              uint32_t threads, uint32_t batch,
                              uint64_t seed) {
  StatusOr<std::unique_ptr<GeodesicSolver>> solver =
      MakeSolver(kind, *ds.mesh);
  TSO_CHECK(solver.ok());
  SeOracleOptions options;
  options.epsilon = 0.25;
  options.seed = seed;
  options.ssad_batch = batch;
  if (threads > 1) {
    const TerrainMesh* mesh = ds.mesh.get();
    options.parallel_solver_factory = [mesh, kind]() {
      StatusOr<std::unique_ptr<GeodesicSolver>> s = MakeSolver(kind, *mesh);
      return s.ok() ? std::move(*s) : nullptr;
    };
    options.num_threads = threads;
  }
  BuildMeasurement m;
  const SsadCounterSnapshot before = SsadCounterSnapshot::Take();
  const MmpCounterSnapshot mmp_before = MmpCounterSnapshot::Take();
  StatusOr<SeOracle> oracle =
      SeOracle::Build(*ds.mesh, ds.pois, **solver, options, &m.stats);
  TSO_CHECK(oracle.ok());
  m.kernel_ops = SsadCounterSnapshot::Take().Delta(before);
  m.mmp_ops = MmpCounterSnapshot::Take().Delta(mmp_before);
  m.size_bytes = oracle->SizeBytes();
  return m;
}

/// Load-path benchmark on one flat file: LoadSeOracle (read + materialize an
/// owning SeOracle) vs zero-copy mmap open (with and without the checksum
/// pass). Emits one BENCH line per variant plus the headline
/// mmap-vs-materialize speedup — the serving-startup metric the frozen
/// format exists for. Best-of-K wall clock; a Distance probe per iteration
/// keeps the loads honest.
void MeasureLoad(const Dataset& ds, uint64_t seed) {
  StatusOr<std::unique_ptr<GeodesicSolver>> solver =
      MakeSolver(SolverKind::kDijkstra, *ds.mesh);
  TSO_CHECK(solver.ok());
  SeOracleOptions options;
  options.epsilon = 0.25;
  options.seed = seed;
  StatusOr<SeOracle> oracle =
      SeOracle::Build(*ds.mesh, ds.pois, **solver, options, nullptr);
  TSO_CHECK(oracle.ok());

  const std::string dir = std::filesystem::temp_directory_path().string();
  const std::string flat_path = dir + "/bench_load_oracle.tsoflat";
  TSO_CHECK(SaveSeOracleFlat(*oracle, flat_path).ok());

  constexpr int kIters = 25;
  double checksum = 0.0;
  auto best_of = [&](auto&& load_and_probe) {
    double best = 1e100;
    for (int i = 0; i < kIters; ++i) {
      WallTimer timer;
      checksum += load_and_probe();
      best = std::min(best, timer.ElapsedSeconds());
    }
    return best;
  };

  const double materialize_seconds = best_of([&]() {
    StatusOr<SeOracle> loaded = LoadSeOracle(flat_path);
    TSO_CHECK(loaded.ok());
    return *loaded->Distance(0, 1);
  });
  const double flat_seconds = best_of([&]() {
    StatusOr<OracleView> view = OracleView::Open(flat_path);  // default open
    TSO_CHECK(view.ok());
    return *view->Distance(0, 1);
  });
  OracleView::Options verify;
  verify.verify_checksums = true;
  const double flat_verify_seconds = best_of([&]() {
    StatusOr<OracleView> view = OracleView::Open(flat_path, verify);
    TSO_CHECK(view.ok());
    return *view->Distance(0, 1);
  });

  const uintmax_t flat_bytes = std::filesystem::file_size(flat_path);
  std::filesystem::remove(flat_path);

  BenchJson("build")
      .Str("phase", "load")
      .Str("format", "materialize")
      .Num("load_seconds", materialize_seconds, 6)
      .Int("bytes", flat_bytes)
      .Emit();
  BenchJson("build")
      .Str("phase", "load")
      .Str("format", "flat")
      .Num("load_seconds", flat_seconds, 6)
      .Num("load_seconds_verify", flat_verify_seconds, 6)
      .Int("bytes", flat_bytes)
      .Num("mmap_speedup_vs_deserialize",
           flat_seconds > 0 ? materialize_seconds / flat_seconds : 0.0, 3)
      .Emit();
  std::cout << "load: materialize " << materialize_seconds * 1e3
            << " ms | mmap open " << flat_seconds * 1e3 << " ms ("
            << flat_verify_seconds * 1e3 << " ms with checksums) | "
            << "speedup " << materialize_seconds / flat_seconds
            << "x (checksum " << checksum << ")\n";
}

void Run() {
  const uint64_t seed = 42;
  const uint32_t kDefaultBatch = 4;
  PrintHeader("Oracle construction — per-phase timing, thread scaling, and "
              "SSAD batch scaling",
              "system bench (SeOracle::Build), backs Table 1's building-time "
              "column",
              seed);

  StatusOr<Dataset> ds = MakePaperDataset(PaperDataset::kSanFranciscoSmall,
                                          Scaled(2000), Scaled(400), seed);
  TSO_CHECK(ds.ok());
  std::cout << ds->mesh->DebugString() << ", n=" << ds->n() << "\n";

  const std::vector<uint32_t> batch_sizes = {1, 2, 4, 8};

  // Two kernel-backed engines plus exact MMP. MMP has its own kernel (its
  // kernel line adds MMP window counts; its SSAD heap ops stay 0) and
  // clamps every batch to one source, so it runs only batch 1 (one sweep per
  // tree node) and the default batch (one sweep per distinct center), at one
  // thread.
  Table table("SeOracle::Build per-phase seconds",
              {"solver", "threads", "batch", "tree_s", "enhanced_s",
               "pairs_s", "total_s", "ssad_runs", "kernel_settles",
               "speedup"});
  for (SolverKind kind : {SolverKind::kDijkstra, SolverKind::kSteiner,
                          SolverKind::kMmpExact}) {
    const char* name = SolverKindName(kind);
    const bool exact = kind == SolverKind::kMmpExact;

    // --- Batch dimension: enhanced-edge phase at 1 thread ---
    double enhanced_base = 0.0;
    double serial_total = 0.0;  // threads=1 @ default batch, reused below
    for (uint32_t batch : batch_sizes) {
      if (exact && batch != 1 && batch != kDefaultBatch) continue;
      const BuildMeasurement m = MeasureBuild(*ds, kind, 1, batch, seed);
      if (batch == 1) enhanced_base = m.stats.enhanced_seconds;
      if (batch == kDefaultBatch) serial_total = m.stats.total_seconds;
      const double batch_speedup =
          m.stats.enhanced_seconds > 0
              ? enhanced_base / m.stats.enhanced_seconds
              : 0.0;
      table.AddRow(name, 1u, batch, m.stats.tree_seconds,
                   m.stats.enhanced_seconds, m.stats.pair_gen_seconds,
                   m.stats.total_seconds, m.stats.ssad_runs,
                   m.kernel_ops.settles, batch_speedup);
      EmitBuild(kind, 1, batch, m);
      BenchJson("build")
          .Str("solver", name)
          .Int("threads", 1)
          .Int("batch", batch)
          .Str("phase", "batch_scaling")
          .Num("enhanced_seconds", m.stats.enhanced_seconds, 6)
          .Num("enhanced_speedup_vs_batch1", batch_speedup, 3)
          .Int("enhanced_sweeps", m.stats.enhanced_sweeps)
          .Emit();
      if (batch == kDefaultBatch) {
        BenchJson("build")
            .Str("solver", name)
            .Int("threads", 1)
            .Int("batch", batch)
            .Str("phase", "scaling")
            .Num("total_seconds", m.stats.total_seconds, 6)
            .Num("speedup", 1.0, 3)
            .Int("size_bytes", m.size_bytes)
            .Emit();
      }
    }

    // --- Thread dimension at the default batch (threads=1 covered above) ---
    for (uint32_t threads : ThreadSweep()) {
      if (threads == 1 || exact) continue;
      const BuildMeasurement m =
          MeasureBuild(*ds, kind, threads, kDefaultBatch, seed);
      const double speedup =
          m.stats.total_seconds > 0 ? serial_total / m.stats.total_seconds
                                    : 0.0;
      table.AddRow(name, threads, kDefaultBatch, m.stats.tree_seconds,
                   m.stats.enhanced_seconds, m.stats.pair_gen_seconds,
                   m.stats.total_seconds, m.stats.ssad_runs,
                   m.kernel_ops.settles, speedup);
      EmitBuild(kind, threads, kDefaultBatch, m);
      BenchJson("build")
          .Str("solver", name)
          .Int("threads", threads)
          .Int("batch", kDefaultBatch)
          .Str("phase", "scaling")
          .Num("total_seconds", m.stats.total_seconds, 6)
          .Num("speedup", speedup, 3)
          .Int("size_bytes", m.size_bytes)
          .Emit();
    }
  }
  table.Print();

  MeasureLoad(*ds, seed);
}

}  // namespace
}  // namespace tso::bench

int main() {
  tso::bench::Run();
  return 0;
}
