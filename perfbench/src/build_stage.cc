// Set-up and the build/publish stage: SeOracle::Build, then the flat and
// pack files are serialized, written and opened, as a server would load them.

#include <cmath>
#include <string>

#include "base/atomic_file.h"
#include "base/crc32.h"
#include "bench_common.h"
#include "geodesic/ssad_kernel.h"
#include "oracle/oracle_serde.h"
#include "oracle/pack_view.h"
#include "terrain/poi_generator.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

using tso::PaperDataset;
using tso::SolverKind;

const std::vector<WorkloadConfig>& Workloads() {
  // Sizes keep one run near 40 s on a 4-core machine. The exact build
  // needs 2 workers to repeat three times in its share of the run; the
  // Dijkstra build is only ~10% slower on one worker than on two, and its
  // time repeats better there (median 0.48-0.51 s over six runs, against
  // 0.40-0.48 s on two).
  static const std::vector<WorkloadConfig> kWorkloads = {
      {"build_exact",
       "paper setting (Figs 8-10): exact MMP SSADs dominate the build",
       PaperDataset::kSanFranciscoSmall, 980, 200, SolverKind::kMmpExact, 2,
       0.65, 0.15, 0.2, 12.0, false},
      {"wire_p2p",
       "open-loop pipelined tsod Distance traffic: net and serve dominate",
       PaperDataset::kSanFrancisco, 4000, 800, SolverKind::kDijkstra, 1,
       0.25, 0.55, 0.2, 60.0, true},
  };
  return kWorkloads;
}

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::unique_ptr<tso::GeodesicSolver> Context::NewSolver() const {
  tso::StatusOr<std::unique_ptr<tso::GeodesicSolver>> solver =
      tso::MakeSolver(cfg->solver, *ds->mesh);
  TSO_CHECK(solver.ok());
  return std::move(*solver);
}

tso::SeOracleOptions Context::BuildOptions() const {
  tso::SeOracleOptions options;
  options.epsilon = kEpsilon;
  options.seed = seed;
  options.num_threads = cfg->build_workers;
  const tso::TerrainMesh* mesh = ds->mesh.get();
  const SolverKind kind = cfg->solver;
  options.parallel_solver_factory = [mesh, kind]() {
    tso::StatusOr<std::unique_ptr<tso::GeodesicSolver>> s =
        tso::MakeSolver(kind, *mesh);
    TSO_CHECK(s.ok());
    return std::move(*s);
  };
  return options;
}

void RunSetup(Context& ctx) {
  const WorkloadConfig& cfg = *ctx.cfg;
  Samples setup_s, synth_s;
  // Enough insert points for the churn writer's whole schedule.
  const double churn_s = ctx.seconds * cfg.churn_share;
  const size_t pool =
      static_cast<size_t>(cfg.writer_rate * churn_s * 1.5) + 64;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ctx.ds.reset();
    const int64_t start = NowNs();
    tso::StatusOr<tso::Dataset> ds = [&] {
      ScopedSpan span("terrain.synth");
      return tso::MakePaperDataset(cfg.dataset, cfg.vertices, cfg.pois,
                                   kDatasetSeed);
    }();
    synth_s.Add(SecondsSince(start));
    TSO_CHECK(ds.ok());
    tso::Rng rng(ctx.seed);
    ctx.pairs = tso::bench::MakeQueryPairs(cfg.pois, 1 << 16, rng);
    ctx.insert_pool =
        tso::GenerateUniformPois(*ds->mesh, *ds->locator, pool, rng);
    ctx.ds.emplace(std::move(*ds));
    setup_s.Add(SecondsSince(start));
  }
  std::printf("setup: N=%zu n=%zu\n", ctx.ds->N(), ctx.ds->n());
  PrintTiming("setup_s", setup_s, "s");
  PrintTiming("terrain.synth_s", synth_s, "s");
  ctx.e2e.Set("setup_s", setup_s.Median(), "s");
  ctx.layers.Set("terrain.synth_s", synth_s.Median(), "s");
}

namespace {

// Sampled oracle answers must lie within (1±ε) of the solver's metric:
// MmpSolver's exact geodesics or DijkstraSolver's graph distances.
void CheckAgainstSolver(Context& ctx, const tso::SeOracle& oracle) {
  const size_t kChecked = 24;
  std::vector<std::pair<uint32_t, uint32_t>> sample(
      ctx.pairs.begin(), ctx.pairs.begin() + kChecked);
  std::vector<double> truth;
  if (ctx.cfg->solver == SolverKind::kMmpExact) {
    truth = tso::bench::ExactDistances(*ctx.ds->mesh, ctx.ds->pois, sample);
  } else {
    std::unique_ptr<tso::GeodesicSolver> solver = ctx.NewSolver();
    for (const auto& [s, t] : sample) {
      tso::StatusOr<double> d =
          solver->PointToPoint(ctx.ds->pois[s], ctx.ds->pois[t]);
      truth.push_back(d.ok() ? *d : -1.0);
    }
  }
  if (ctx.inject_fault) truth[0] *= 2.0;
  for (size_t i = 0; i < sample.size(); ++i) {
    ctx.tally.Attempt();
    tso::StatusOr<double> got = oracle.Distance(sample[i].first,
                                                sample[i].second);
    const double slack = kEpsilon * truth[i] + 1e-9;
    if (!got.ok() || truth[i] < 0 || std::abs(*got - truth[i]) > slack) {
      ctx.tally.Fail("build: pair " + std::to_string(i) +
                     " outside (1±eps) of the solver distance");
    }
  }
}

// The mapped flat file and the pack must answer bit-identically to the
// in-memory oracle.
void CheckViews(Context& ctx, const tso::SeOracle& oracle,
                const tso::OracleView& flat, const tso::PackView& pack) {
  for (size_t i = 0; i < 2000 && i < ctx.pairs.size(); ++i) {
    const auto [s, t] = ctx.pairs[i];
    ctx.tally.Attempt();
    tso::StatusOr<double> want = oracle.Distance(s, t);
    tso::StatusOr<double> a = flat.Distance(s, t);
    tso::StatusOr<double> b = pack.Distance(s, t);
    if (!want.ok() || !a.ok() || !b.ok() || !BitsEqual(*a, *want) ||
        !BitsEqual(*b, *want)) {
      ctx.tally.Fail("build: flat/pack answer differs from the oracle");
    }
  }
}

class BuildStage {
 public:
  explicit BuildStage(Context& ctx)
      : ctx_(ctx), solver_(ctx.NewSolver()), options_(ctx.BuildOptions()) {}

  // Builds and publishes until `budget_s` is spent, at least kMinBuilds
  // times.
  void Measure(double budget_s) {
    const int64_t start = NowNs();
    while (reps_ < kMinBuilds || SecondsSince(start) < budget_s) Rep();
  }

  void Finish() {
    CheckAgainstSolver(ctx_, *oracle_);
    std::printf("build: %zu builds, %u workers, flat %zu B, crc %08x\n",
                build_s_.count(), ctx_.cfg->build_workers, flat_bytes_, first_crc_);
    PrintTiming("build_s", build_s_, "s");
    PrintTiming("publish_s", publish_s_, "s");
    ctx_.e2e.Set("build_s", build_s_.Median(), "s");
    ctx_.e2e.Set("publish_s", publish_s_.Median(), "s");
    ctx_.e2e.Set("oracle_bytes", static_cast<double>(flat_bytes_), "B");

    MetricSet& l = ctx_.layers;
    l.Set("geodesic.ssad_runs", ssad_runs_.Median(), "count");
    l.Set("geodesic.settles", settles_.Median(), "count");
    l.Set("geodesic.relaxations", relaxations_.Median(), "count");
    l.Set("geodesic.tree_waste_ratio", waste_.Median(), "ratio");
    l.Set("oracle.tree_s", tree_s_.Median(), "s");
    l.Set("oracle.enhanced_s", enhanced_s_.Median(), "s");
    l.Set("oracle.pairs_s", pairs_s_.Median(), "s");
    l.Set("oracle.node_pairs", node_pairs_.Median(), "count");
    l.Set("oracle.height", height_.Median(), "count");
    l.Set("oracle.serialize_flat_s", ser_flat_s_.Median(), "s");
    l.Set("oracle.serialize_pack_s", ser_pack_s_.Median(), "s");
    l.Set("oracle.open_flat_ms", open_flat_ms_.Median(), "ms");
    l.Set("oracle.open_pack_ms", open_pack_ms_.Median(), "ms");
  }

 private:
  void Rep() {
    Context& ctx = ctx_;
    const tso::Dataset& ds = *ctx.ds;
    const int rep = reps_++;
    oracle_.reset();
    ctx.tally.Attempt();
    tso::SeBuildStats stats;
    const tso::SsadCounterSnapshot before = tso::SsadCounterSnapshot::Take();
    const int64_t t0 = NowNs();
    tso::StatusOr<tso::SeOracle> built = [&] {
      ScopedSpan span("oracle.build");
      return tso::SeOracle::Build(*ds.mesh, ds.pois, *solver_, options_,
                                  &stats);
    }();
    build_s_.Add(SecondsSince(t0));
    const tso::SsadCounterSnapshot ssad =
        tso::SsadCounterSnapshot::Take().Delta(before);
    TSO_CHECK(built.ok());  // nothing downstream can run without it
    tree_s_.Add(stats.tree_seconds);
    enhanced_s_.Add(stats.enhanced_seconds);
    pairs_s_.Add(stats.pair_gen_seconds);
    ssad_runs_.Add(static_cast<double>(ssad.runs));
    settles_.Add(static_cast<double>(ssad.settles));
    relaxations_.Add(static_cast<double>(ssad.relaxations));
    waste_.Add(stats.tree_speculative_ssads == 0
                   ? 0.0
                   : static_cast<double>(stats.tree_wasted_ssads) /
                         static_cast<double>(stats.tree_speculative_ssads));
    node_pairs_.Add(static_cast<double>(stats.node_pairs));
    height_.Add(stats.height);

    // Publish: serialize, write and open both formats.
    ctx.tally.Attempt();
    const int64_t t1 = NowNs();
    int64_t t = t1;
    std::string flat;
    {
      ScopedSpan span("oracle.serialize_flat");
      flat = tso::SerializeSeOracleFlat(*built);
    }
    ser_flat_s_.Add(SecondsSince(t));
    tso::StatusOr<std::string> pack = [&] {
      ScopedSpan span("oracle.serialize_pack");
      t = NowNs();
      tso::StatusOr<std::string> p = tso::SerializeOraclePack(
          *built, {kPackShards, tso::PackPolicy::kPoiRange});
      ser_pack_s_.Add(SecondsSince(t));
      return p;
    }();
    tso::Status wrote;
    {
      ScopedSpan span("base.write_file");
      wrote = tso::WriteFileAtomic(ctx.flat_path, flat);
      if (wrote.ok() && pack.ok()) {
        wrote = tso::WriteFileAtomic(ctx.pack_path, *pack);
      }
    }
    t = NowNs();
    tso::StatusOr<tso::OracleView> flat_view = [&] {
      ScopedSpan span("oracle.open_flat");
      return tso::OracleView::Open(ctx.flat_path);
    }();
    open_flat_ms_.Add(SecondsSince(t) * 1e3);
    t = NowNs();
    tso::StatusOr<tso::PackView> pack_view = [&] {
      ScopedSpan span("oracle.open_pack");
      return tso::PackView::Open(ctx.pack_path);
    }();
    open_pack_ms_.Add(SecondsSince(t) * 1e3);
    publish_s_.Add(SecondsSince(t1));
    TSO_CHECK(pack.ok() && wrote.ok() && flat_view.ok() && pack_view.ok());

    // Determinism: every build of one invocation writes the same bytes.
    const uint32_t crc = tso::Crc32(flat.data(), flat.size());
    ctx.tally.Attempt();
    if (rep == 0) {
      first_crc_ = crc;
    } else if (crc != first_crc_) {
      ctx.tally.Fail("build: flat file bytes differ between repeats");
    }
    flat_bytes_ = flat.size();
    oracle_ = std::make_unique<tso::SeOracle>(std::move(*built));
    if (rep == 0) CheckViews(ctx, *oracle_, *flat_view, *pack_view);
  }

  Context& ctx_;
  std::unique_ptr<tso::GeodesicSolver> solver_;
  const tso::SeOracleOptions options_;
  std::unique_ptr<tso::SeOracle> oracle_;  // the last build
  Samples build_s_, publish_s_, ser_flat_s_, ser_pack_s_, open_flat_ms_,
      open_pack_ms_, tree_s_, enhanced_s_, pairs_s_;
  Samples ssad_runs_, settles_, relaxations_, waste_, node_pairs_, height_;
  uint32_t first_crc_ = 0;
  size_t flat_bytes_ = 0;
  int reps_ = 0;
};

}  // namespace

void RunBuild(Context& ctx, double seconds) {
  BuildStage stage(ctx);
  stage.Measure(seconds);
  stage.Finish();
}

}  // namespace perfbench
