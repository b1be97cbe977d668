// Live churn: two closed-loop readers query through a ServeEngine hosting a
// DynamicSeOracle while one writer replays a seeded open-loop schedule of
// inserts and removes (3:1) into it. Compactions do not start on their own
// (one inline in Insert would stall the schedule for a whole rebuild); on
// Dijkstra workloads the stage forces one after the readers stop, times it
// and checks its answers.

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>

#include "base/probe_stats.h"
#include "base/rng.h"
#include "dyn/dynamic_oracle.h"
#include "oracle/oracle_view.h"
#include "query/knn.h"
#include "query/range_query.h"
#include "serve/engine.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

// What readers may rely on: ids below `published` were returned by Insert
// (or are base POIs); ids below `allocated` may already be live, since an
// insert is visible before Insert returns; and `removed[id]` is set before
// Remove(id) is called, so a NotFound is correct only for an id whose flag
// is set.
struct Shared {
  std::atomic<uint32_t> published{0};
  std::atomic<uint32_t> allocated{0};
  std::unique_ptr<std::atomic<uint8_t>[]> removed;
  std::atomic<bool> stop{false};

  bool Removed(uint32_t id) const {
    return removed[id].load(std::memory_order_acquire) != 0;
  }
};

// Samples kept per kind, reader and segment: plenty for a median, and a
// fixed cap keeps the benchmark's own memory out of rss_peak_mb.
constexpr size_t kMaxSamples = 20000;

struct ReaderResult {
  Samples distance_us, knn_us, range_us;
  uint64_t ops = 0;

  static void Add(Samples& s, int64_t start) {
    if (s.count() < kMaxSamples) s.Add(SecondsSince(start) * 1e6);
  }
  void Append(const ReaderResult& o) {
    ops += o.ops;
    distance_us.Append(o.distance_us);
    knn_us.Append(o.knn_us);
    range_us.Append(o.range_us);
  }
};

// Readers file each operation under the time segment it started in.
struct Segments {
  int64_t start_ns;
  int64_t length_ns;
  size_t count;

  size_t Of(int64_t t) const {
    const int64_t i = (t - start_ns) / length_ns;
    return std::min(static_cast<size_t>(std::max<int64_t>(i, 0)), count - 1);
  }
};

void Read(const tso::ServeEngine& engine, const Shared& shared,
          double radius, uint64_t seed, const Segments& segments,
          Tally& tally, std::vector<ReaderResult>* by_segment) {
  tso::Rng rng(seed);
  while (!shared.stop.load(std::memory_order_relaxed)) {
    const uint32_t n = shared.published.load(std::memory_order_acquire);
    const uint32_t s = static_cast<uint32_t>(rng.Uniform(n));
    const uint32_t t = static_cast<uint32_t>(rng.Uniform(n));
    const double u = rng.UniformDouble();
    tally.Attempt();
    bool ok = true;
    bool pair = false;  // NotFound may name either id of a pair
    const char* kind = "distance";
    tso::Status status;
    const int64_t start = NowNs();
    ReaderResult* out = &(*by_segment)[segments.Of(start)];
    out->ops++;
    if (u < 0.90) {
      tso::StatusOr<double> d = [&] {
        ScopedSpan span("serve.distance");
        return engine.Distance(s, t);
      }();
      ReaderResult::Add(out->distance_us, start);
      status = d.status();
      pair = true;
      ok = !d.ok() || (std::isfinite(*d) && *d >= 0);
    } else if (u < 0.98) {
      tso::StatusOr<std::vector<tso::KnnResult>> r = [&] {
        ScopedSpan span("serve.knn");
        return engine.Knn(s, kKnnK, 1);
      }();
      ReaderResult::Add(out->knn_us, start);
      kind = "knn";
      status = r.status();
      if (r.ok()) {
        const uint32_t hi = shared.allocated.load(std::memory_order_acquire);
        ok = r->size() <= kKnnK;
        for (size_t i = 0; i < r->size(); ++i) {
          ok = ok && (*r)[i].poi < hi && std::isfinite((*r)[i].distance) &&
               (i == 0 || (*r)[i - 1].distance <= (*r)[i].distance);
        }
      }
    } else {
      tso::StatusOr<std::vector<uint32_t>> r = [&] {
        ScopedSpan span("serve.range");
        return engine.Range(s, radius, 1);
      }();
      ReaderResult::Add(out->range_us, start);
      kind = "range";
      status = r.status();
      if (r.ok()) {
        const uint32_t hi = shared.allocated.load(std::memory_order_acquire);
        for (uint32_t m : *r) ok = ok && m < hi;
      }
    }
    if (!status.ok()) {
      ok = status.code() == tso::StatusCode::kNotFound &&
           (shared.Removed(s) || (pair && shared.Removed(t)));
    }
    if (!ok) {
      tally.Fail(std::string("churn: ") + kind + " read of (" +
                 std::to_string(s) + "," +
                 std::to_string(t) + ") wrong or failed: " +
                 status.ToString());
    }
  }
}

void SleepUntil(int64_t due_ns) {
  const int64_t wait = due_ns - NowNs();
  if (wait <= 0) return;
  timespec ts{wait / 1000000000, wait % 1000000000};
  nanosleep(&ts, nullptr);
}

// Compacts the quiesced oracle, which must then answer bit-identically to
// a fresh static build over the live set (the DynamicSeOracle contract).
// Returns the seconds Compact() took.
double CompactAndCheck(Context& ctx, tso::DynamicSeOracle& dyn) {
  ctx.tally.Attempt();
  const int64_t t0 = NowNs();
  tso::Status compacted = [&] {
    ScopedSpan span("dyn.compact");
    return dyn.Compact();
  }();
  const double compact_s = SecondsSince(t0);
  if (!compacted.ok()) {
    ctx.tally.Fail("churn: Compact: " + compacted.ToString());
    return compact_s;
  }
  std::vector<uint32_t> live;
  std::vector<tso::SurfacePoint> points;
  for (uint32_t id = 0; id < dyn.num_ids(); ++id) {
    if (!dyn.IsLive(id)) continue;
    live.push_back(id);
    points.push_back(dyn.poi(id));
  }
  std::unique_ptr<tso::GeodesicSolver> solver = ctx.NewSolver();
  tso::StatusOr<tso::SeOracle> fresh = tso::SeOracle::Build(
      *ctx.ds->mesh, points, *solver, ctx.BuildOptions());
  if (!fresh.ok()) {
    ctx.tally.Fail("churn: fresh build: " + fresh.status().ToString());
    return compact_s;
  }
  tso::Rng rng(ctx.seed + 17);
  for (int i = 0; i < 2000; ++i) {
    const uint32_t a = static_cast<uint32_t>(rng.Uniform(live.size()));
    const uint32_t b = static_cast<uint32_t>(rng.Uniform(live.size()));
    ctx.tally.Attempt();
    tso::StatusOr<double> got = dyn.Distance(live[a], live[b]);
    tso::StatusOr<double> want = fresh->Distance(a, b);
    if (!got.ok() || !want.ok() || !BitsEqual(*got, *want)) {
      ctx.tally.Fail("churn: compacted answer differs from a fresh build");
    }
  }
  return compact_s;
}

// Without a compaction the base is the published file: base pairs must
// match it bit for bit, and pairs with an inserted POI must match the
// solver's distance (inserted rows are exact in the solver's metric). Used
// where a compaction is an exact-MMP rebuild, longer than the whole run.
void CheckAgainstBase(Context& ctx, const tso::DynamicSeOracle& dyn,
                      uint32_t base_n) {
  tso::StatusOr<tso::OracleView> view = tso::OracleView::Open(ctx.flat_path);
  TSO_CHECK(view.ok());
  std::vector<uint32_t> live;
  for (uint32_t id = 0; id < dyn.num_ids(); ++id) {
    if (dyn.IsLive(id)) live.push_back(id);
  }
  std::unique_ptr<tso::GeodesicSolver> solver = ctx.NewSolver();
  tso::Rng rng(ctx.seed + 17);
  for (int i = 0; i < 400; ++i) {
    const uint32_t a = live[rng.Uniform(live.size())];
    const uint32_t b = live[rng.Uniform(live.size())];
    ctx.tally.Attempt();
    tso::StatusOr<double> got = dyn.Distance(a, b);
    bool ok = got.ok();
    if (ok && a < base_n && b < base_n) {
      tso::StatusOr<double> want = view->Distance(a, b);
      ok = want.ok() && BitsEqual(*got, *want);
    } else if (ok && i % 8 == 0) {  // one SSAD each: check a sample
      tso::StatusOr<double> want =
          a == b ? tso::StatusOr<double>(0.0)
                 : solver->PointToPoint(dyn.poi(a), dyn.poi(b));
      ok = want.ok() && std::abs(*got - *want) <= 1e-6 * (*want + 1.0);
    }
    if (!ok) ctx.tally.Fail("churn: answer differs from base or solver");
  }
}

class ChurnStage {
 public:
  explicit ChurnStage(Context& ctx)
      : ctx_(ctx),
        solver_(ctx.NewSolver()),
        probe_solver_(ctx.NewSolver()),
        rng_(ctx.seed * 13 + 5) {
    tso::DynamicOracleOptions options;
    options.base = ctx.BuildOptions();
    // The forced compaction rebuilds single-threaded; none starts on its
    // own.
    options.base.num_threads = 1;
    options.base.parallel_solver_factory = nullptr;
    options.compaction_ratio = 1e6;
    options.max_delta = std::numeric_limits<size_t>::max();
    tso::StatusOr<tso::OracleView> view = tso::OracleView::Open(ctx.flat_path);
    TSO_CHECK(view.ok());
    base_n_ = static_cast<uint32_t>(view->num_pois());
    tso::StatusOr<std::unique_ptr<tso::DynamicSeOracle>> mounted =
        tso::DynamicSeOracle::FromView(std::move(*view), ctx.ds->mesh.get(),
                                       solver_.get(), options);
    TSO_CHECK(mounted.ok());
    dyn_ = std::shared_ptr<tso::DynamicSeOracle>(std::move(*mounted));
    TSO_CHECK_OK(engine_.Host(dyn_));

    const size_t max_ids = base_n_ + ctx.insert_pool.size();
    shared_.removed.reset(new std::atomic<uint8_t>[max_ids]);
    for (size_t i = 0; i < max_ids; ++i) shared_.removed[i].store(0);
    shared_.published.store(base_n_);
    shared_.allocated.store(base_n_);
    const tso::Aabb& box = ctx.ds->mesh->bounding_box();
    radius_ = 0.1 * std::hypot(box.max.x - box.min.x, box.max.y - box.min.y);
    live_.resize(base_n_);
    for (uint32_t i = 0; i < base_n_; ++i) live_[i] = i;
    publishes0_ = dyn_->stats().publishes;
  }

  // Readers and the writer run together for `seconds`. Read figures are
  // medians over segments of about a second (at least five), so a burst of
  // interference on the host spoils a segment, not the figure.
  void Measure(double seconds) {
    const int64_t start = NowNs();
    const size_t count =
        std::max<size_t>(5, static_cast<size_t>(std::lround(seconds)));
    const Segments segments{
        start, static_cast<int64_t>(seconds * 1e9 / count), count};
    std::vector<std::vector<ReaderResult>> reads(
        kReaders, std::vector<ReaderResult>(count));
    std::vector<std::thread> readers;
    for (uint32_t r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        Read(engine_, shared_, radius_, ctx_.seed * 7 + r, segments,
             ctx_.tally, &reads[r]);
      });
    }
    Write(start + static_cast<int64_t>(seconds * 1e9));
    shared_.stop.store(true);
    for (std::thread& t : readers) t.join();
    for (size_t seg = 0; seg < count; ++seg) {
      ReaderResult merged;
      for (const auto& reader : reads) merged.Append(reader[seg]);
      all_.Append(merged);
      ops_s_.Add(static_cast<double>(merged.ops) * 1e9 /
                 static_cast<double>(segments.length_ns));
      distance_p50_.Add(merged.distance_us.Median());
      knn_p50_.Add(merged.knn_us.Median());
      range_p50_.Add(merged.range_us.Median());
    }
  }

  void Finish() {
    std::printf("churn: %llu reads by %u readers, %zu inserts\n",
                static_cast<unsigned long long>(all_.ops), kReaders,
                insert_ms_.count());
    PrintTiming("distance_us", all_.distance_us, "us");
    PrintTiming("knn_us", all_.knn_us, "us");
    PrintTiming("range_us", all_.range_us, "us");
    PrintTiming("insert_ms", insert_ms_, "ms");
    PrintTiming("insert_service_ms", service_ms_, "ms");
    ctx_.e2e.Set("read_ops_s", ops_s_.Median(), "ops/s");
    ctx_.e2e.Set("distance_p50_us", distance_p50_.Median(), "us");
    ctx_.e2e.Set("knn_p50_us", knn_p50_.Median(), "us");
    ctx_.e2e.Set("range_p50_us", range_p50_.Median(), "us");
    ctx_.e2e.Set("insert_p50_ms", insert_ms_.Median(), "ms");
    ctx_.e2e.Set("insert_p90_ms", insert_ms_.Percentile(90), "ms");

    const tso::ServeEngine::Stats serve = engine_.stats();
    ctx_.tally.Attempt();
    if (serve.shed != 0 || serve.deadline_exceeded != 0) {
      ctx_.tally.Fail("churn: engine shed or timed out requests");
    }
    MetricSet& l = ctx_.layers;
    l.Set("geodesic.ssad_ms", ssad_ms_.Median(), "ms");
    l.Set("dyn.merge_publish_ms", merge_ms_.Median(), "ms");
    l.Set("dyn.publishes",
          static_cast<double>(dyn_->stats().publishes - publishes0_),
          "count");
    l.Set("dyn.delta_size_max", static_cast<double>(delta_max_), "count");
    l.Set("dyn.epoch_pending_max", static_cast<double>(pending_max_),
          "count");
    l.Set("serve.shed", l.Get("serve.shed") + static_cast<double>(serve.shed),
          "count");
    l.Set("serve.deadline_exceeded",
          l.Get("serve.deadline_exceeded") +
              static_cast<double>(serve.deadline_exceeded),
          "count");
    if (Trace::enabled()) ProbeQueries();

    double compact_s = 0;
    const bool compact = ctx_.cfg->solver == tso::SolverKind::kDijkstra;
    if (compact) {
      compact_s = CompactAndCheck(ctx_, *dyn_);
      std::printf("churn: compacted in %.3f s\n", compact_s);
    } else {
      CheckAgainstBase(ctx_, *dyn_, base_n_);
    }
    l.Set("dyn.compactions", compact ? 1.0 : 0.0, "count");
    l.Set("dyn.compact_s", compact_s, "s");
  }

 private:
  // The writer: open loop on an evenly spaced schedule, each insert timed
  // from its scheduled time. Even spacing keeps Poisson bunching out of the
  // insert figures, so what queues inserts is the program.
  void Write(int64_t end_ns) {
    const bool traced = Trace::enabled();
    const auto gap_ns = static_cast<int64_t>(1e9 / ctx_.cfg->writer_rate);
    for (int64_t due = NowNs() + gap_ns;
         due < end_ns && next_point_ < ctx_.insert_pool.size();
         due += gap_ns) {
      SleepUntil(due);
      ctx_.tally.Attempt();
      if (rng_.Uniform(4) == 3 && live_.size() > 1) {
        const size_t k = rng_.Uniform(live_.size());
        const uint32_t id = live_[k];
        live_[k] = live_.back();
        live_.pop_back();
        shared_.removed[id].store(1, std::memory_order_release);
        ScopedSpan span("dyn.remove");
        if (tso::Status s = dyn_->Remove(id); !s.ok()) {
          ctx_.tally.Fail("churn: Remove: " + s.ToString());
        }
      } else {
        Insert(ctx_.insert_pool[next_point_++], due, traced);
      }
      const tso::DynamicStats st = dyn_->stats();
      delta_max_ = std::max(delta_max_, st.delta_size);
      pending_max_ = std::max(pending_max_, st.epoch.pending);
    }
  }

  void Insert(const tso::SurfacePoint& p, int64_t due, bool traced) {
    double ssad = 0;
    if (traced) {
      // The insert's own SSAD cost: one sweep covering every live POI.
      std::vector<tso::SurfacePoint> targets;
      for (uint32_t id : live_) targets.push_back(dyn_->poi(id));
      tso::SsadOptions opts;
      opts.cover_targets = &targets;
      const int64_t t0 = NowNs();
      ScopedSpan span("geodesic.ssad");
      TSO_CHECK_OK(probe_solver_->Run(p, opts));
      ssad = SecondsSince(t0) * 1e3;
      ssad_ms_.Add(ssad);
    }
    shared_.allocated.fetch_add(1, std::memory_order_release);
    const int64_t t0 = NowNs();
    tso::StatusOr<uint32_t> id = [&] {
      ScopedSpan span("dyn.insert");
      return dyn_->Insert(p);
    }();
    const int64_t done = NowNs();
    insert_ms_.Add(static_cast<double>(done - due) * 1e-6);
    const double service = static_cast<double>(done - t0) * 1e-6;
    service_ms_.Add(service);
    if (!id.ok()) {
      ctx_.tally.Fail("churn: Insert: " + id.status().ToString());
      return;
    }
    live_.push_back(*id);
    shared_.published.store(*id + 1, std::memory_order_release);
    if (traced) merge_ms_.Add(service - ssad);
  }

  // kNN and range called directly on a pinned snapshot, with no engine.
  void ProbeQueries() {
    tso::DynamicSeOracle::PinnedSource pinned = dyn_->Pin();
    Samples knn_us, range_us;
    tso::ProbeCounters knn_probes, range_probes;
    constexpr int kCalls = 200;
    for (int i = 0; i < kCalls; ++i) {
      const uint32_t q = live_[rng_.Uniform(live_.size())];
      int64_t t0 = NowNs();
      {
        tso::ProbeCounterScope scope(&knn_probes);
        ScopedSpan span("query.knn");
        TSO_CHECK(tso::KnnQuery(pinned.source(), q, kKnnK).ok());
      }
      knn_us.Add(SecondsSince(t0) * 1e6);
      t0 = NowNs();
      {
        tso::ProbeCounterScope scope(&range_probes);
        ScopedSpan span("query.range");
        TSO_CHECK(tso::RangeQuery(pinned.source(), q, radius_).ok());
      }
      range_us.Add(SecondsSince(t0) * 1e6);
    }
    MetricSet& l = ctx_.layers;
    l.Set("query.knn_us", knn_us.Median(), "us");
    l.Set("query.range_us", range_us.Median(), "us");
    l.Set("query.knn_probes",
          static_cast<double>(knn_probes.probes) / kCalls, "count");
    l.Set("query.range_probes",
          static_cast<double>(range_probes.probes) / kCalls, "count");
  }

  Context& ctx_;
  std::unique_ptr<tso::GeodesicSolver> solver_;  // the oracle's inserts
  std::unique_ptr<tso::GeodesicSolver> probe_solver_;
  std::shared_ptr<tso::DynamicSeOracle> dyn_;
  tso::ServeEngine engine_;
  Shared shared_;
  uint32_t base_n_ = 0;
  double radius_ = 0;
  tso::Rng rng_;

  // Writer state.
  std::vector<uint32_t> live_;
  size_t next_point_ = 0;
  Samples insert_ms_, service_ms_, ssad_ms_, merge_ms_;
  size_t delta_max_ = 0, pending_max_ = 0;
  uint64_t publishes0_ = 0;

  // Reader results: all samples, and one median per segment.
  ReaderResult all_;
  Samples ops_s_, distance_p50_, knn_p50_, range_p50_;
};

}  // namespace

void RunChurn(Context& ctx, double seconds) {
  ChurnStage stage(ctx);
  stage.Measure(seconds);
  stage.Finish();
}

}  // namespace perfbench
