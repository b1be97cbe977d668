// Every representation of the oracle must answer alike: the owning
// SeOracle, the zero-copy flat view and the sharded pack return
// bit-identical distances through the same §3.4 probe, a degraded pack
// either matches or fails honestly, and the deterministic probe counters do
// not depend on the representation. Exhaustive where it's cheap (all-pairs
// distances).

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/histogram.h"
#include "base/probe_stats.h"
#include "geodesic/dijkstra_solver.h"
#include "oracle/oracle_serde.h"
#include "oracle/oracle_view.h"
#include "oracle/pack_format.h"
#include "oracle/pack_view.h"
#include "query/batch.h"
#include "query/knn.h"
#include "query/range_query.h"
#include "terrain/dataset.h"

namespace tso {
namespace {

struct EquivFixture {
  StatusOr<Dataset> ds;
  std::unique_ptr<DijkstraSolver> solver;
  std::unique_ptr<SeOracle> oracle;
  std::string flat_blob;
  std::unique_ptr<OracleView> view;
  std::string pack_blob;
  std::unique_ptr<PackView> pack;
  std::string degraded_blob;
  std::unique_ptr<PackView> degraded;

  EquivFixture()
      : ds(MakePaperDataset(PaperDataset::kSanFranciscoSmall, 300, 24, 13)) {
    TSO_CHECK(ds.ok());
    solver = std::make_unique<DijkstraSolver>(*ds->mesh);
    SeOracleOptions options;
    options.epsilon = 0.25;
    StatusOr<SeOracle> built =
        SeOracle::Build(*ds->mesh, ds->pois, *solver, options, nullptr);
    TSO_CHECK(built.ok());
    oracle = std::make_unique<SeOracle>(std::move(*built));

    flat_blob = SerializeSeOracleFlat(*oracle);
    StatusOr<OracleView> v = OracleView::FromBuffer(flat_blob);
    TSO_CHECK(v.ok());
    view = std::make_unique<OracleView>(std::move(*v));

    PackBuildOptions pack_options;
    pack_options.num_shards = 3;
    StatusOr<std::string> pb = SerializeOraclePack(*oracle, pack_options);
    TSO_CHECK(pb.ok());
    pack_blob = std::move(*pb);
    StatusOr<PackView> p = PackView::FromBuffer(pack_blob);
    TSO_CHECK(p.ok());
    pack = std::make_unique<PackView>(std::move(*p));

    // Deterministic degraded pack: corrupt one byte inside shard 1's blob
    // so the degraded open quarantines exactly that shard.
    StatusOr<PackFileInfo> info = ReadPackFileInfo(pack_blob);
    TSO_CHECK(info.ok());
    degraded_blob = pack_blob;
    bool corrupted = false;
    for (const FlatSectionEntry& e : info->sections) {
      if (e.id == kPackShardBase + 1) {
        degraded_blob[e.offset + e.size / 2] ^= 0x40;
        corrupted = true;
      }
    }
    TSO_CHECK(corrupted);
    PackView::Options degraded_options;
    degraded_options.verify_checksums = true;
    degraded_options.allow_degraded = true;
    StatusOr<PackView> d = PackView::FromBuffer(degraded_blob,
                                                degraded_options);
    TSO_CHECK(d.ok());
    TSO_CHECK(d->num_available() < d->num_shards());
    degraded = std::make_unique<PackView>(std::move(*d));
  }
};

EquivFixture& Fixture() {
  static EquivFixture* fx = new EquivFixture();
  return *fx;
}

/// All-pairs Distance, recorded as (ok, bits-or-code) so error
/// paths (degraded kUnavailable) participate in the equivalence too.
std::vector<std::pair<bool, uint64_t>> DistanceSweep(
    const DistanceSource& source, uint32_t n) {
  std::vector<std::pair<bool, uint64_t>> out;
  QueryScratch scratch;
  out.reserve(static_cast<size_t>(n) * n);
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) {
      StatusOr<double> d = source.Distance(s, t, scratch);
      if (d.ok()) {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(double));
        std::memcpy(&bits, &*d, sizeof(bits));
        out.emplace_back(true, bits);
      } else {
        out.emplace_back(false, static_cast<uint64_t>(d.status().code()));
      }
    }
  }
  return out;
}

TEST(RepresentationEquivalence, DistanceBitIdenticalAcrossRepresentations) {
  EquivFixture& fx = Fixture();
  const uint32_t n = static_cast<uint32_t>(fx.oracle->num_pois());
  const auto reference = DistanceSweep(MakeSource(*fx.oracle), n);
  for (const auto& [ok, bits] : reference) ASSERT_TRUE(ok);
  EXPECT_EQ(DistanceSweep(MakeSource(*fx.view), n), reference);
  EXPECT_EQ(DistanceSweep(MakeSource(*fx.pack), n), reference);
}

TEST(RepresentationEquivalence, DegradedPackMatchesOrFailsHonestly) {
  EquivFixture& fx = Fixture();
  const uint32_t n = static_cast<uint32_t>(fx.oracle->num_pois());
  const auto reference = DistanceSweep(MakeSource(*fx.oracle), n);
  const auto degraded = DistanceSweep(MakeSource(*fx.degraded), n);
  // Deterministic: a second sweep repeats every answer and error bit for bit.
  EXPECT_EQ(DistanceSweep(MakeSource(*fx.degraded), n), degraded);
  ASSERT_EQ(degraded.size(), reference.size());
  size_t unavailable = 0;
  for (size_t i = 0; i < degraded.size(); ++i) {
    if (!degraded[i].first) {
      EXPECT_EQ(degraded[i].second,
                static_cast<uint64_t>(StatusCode::kUnavailable))
          << "pair " << i;
      unavailable++;
      continue;
    }
    // A pair rescued through its reverse orientation carries the same ε
    // guarantee but may differ from the forward record in final ulps.
    double got, want;
    std::memcpy(&got, &degraded[i].second, sizeof(got));
    std::memcpy(&want, &reference[i].second, sizeof(want));
    EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, want)) << "pair " << i;
  }
  EXPECT_LT(unavailable, degraded.size());
}

TEST(RepresentationEquivalence, QueryEnginesBitIdenticalAcrossRepresentations) {
  EquivFixture& fx = Fixture();
  const uint32_t n = static_cast<uint32_t>(fx.oracle->num_pois());
  std::vector<std::pair<uint32_t, uint32_t>> queries;
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) queries.emplace_back(s, t);
  }
  const DistanceSource reference = MakeSource(*fx.oracle);
  const auto ref_batch = DistanceBatch(reference, queries, 1);
  const auto ref_knn = KnnQuery(reference, 3, 7);
  const auto ref_pruned = KnnQueryPruned(reference, 3, 7);
  const auto ref_range = RangeQuery(reference, 5, 900.0);
  ASSERT_TRUE(ref_batch.ok() && ref_knn.ok() && ref_pruned.ok() &&
              ref_range.ok());
  for (const auto& [name, source] :
       {std::pair{"view", MakeSource(*fx.view)},
        std::pair{"pack", MakeSource(*fx.pack)}}) {
    const auto batch = DistanceBatch(source, queries, 1);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(*batch, *ref_batch) << name;
    const auto knn = KnnQuery(source, 3, 7);
    const auto pruned = KnnQueryPruned(source, 3, 7);
    ASSERT_TRUE(knn.ok() && pruned.ok());
    ASSERT_EQ(knn->size(), ref_knn->size());
    for (size_t i = 0; i < knn->size(); ++i) {
      EXPECT_EQ((*knn)[i].poi, (*ref_knn)[i].poi) << name;
      EXPECT_EQ((*knn)[i].distance, (*ref_knn)[i].distance) << name;
    }
    ASSERT_EQ(pruned->size(), ref_pruned->size());
    for (size_t i = 0; i < pruned->size(); ++i) {
      EXPECT_EQ((*pruned)[i].poi, (*ref_pruned)[i].poi) << name;
      EXPECT_EQ((*pruned)[i].distance, (*ref_pruned)[i].distance) << name;
    }
    const auto range = RangeQuery(source, 5, 900.0);
    ASSERT_TRUE(range.ok());
    EXPECT_EQ(*range, *ref_range) << name;
  }
}

TEST(RepresentationEquivalence, ViewAndPackCountTheSameProbes) {
  // Every representation probes the same candidate sequence one key at a
  // time and stops at the first hit, so probe and hit counts agree exactly
  // between the monolithic view and the sharded pack.
  EquivFixture& fx = Fixture();
  const uint32_t n = static_cast<uint32_t>(fx.oracle->num_pois());
  auto count = [&](const DistanceSource& source) {
    ProbeCounters counters;
    ProbeCounterScope scope(&counters);
    DistanceSweep(source, n);
    return counters;
  };
  const ProbeCounters view = count(MakeSource(*fx.view));
  const ProbeCounters pack = count(MakeSource(*fx.pack));
  // One hit per query with s != t: each query ends at its first hit.
  EXPECT_EQ(view.hits, static_cast<uint64_t>(n) * (n - 1));
  EXPECT_GT(view.probes, view.hits);
  EXPECT_EQ(pack.probes, view.probes);
  EXPECT_EQ(pack.hits, view.hits);
}

TEST(RepresentationEquivalence, AncestorTableMatchesWalk) {
  EquivFixture& fx = Fixture();
  // The mapped view carries the minor-1 precomputed table; the owning
  // oracle walks. Both must produce the same A_s arrays.
  const CompressedTreeView walk_tree = fx.oracle->tree().view();
  const CompressedTreeView& table_tree = fx.view->tree();
  ASSERT_FALSE(walk_tree.has_ancestor_table());
  ASSERT_TRUE(table_tree.has_ancestor_table());
  std::vector<uint32_t> scratch;
  for (uint32_t p = 0; p < fx.oracle->num_pois(); ++p) {
    const auto row = table_tree.AncestorsOfPoi(p, &scratch);
    std::vector<uint32_t> walked;
    walk_tree.AncestorArray(walk_tree.leaf_of_poi(p), &walked);
    ASSERT_EQ(row.size(), walked.size());
    for (size_t i = 0; i < walked.size(); ++i) {
      EXPECT_EQ(row[i], walked[i]) << "poi " << p << " layer " << i;
    }
  }
}

TEST(LatencyHistogram, BucketsArePercentileAccurate) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.Percentile(99.0), 0u);
  // Identity range: small values are exact.
  for (uint64_t v = 0; v < 64; ++v) hist.Record(v);
  EXPECT_EQ(hist.count(), 64u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 63u);
  EXPECT_EQ(hist.Percentile(50.0), 31u);
  EXPECT_EQ(hist.Percentile(100.0), 63u);
  // Log range: percentiles within the documented ~3.1% relative error.
  LatencyHistogram big;
  for (uint64_t v = 1; v <= 100000; ++v) big.Record(v);
  const uint64_t p50 = big.Percentile(50.0);
  const uint64_t p99 = big.Percentile(99.0);
  EXPECT_NEAR(static_cast<double>(p50), 50000.0, 50000.0 * 0.032);
  EXPECT_NEAR(static_cast<double>(p99), 99000.0, 99000.0 * 0.032);
  EXPECT_GE(p50, 50000u);  // upper-bound representative never understates
  EXPECT_GE(p99, 99000u);
  // Merge is additive.
  LatencyHistogram merged;
  merged.Merge(hist);
  merged.Merge(big);
  EXPECT_EQ(merged.count(), hist.count() + big.count());
  EXPECT_EQ(merged.max(), big.max());
  EXPECT_EQ(merged.min(), hist.min());
}

}  // namespace
}  // namespace tso
