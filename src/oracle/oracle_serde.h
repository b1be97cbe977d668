#ifndef TSO_ORACLE_ORACLE_SERDE_H_
#define TSO_ORACLE_ORACLE_SERDE_H_

#include <string>
#include <string_view>

#include "oracle/oracle_view.h"
#include "oracle/se_oracle.h"

namespace tso {

// ---------------------------------------------------------------------------
// Flat format ("TSOFLAT"), the only on-disk oracle format: sectioned,
// checksummed, mmap-able layout (oracle/flat_format.h,
// docs/oracle-format.md). Serve it zero-copy through OracleView, or
// materialize an owning SeOracle when mutation-adjacent APIs (e.g. the
// dynamic oracle's base) need one.
// ---------------------------------------------------------------------------

/// Serializes an SE oracle into the flat format. Deterministic: the same
/// oracle always produces byte-identical output (the format-stability CI
/// job byte-compares against a golden file).
std::string SerializeSeOracleFlat(const SeOracle& oracle);

/// Parts-based form of SerializeSeOracleFlat: serializes a flat oracle from
/// its components without an owning SeOracle. The pack writer
/// (oracle/pack_view.h) uses it to emit shards that share `pois` and `tree`
/// but carry per-shard pair subsets. Same determinism guarantee.
std::string SerializeSeOracleFlat(double epsilon,
                                  const std::vector<SurfacePoint>& pois,
                                  const CompressedTree& tree,
                                  const NodePairSet& pairs);

/// Copies a flat buffer's sections into an owning SeOracle (the inverse of
/// SerializeSeOracleFlat; validation matches OracleView::FromBuffer).
StatusOr<SeOracle> MaterializeSeOracle(std::string_view flat_blob);

// ---------------------------------------------------------------------------
// File round-trips.
// ---------------------------------------------------------------------------

Status SaveSeOracleFlat(const SeOracle& oracle, const std::string& path);

/// Reads a flat file and materializes it into an owning SeOracle. Any other
/// file is an InvalidArgument naming the path (with a rebuild hint for the
/// retired "SEOR" stream format).
StatusOr<SeOracle> LoadSeOracle(const std::string& path);

}  // namespace tso

#endif  // TSO_ORACLE_ORACLE_SERDE_H_
