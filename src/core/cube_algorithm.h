#ifndef SPCUBE_CORE_CUBE_ALGORITHM_H_
#define SPCUBE_CORE_CUBE_ALGORITHM_H_

#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "cube/aggregate.h"
#include "cube/cube_result.h"
#include "mapreduce/engine.h"
#include "mapreduce/metrics.h"
#include "relation/relation.h"

namespace spcube {

/// Output of one cube computation: the metrics of every MapReduce round and,
/// when collection was requested, the materialized cube.
struct CubeRunOutput {
  RunMetrics metrics;
  /// Present iff CubeRunOptions::collect_output; benchmark runs skip
  /// materialization to keep host memory flat while counters still flow.
  std::unique_ptr<CubeResult> cube;
};

struct CubeRunOptions {
  AggregateKind aggregate = AggregateKind::kCount;
  bool collect_output = true;

  /// Iceberg-cube extension: when > 1, only c-groups whose tuple-set
  /// cardinality reaches this threshold are output (Beyer & Ramakrishnan's
  /// iceberg setting; the paper computes full cubes but builds on BUC,
  /// which exists for exactly this pruning). Requires the count aggregate:
  /// the threshold is defined on group cardinality.
  int64_t iceberg_min_count = 1;

  /// When non-empty, the final cube is also written to the engine's DFS
  /// under this root in the paper's layout (one directory per cuboid, one
  /// part file per reducer); read it back with ReadCubeFromDfs.
  std::string dfs_output_root;
};

/// Validates an options combination (e.g. iceberg requires count).
Status ValidateCubeRunOptions(const CubeRunOptions& options);

/// Common driver interface of the four algorithms under study: SP-Cube
/// (core/), and the Naive / MR-Cube (Pig) / Hive baselines (baselines/).
class CubeAlgorithm {
 public:
  virtual ~CubeAlgorithm() = default;

  virtual std::string name() const = 0;

  /// Runs the algorithm's MapReduce round(s) on `engine` over `input`.
  virtual Result<CubeRunOutput> Run(Engine& engine, const Relation& input,
                                    const CubeRunOptions& options) = 0;
};

/// The wire format shared by all algorithms' reduce outputs: key is an
/// encoded GroupKey, value a little-endian double. CubeCollector
/// (core/cube_output.h) is the one sink that decodes it.
std::string EncodeCubeValue(double value);
/// Encodes into a caller-owned writer (cleared first) and returns a view of
/// the encoding — the allocation-free variant for reducer emit loops.
std::string_view EncodeCubeValueTo(double value, ByteWriter& writer);
Result<double> DecodeCubeValue(std::string_view bytes);

/// The iceberg keep-test (CubeRunOptions::iceberg_min_count): whether a
/// cell whose merged state is `state` is output. Thresholds apply to the
/// count aggregate only, where v0 is the group's cardinality.
inline bool KeepsIcebergCell(AggregateKind kind, int64_t min_count,
                             const AggState& state) {
  return min_count <= 1 || kind != AggregateKind::kCount ||
         state.v0 >= min_count;
}

/// Decodes one encoded AggState and merges it into `*total` — the per-value
/// step of every combiner and reduce-side state merge.
Status MergeEncodedState(const Aggregator& agg, std::string_view encoded,
                         AggState* total);

/// Merges every encoded AggState of one reduce group, starting from
/// agg.Empty().
Result<AggState> MergeStates(const Aggregator& agg, ValueStream& values);

/// The RecoverySpec shared by every cube job whose reduce output follows
/// the wire format above (encoded GroupKey -> encoded double, one record
/// per cell per partition). Splitting is enabled for the distributive
/// aggregates — count/sum merge by addition, min/max by min/max over the
/// partial final doubles — and rejected with an explanatory reason for avg
/// (the finalized quotient is not mergeable) and for iceberg thresholds
/// above 1 (a threshold on sub-partition partial counts would mis-filter).
/// See docs/INTERNALS.md §11 for the legality argument.
RecoverySpec MakeCubeRecoverySpec(AggregateKind kind,
                                  int64_t iceberg_min_count);

}  // namespace spcube

#endif  // SPCUBE_CORE_CUBE_ALGORITHM_H_
