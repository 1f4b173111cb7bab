#ifndef SPCUBE_BASELINES_COMBINERS_H_
#define SPCUBE_BASELINES_COMBINERS_H_

#include "cube/aggregate.h"
#include "mapreduce/api.h"

namespace spcube {

/// Hadoop-style combiner that merges buffered AggState values of one key
/// into a single partial state. Pig's cube operator leans on exactly this
/// mechanism for map-side pre-aggregation (paper §7: "the Pig framework adds
/// to the original algorithm the use of combiners").
class AggStateCombiner : public Combiner {
 public:
  explicit AggStateCombiner(AggregateKind kind) : kind_(kind) {}

  /// Decodes both states and writes the encoding of Empty() ⊕ acc ⊕ value,
  /// so a left fold over a key's states equals MergeStates over them.
  Status Fold(std::string_view acc, std::string_view value,
              ByteWriter* out) const override;

 private:
  AggregateKind kind_;
};

/// Reducer that stream-merges AggState values per key and outputs the
/// finalized double — the reduce side shared by the naive algorithm, the
/// Hive baseline and MR-Cube's post-aggregation round.
class MergeStatesReducer : public Reducer {
 public:
  /// `min_count` > 1 enables iceberg filtering: groups whose merged count
  /// falls below it are dropped (only meaningful for the count aggregate,
  /// which drivers validate).
  explicit MergeStatesReducer(AggregateKind kind, int64_t min_count = 1)
      : kind_(kind), min_count_(min_count) {}

  Status Reduce(const std::string& key, ValueStream& values,
                ReduceContext& context) override;

 private:
  AggregateKind kind_;
  int64_t min_count_;
};

}  // namespace spcube

#endif  // SPCUBE_BASELINES_COMBINERS_H_
