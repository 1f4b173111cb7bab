#ifndef SPCUBE_CORE_SP_CUBE_TASKS_H_
#define SPCUBE_CORE_SP_CUBE_TASKS_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "cube/aggregate.h"
#include "cube/group_key.h"
#include "mapreduce/api.h"
#include "sketch/sp_sketch.h"

namespace spcube {

/// Tunable behaviour of the cube round; the defaults are the paper's
/// algorithm, the flags exist for the ablation benchmarks (DESIGN.md §5).
struct SpCubeTuning {
  /// Partially aggregate skewed c-groups in the mapper (paper §3.2). When
  /// off, each occurrence ships one singleton partial state instead.
  bool aggregate_skews_in_mapper = true;

  /// Emit a tuple only for its BFS-minimal non-skewed groups and let the
  /// reducer derive owned ancestors via BUC (Observation 2.6). When off,
  /// every non-skewed group is emitted and reducers aggregate only the
  /// received group itself.
  bool emit_minimal_groups_only = true;
};

/// Round-2 partitioner (paper §3.3): skewed-group keys go to the dedicated
/// skew reducer (partition 0); other keys go to 1 + their cuboid's range
/// partition, derived from the sketch's partition elements. Reduce
/// partitions therefore number k+1.
class SketchRangePartitioner : public Partitioner {
 public:
  explicit SketchRangePartitioner(std::shared_ptr<const SpSketch> sketch)
      : sketch_(std::move(sketch)) {}

  int Partition(std::string_view key, int num_reducers) const override;

 private:
  std::shared_ptr<const SpSketch> sketch_;
};

/// Ablation variant: skewed keys still meet at partition 0, but non-skewed
/// keys are hash-partitioned (ignoring the sketch's partition elements).
class SkewAwareHashPartitioner : public Partitioner {
 public:
  explicit SkewAwareHashPartitioner(std::shared_ptr<const SpSketch> sketch)
      : sketch_(std::move(sketch)) {}

  int Partition(std::string_view key, int num_reducers) const override;

 private:
  std::shared_ptr<const SpSketch> sketch_;
};

/// Round-2 map task (paper Algorithm 3, map side). Walks each tuple's
/// lattice bottom-up in BFS order: skewed groups are folded into a local
/// partial-aggregate table; the first (minimal) non-skewed groups are
/// emitted with the full tuple as payload, and their ancestors are skipped
/// via the marking rule. Finish() flushes the skew partials.
class SpCubeMapper : public Mapper {
 public:
  /// Reads the serialized sketch from the DFS at `sketch_path` during
  /// Setup, mirroring the paper's broadcast-and-cache. `num_dims` lets the
  /// task build an empty fallback sketch if the broadcast is corrupted.
  SpCubeMapper(std::string sketch_path, int num_dims, AggregateKind aggregate,
               SpCubeTuning tuning)
      : sketch_path_(std::move(sketch_path)),
        num_dims_(num_dims),
        aggregate_(aggregate),
        tuning_(tuning) {}

  Status Setup(const TaskContext& task) override;
  Status Map(const RelationView& input, int64_t row,
             MapContext& context) override;
  Status Finish(MapContext& context) override;

 private:
  std::string sketch_path_;
  int num_dims_;
  AggregateKind aggregate_;
  SpCubeTuning tuning_;

  std::unique_ptr<const SpSketch> sketch_;
  bool degraded_ = false;
  std::unordered_map<GroupKey, AggState, GroupKeyHash> skew_partials_;
  std::vector<CuboidMask> emitted_masks_;  // per-tuple scratch
  ByteWriter key_writer_;                  // reusable emit encode buffers
  ByteWriter value_writer_;

  // Batched user counters, published in Finish (see JobMetrics).
  int64_t nodes_visited_ = 0;
  int64_t nodes_marked_ = 0;
  int64_t skew_adds_ = 0;
  int64_t minimal_emits_ = 0;
};

/// Round-2 reduce task (paper Algorithm 3, reduce side). Partition 0 merges
/// the mappers' partial aggregates of skewed groups; partitions 1..k receive
/// (group, tuple-set) pairs and run BUC locally to produce the group and
/// every ancestor group it owns under the sketch's ownership rule.
class SpCubeReducer : public Reducer {
 public:
  /// `min_count` > 1 applies the iceberg filter (count aggregate only).
  SpCubeReducer(std::string sketch_path, int num_dims,
                AggregateKind aggregate, SpCubeTuning tuning,
                int64_t min_count = 1)
      : sketch_path_(std::move(sketch_path)),
        num_dims_(num_dims),
        aggregate_(aggregate),
        tuning_(tuning),
        min_count_(min_count) {}

  Status Setup(const TaskContext& task) override;
  Status Reduce(const std::string& key, ValueStream& values,
                ReduceContext& context) override;
  Status Finish(ReduceContext& context) override;

 private:
  Status ReduceSkewedGroup(const GroupKey& group, ValueStream& values,
                           ReduceContext& context);
  Status ReduceRangeGroup(const GroupKey& group, ValueStream& values,
                          ReduceContext& context);

  std::string sketch_path_;
  int num_dims_;
  AggregateKind aggregate_;
  SpCubeTuning tuning_;
  int64_t min_count_ = 1;

  std::unique_ptr<const SpSketch> sketch_;
  bool is_skew_reducer_ = false;
  bool degraded_ = false;
  ByteWriter key_writer_;  // reusable output encode buffers
  ByteWriter value_writer_;
};

/// Loads and deserializes a sketch previously published to the DFS.
Result<std::unique_ptr<const SpSketch>> LoadSketch(
    DistributedFileSystem* dfs, const std::string& path);

/// Fault-tolerant sketch load used by every round-2 participant (driver,
/// mappers, reducers). Transient DFS read errors are retried; a sketch that
/// fails validation (Status::Corruption) degrades to an *empty* sketch of
/// the given shape and sets `*degraded`. Corruption is a deterministic
/// property of the stored bytes, so every participant degrades (or none
/// does) and they keep a consistent view: with no skews and no partition
/// elements the cube is still computed exactly, just without the paper's
/// balancing (see docs/INTERNALS.md "Failure semantics"). Other errors
/// (e.g. NotFound) propagate.
Result<std::unique_ptr<const SpSketch>> LoadSketchOrDegrade(
    DistributedFileSystem* dfs, const std::string& path, int num_dims,
    int num_partitions, bool* degraded);

}  // namespace spcube

#endif  // SPCUBE_CORE_SP_CUBE_TASKS_H_
