#include "core/sp_cube_tasks.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/logging.h"
#include "core/cube_algorithm.h"
#include "cube/buc.h"
#include "relation/tuple_codec.h"
#include "sketch/builder.h"

namespace spcube {
namespace {

Result<GroupKey> DecodeGroupKey(std::string_view bytes) {
  ByteReader reader(bytes);
  GroupKey key;
  SPCUBE_RETURN_IF_ERROR(GroupKey::DecodeFrom(reader, &key));
  return key;
}

/// Encodes into a caller-owned writer (cleared first); the returned view is
/// valid until the writer's next Clear. Emit copies the bytes into the
/// shuffle arena before returning, so one reusable writer per task suffices
/// — no per-emit string.
std::string_view EncodeGroupKey(const GroupKey& key, ByteWriter& writer) {
  writer.Clear();
  key.EncodeTo(writer);
  return writer.data();
}

}  // namespace

Result<std::unique_ptr<const SpSketch>> LoadSketch(
    DistributedFileSystem* dfs, const std::string& path) {
  if (dfs == nullptr) {
    return Status::FailedPrecondition("task has no DFS to load sketch from");
  }
  SPCUBE_ASSIGN_OR_RETURN(std::string bytes, dfs->Read(path));
  SPCUBE_ASSIGN_OR_RETURN(SpSketch sketch, SpSketch::Deserialize(bytes));
  return {std::make_unique<const SpSketch>(std::move(sketch))};
}

Result<std::unique_ptr<const SpSketch>> LoadSketchOrDegrade(
    DistributedFileSystem* dfs, const std::string& path, int num_dims,
    int num_partitions, bool* degraded) {
  *degraded = false;
  constexpr int kMaxLoadAttempts = 3;
  Status last_error = Status::OK();
  for (int attempt = 0; attempt < kMaxLoadAttempts; ++attempt) {
    auto loaded = LoadSketch(dfs, path);
    if (loaded.ok()) return loaded;
    last_error = loaded.status();
    if (last_error.code() == StatusCode::kCorruption) {
      // The stored bytes themselves are bad (or persistently corrupted in
      // flight): every participant sees the same verdict. Fall back to an
      // empty sketch — no skews, no partition elements — which computes the
      // cube exactly, only without skew handling or range balancing.
      SPCUBE_LOG(Warning) << "sketch at '" << path
                          << "' failed validation (" << last_error.message()
                          << "); degrading to hash partitioning";
      *degraded = true;
      return {std::make_unique<const SpSketch>(num_dims,
                                               std::max(1, num_partitions))};
    }
    if (!last_error.IsIoError()) break;  // NotFound etc.: not retryable.
  }
  return last_error;
}

int SketchRangePartitioner::Partition(std::string_view key,
                                      int num_reducers) const {
  auto decoded = DecodeGroupKey(key);
  if (!decoded.ok()) return 0;  // Corrupt keys cannot occur within the job.
  if (sketch_->IsSkewedKey(*decoded)) return 0;
  const int partition = sketch_->PartitionOfKey(*decoded);
  // Partitions are 0..k-1; reducers 1..k (0 is the skew reducer).
  return 1 + (partition % (num_reducers - 1));
}

int SkewAwareHashPartitioner::Partition(std::string_view key,
                                        int num_reducers) const {
  auto decoded = DecodeGroupKey(key);
  if (!decoded.ok()) return 0;
  if (sketch_->IsSkewedKey(*decoded)) return 0;
  return 1 + static_cast<int>(decoded->Hash() %
                              static_cast<uint64_t>(num_reducers - 1));
}

Status SpCubeMapper::Setup(const TaskContext& task) {
  SPCUBE_ASSIGN_OR_RETURN(
      sketch_, LoadSketchOrDegrade(task.dfs, sketch_path_, num_dims_,
                                   std::max(1, task.num_reducers - 1),
                                   &degraded_));
  return Status::OK();
}

Status SpCubeMapper::Map(const RelationView& input, int64_t row,
                         MapContext& context) {
  const Relation::RowRef tuple = input.row(row);
  const int64_t measure = input.measure(row);
  const Aggregator& agg = GetAggregator(aggregate_);

  emitted_masks_.clear();
  for (const CuboidMask mask : sketch_->MasksBfs()) {
    // Marking rule (Algorithm 3 lines 5/12): skip any group with an
    // already-emitted descendant — its reducer will derive it locally.
    bool marked = false;
    for (const CuboidMask emitted : emitted_masks_) {
      if (IsSubsetMask(emitted, mask)) {
        marked = true;
        break;
      }
    }
    if (marked) {
      ++nodes_marked_;
      continue;
    }
    ++nodes_visited_;

    if (sketch_->IsSkewedTuple(mask, tuple)) {
      // Skewed c-group: aggregate locally (lines 6-8). Skews are closed
      // downward, so no emitted descendant can exist and none is marked.
      GroupKey key = GroupKey::Project(mask, tuple);
      ++skew_adds_;
      if (tuning_.aggregate_skews_in_mapper) {
        agg.Add(skew_partials_[std::move(key)], measure);
      } else {
        // Ablation: ship one singleton partial per occurrence.
        AggState single = agg.Empty();
        agg.Add(single, measure);
        value_writer_.Clear();
        single.EncodeTo(value_writer_);
        SPCUBE_RETURN_IF_ERROR(context.Emit(EncodeGroupKey(key, key_writer_),
                                            value_writer_.data()));
      }
      continue;
    }

    // Minimal non-skewed group: ship the tuple to its range reducer
    // (lines 9-12) and mark all ancestors.
    const GroupKey key = GroupKey::Project(mask, tuple);
    ++minimal_emits_;
    value_writer_.Clear();
    EncodeTupleTo(value_writer_, tuple, measure);
    SPCUBE_RETURN_IF_ERROR(context.Emit(EncodeGroupKey(key, key_writer_),
                                        value_writer_.data()));
    if (tuning_.emit_minimal_groups_only) {
      emitted_masks_.push_back(mask);
    }
    // else: ablation — no marking, every non-skewed group is emitted.
  }
  return Status::OK();
}

Status SpCubeMapper::Finish(MapContext& context) {
  // Ship the per-mapper partial aggregates of skewed groups (lines 16-20);
  // the partitioner routes them to the skew reducer. Emitted in key order,
  // not hash-table order: the emitted sequence reaches spill runs and the
  // shuffle wire, and modeled bytes must not depend on the hash function
  // or insertion history (docs/INTERNALS.md §14).
  std::vector<std::pair<const GroupKey*, const AggState*>> ordered;
  ordered.reserve(skew_partials_.size());
  for (const auto& entry : skew_partials_) {
    ordered.emplace_back(&entry.first, &entry.second);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  for (const auto& [key, state] : ordered) {
    value_writer_.Clear();
    state->EncodeTo(value_writer_);
    SPCUBE_RETURN_IF_ERROR(context.Emit(EncodeGroupKey(*key, key_writer_),
                                        value_writer_.data()));
  }
  skew_partials_.clear();
  context.IncrementCounter("spcube.lattice_nodes_visited", nodes_visited_);
  context.IncrementCounter("spcube.lattice_nodes_marked", nodes_marked_);
  context.IncrementCounter("spcube.skew_tuple_aggregations", skew_adds_);
  context.IncrementCounter("spcube.minimal_group_emits", minimal_emits_);
  if (degraded_) {
    context.IncrementCounter("spcube.sketch_degraded_fallbacks", 1);
  }
  nodes_visited_ = nodes_marked_ = skew_adds_ = minimal_emits_ = 0;
  return Status::OK();
}

Status SpCubeReducer::Setup(const TaskContext& task) {
  SPCUBE_ASSIGN_OR_RETURN(
      sketch_, LoadSketchOrDegrade(task.dfs, sketch_path_, num_dims_,
                                   std::max(1, task.num_reducers - 1),
                                   &degraded_));
  is_skew_reducer_ = task.reduce_partition == 0;
  return Status::OK();
}

Status SpCubeReducer::Finish(ReduceContext& context) {
  if (degraded_) {
    context.IncrementCounter("spcube.sketch_degraded_fallbacks", 1);
  }
  return Status::OK();
}

Status SpCubeReducer::Reduce(const std::string& key, ValueStream& values,
                             ReduceContext& context) {
  SPCUBE_ASSIGN_OR_RETURN(GroupKey group, DecodeGroupKey(key));
  if (is_skew_reducer_) {
    return ReduceSkewedGroup(group, values, context);
  }
  return ReduceRangeGroup(group, values, context);
}

Status SpCubeReducer::ReduceSkewedGroup(const GroupKey& group,
                                        ValueStream& values,
                                        ReduceContext& context) {
  // Merge at most k partial states (one per mapper; more under the
  // no-mapper-aggregation ablation).
  const Aggregator& agg = GetAggregator(aggregate_);
  SPCUBE_ASSIGN_OR_RETURN(AggState total, MergeStates(agg, values));
  if (!KeepsIcebergCell(aggregate_, min_count_, total)) return Status::OK();
  return context.Output(EncodeGroupKey(group, key_writer_),
                        EncodeCubeValueTo(agg.Finalize(total), value_writer_));
}

Status SpCubeReducer::ReduceRangeGroup(const GroupKey& group,
                                       ValueStream& values,
                                       ReduceContext& context) {
  const Aggregator& agg = GetAggregator(aggregate_);

  if (!tuning_.emit_minimal_groups_only) {
    // Ablation mode: every non-skewed group was shipped explicitly, so just
    // aggregate this group's tuples, streaming.
    AggState state = agg.Empty();
    std::string value;
    std::vector<int64_t> dims;
    int64_t measure = 0;
    for (;;) {
      SPCUBE_ASSIGN_OR_RETURN(bool more, values.Next(&value));
      if (!more) break;
      SPCUBE_RETURN_IF_ERROR(DecodeTuple(value, &dims, &measure));
      agg.Add(state, measure);
    }
    if (!KeepsIcebergCell(aggregate_, min_count_, state)) return Status::OK();
    return context.Output(
        EncodeGroupKey(group, key_writer_),
        EncodeCubeValueTo(agg.Finalize(state), value_writer_));
  }

  // Materialize set(group) — O(m) w.h.p. by Prop. 4.6 — then compute the
  // group and every ancestor it owns with local BUC (Observation 2.6).
  Relation local(MakeAnonymousSchema(num_dims_));
  SPCUBE_RETURN_IF_ERROR(AppendTupleGroup(values, &local));

  int64_t owned = 0;
  int64_t rejected = 0;
  Status status = Status::OK();
  BucOptions buc_options;
  // Iceberg pruning composes with BUC natively: partitions below the
  // threshold are neither reported nor expanded.
  if (min_count_ > 1 && aggregate_ == AggregateKind::kCount) {
    buc_options.min_support = min_count_;
  }
  BucCompute(RelationView(local), group.mask, agg, buc_options,
             [&](const GroupKey& ancestor, const AggState& state) {
               if (!status.ok()) return;
               if (!KeepsIcebergCell(aggregate_, min_count_, state)) return;
               // Ownership rule (§5.1): compute an ancestor here only if
               // this group is its BFS-smallest non-skewed descendant;
               // otherwise another reducer (or the skew path) produces it.
               if (sketch_->OwnerMask(ancestor) != group.mask) {
                 ++rejected;
                 return;
               }
               ++owned;
               status = context.Output(
                   EncodeGroupKey(ancestor, key_writer_),
                   EncodeCubeValueTo(agg.Finalize(state), value_writer_));
             });
  context.IncrementCounter("spcube.owned_groups_output", owned);
  context.IncrementCounter("spcube.ownership_rejections", rejected);
  return status;
}

}  // namespace spcube
