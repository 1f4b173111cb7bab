#include "baselines/mrcube.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "baselines/combiners.h"
#include "core/cube_output.h"
#include "common/bytes.h"
#include "common/hash.h"
#include "common/logging.h"
#include "cube/buc.h"
#include "cube/group_key.h"

namespace spcube {
namespace {

/// Round-2 shuffle key: encoded GroupKey followed by a varint sub-partition
/// id (always present; 0 in friendly cuboids).
std::string_view EncodeMrKeyTo(const GroupKey& key, uint64_t subpartition,
                               ByteWriter& writer) {
  writer.Clear();
  key.EncodeTo(writer);
  writer.PutVarint(subpartition);
  return writer.data();
}

Status DecodeMrKey(std::string_view bytes, GroupKey* key,
                   uint64_t* subpartition) {
  ByteReader reader(bytes);
  SPCUBE_RETURN_IF_ERROR(GroupKey::DecodeFrom(reader, key));
  SPCUBE_RETURN_IF_ERROR(reader.GetVarint(subpartition));
  if (!reader.AtEnd()) return Status::Corruption("trailing bytes in MR key");
  return Status::OK();
}

/// Round-2 map task: one (cuboid projection [+ sub-partition], singleton
/// state) pair per lattice node of every tuple — n * 2^d pre-combine pairs,
/// the behaviour whose cost the paper's Figures 4c/6b/7c expose.
class MrCubeMapper : public Mapper {
 public:
  MrCubeMapper(std::string annotations_path, AggregateKind kind)
      : annotations_path_(std::move(annotations_path)), kind_(kind) {}

  Status Setup(const TaskContext& task) override {
    if (task.dfs == nullptr) {
      return Status::FailedPrecondition("mapper has no DFS");
    }
    SPCUBE_ASSIGN_OR_RETURN(std::string bytes,
                            task.dfs->Read(annotations_path_));
    SPCUBE_ASSIGN_OR_RETURN(annotations_,
                            MrCubeAnnotations::Deserialize(bytes));
    worker_id_ = task.worker_id;
    return Status::OK();
  }

  Status Map(const RelationView& input, int64_t row,
             MapContext& context) override {
    const Aggregator& agg = GetAggregator(kind_);
    const auto tuple = input.row(row);
    AggState single = agg.Empty();
    agg.Add(single, input.measure(row));
    value_writer_.Clear();
    single.EncodeTo(value_writer_);

    const CuboidMask num_masks =
        static_cast<CuboidMask>(NumCuboids(input.num_dims()));
    ++local_row_;
    for (CuboidMask mask = 0; mask < num_masks; ++mask) {
      const int32_t factor = annotations_.partition_factor[mask];
      // Value partitioning: identical tuples must scatter, so the
      // sub-partition comes from the mapper-local row counter, never from
      // the tuple's content.
      const uint64_t sub =
          factor <= 1
              ? 0
              : Mix64((static_cast<uint64_t>(worker_id_) << 40) ^
                      static_cast<uint64_t>(local_row_)) %
                    static_cast<uint64_t>(factor);
      SPCUBE_RETURN_IF_ERROR(context.Emit(
          EncodeMrKeyTo(GroupKey::Project(mask, tuple), sub, key_writer_),
          value_writer_.data()));
    }
    return Status::OK();
  }

 private:
  std::string annotations_path_;
  AggregateKind kind_;
  MrCubeAnnotations annotations_;
  int worker_id_ = 0;
  int64_t local_row_ = 0;
  // Task-lifetime encode buffers: Emit copies into the shuffle arena.
  ByteWriter key_writer_;
  ByteWriter value_writer_;
};

/// Round-2 reduce task: merge the (combined) partial states per key. For a
/// friendly cuboid the result is final; for a partitioned cuboid it is a
/// partial state the post-aggregation round recombines.
class MrCubeReducer : public Reducer {
 public:
  MrCubeReducer(std::string annotations_path, AggregateKind kind,
                int64_t min_count)
      : annotations_path_(std::move(annotations_path)),
        kind_(kind),
        min_count_(min_count) {}

  Status Setup(const TaskContext& task) override {
    if (task.dfs == nullptr) {
      return Status::FailedPrecondition("reducer has no DFS");
    }
    SPCUBE_ASSIGN_OR_RETURN(std::string bytes,
                            task.dfs->Read(annotations_path_));
    SPCUBE_ASSIGN_OR_RETURN(annotations_,
                            MrCubeAnnotations::Deserialize(bytes));
    return Status::OK();
  }

  Status Reduce(const std::string& key, ValueStream& values,
                ReduceContext& context) override {
    GroupKey group;
    uint64_t sub = 0;
    SPCUBE_RETURN_IF_ERROR(DecodeMrKey(key, &group, &sub));
    const Aggregator& agg = GetAggregator(kind_);
    SPCUBE_ASSIGN_OR_RETURN(AggState total, MergeStates(agg, values));
    key_writer_.Clear();
    group.EncodeTo(key_writer_);
    value_writer_.Clear();
    if (annotations_.partition_factor[group.mask] <= 1) {
      // Final value for a friendly cuboid; apply the iceberg filter here.
      // Partitioned cuboids carry partial states onward unfiltered — the
      // post-aggregation round filters after the full merge.
      if (!KeepsIcebergCell(kind_, min_count_, total)) return Status::OK();
      value_writer_.PutDouble(agg.Finalize(total));
      return context.Output(key_writer_.data(), value_writer_.data());
    }
    total.EncodeTo(value_writer_);
    return context.Output(key_writer_.data(), value_writer_.data());
  }

 private:
  std::string annotations_path_;
  AggregateKind kind_;
  int64_t min_count_;
  MrCubeAnnotations annotations_;
  // Task-lifetime encode buffers (Output copies before returning).
  ByteWriter key_writer_;
  ByteWriter value_writer_;
};

/// Round-3 map task: identity over the partial records of partitioned
/// cuboids.
class IdentityRecordMapper : public Mapper {
 public:
  Status MapRecord(const Record& record, MapContext& context) override {
    return context.Emit(record.key, record.value);
  }
};

/// Round-2 output sink. Friendly cuboids' cells are final and go straight
/// to the cube; partitioned cuboids' partial states are kept, copied once,
/// as the post-aggregation round's input. The engine delivers a round's
/// output on the calling thread (FoldRound), so no lock is needed.
class Round2Router : public OutputCollector {
 public:
  Round2Router(const MrCubeAnnotations* annotations, OutputCollector* cells,
               std::vector<Record>* partials)
      : annotations_(annotations), cells_(cells), partials_(partials) {}

  Status Collect(int reducer_id, std::string_view key,
                 std::string_view value) override {
    // An encoded GroupKey starts with its cuboid mask.
    ByteReader reader(key);
    uint64_t mask = 0;
    SPCUBE_RETURN_IF_ERROR(reader.GetVarint(&mask));
    if (mask >= annotations_->partition_factor.size()) {
      return Status::Corruption("round-2 cell's cuboid is outside the lattice");
    }
    if (annotations_->partition_factor[mask] <= 1) {
      return cells_->Collect(reducer_id, key, value);
    }
    partials_->push_back(Record{std::string(key), std::string(value)});
    return Status::OK();
  }

  /// An upper bound: friendly cells are not kept here.
  void Reserve(int64_t records) override {
    partials_->reserve(partials_->size() + static_cast<size_t>(records));
  }

 private:
  const MrCubeAnnotations* annotations_;
  OutputCollector* cells_;
  std::vector<Record>* partials_;
};

}  // namespace

Status MrCubeAnnotateReducer::Setup(const TaskContext& task) {
  dfs_ = task.dfs;
  return Status::OK();
}

Status MrCubeAnnotateReducer::Reduce(const std::string& key,
                                     ValueStream& values,
                                     ReduceContext& /*context*/) {
  if (key != kSampleKey) {
    return Status::Internal("unexpected key in annotate round: " + key);
  }
  return AppendTupleGroup(values, &sample_);
}

Status MrCubeAnnotateReducer::Finish(ReduceContext& context) {
  const double alpha = config_.SampleAlpha(total_rows_);
  const double beta = config_.SkewBeta(total_rows_);
  const int64_t m = config_.EffectiveM(total_rows_);

  // Largest estimated group per cuboid, via an iceberg BUC over the
  // sample (groups below the skew threshold never force partitioning).
  std::vector<int64_t> largest(static_cast<size_t>(NumCuboids(num_dims_)),
                               0);
  BucOptions options;
  options.min_support = static_cast<int64_t>(std::floor(beta)) + 1;
  BucComputeFull(sample_, GetAggregator(AggregateKind::kCount), options,
                 [&](const GroupKey& key, const AggState& state) {
                   const int64_t estimate = static_cast<int64_t>(
                       static_cast<double>(state.v0) / alpha);
                   largest[key.mask] = std::max(largest[key.mask], estimate);
                 });

  MrCubeAnnotations annotations;
  annotations.num_dims = num_dims_;
  annotations.partition_factor.resize(largest.size(), 1);
  for (size_t mask = 0; mask < largest.size(); ++mask) {
    if (largest[mask] > m) {
      annotations.partition_factor[mask] = static_cast<int32_t>(
          std::min<int64_t>(1 + (largest[mask] - 1) / m, 1 << 16));
    }
  }
  if (dfs_ == nullptr) {
    return Status::FailedPrecondition("annotate reducer has no DFS");
  }
  SPCUBE_RETURN_IF_ERROR(dfs_->Overwrite(dfs_path_, annotations.Serialize()));
  return context.Output("annotations", std::to_string(largest.size()));
}

std::string MrCubeAnnotations::Serialize() const {
  ByteWriter writer;
  writer.PutVarint(static_cast<uint64_t>(num_dims));
  writer.PutVarint(partition_factor.size());
  for (int32_t f : partition_factor) writer.PutVarint(static_cast<uint64_t>(f));
  return writer.TakeData();
}

Result<MrCubeAnnotations> MrCubeAnnotations::Deserialize(
    std::string_view bytes) {
  ByteReader reader(bytes);
  MrCubeAnnotations out;
  uint64_t num_dims = 0;
  uint64_t count = 0;
  SPCUBE_RETURN_IF_ERROR(reader.GetVarint(&num_dims));
  SPCUBE_RETURN_IF_ERROR(reader.GetVarint(&count));
  if (num_dims < 1 || num_dims > static_cast<uint64_t>(kMaxDims)) {
    return Status::Corruption("annotation num_dims out of range");
  }
  out.num_dims = static_cast<int>(num_dims);
  if (count != static_cast<uint64_t>(NumCuboids(out.num_dims))) {
    return Status::Corruption("annotation count does not match 2^d");
  }
  out.partition_factor.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t f = 0;
    SPCUBE_RETURN_IF_ERROR(reader.GetVarint(&f));
    out.partition_factor.push_back(static_cast<int32_t>(f));
  }
  return out;
}

Result<CubeRunOutput> MrCubeAlgorithm::Run(Engine& engine,
                                           const Relation& input,
                                           const CubeRunOptions& options) {
  SPCUBE_RETURN_IF_ERROR(ValidateCubeRunOptions(options));
  const int k = engine.config().num_workers;
  const int64_t n = input.num_rows();

  const SketchBuildConfig sampling = options_.sampling.ResolvedFor(k, n);

  const std::string annotations_path =
      "mrcube/annotations/run_" + std::to_string(run_counter_++);

  CubeRunOutput out;
  out.metrics.algorithm = name();

  // ---- Round 1: sample & annotate the lattice -----------------------------
  {
    const double alpha = sampling.SampleAlpha(n);
    JobSpec spec;
    spec.name = "mrcube-sample";
    spec.num_reducers = 1;
    spec.mapper_factory = [alpha, seed = sampling.seed]() {
      return std::make_unique<SketchSampleMapper>(alpha, seed);
    };
    spec.reducer_factory = [num_dims = input.num_dims(), n, sampling,
                            annotations_path]() {
      return std::make_unique<MrCubeAnnotateReducer>(num_dims, n, sampling,
                                                     annotations_path);
    };
    NullOutputCollector sink;
    SPCUBE_ASSIGN_OR_RETURN(JobMetrics round, engine.Run(spec, input, &sink));
    out.metrics.Add(std::move(round));
  }

  SPCUBE_ASSIGN_OR_RETURN(std::string annotation_bytes,
                          engine.dfs()->ReadWithRetry(annotations_path));
  SPCUBE_ASSIGN_OR_RETURN(MrCubeAnnotations annotations,
                          MrCubeAnnotations::Deserialize(annotation_bytes));
  last_unfriendly_ = 0;
  for (int32_t f : annotations.partition_factor) {
    if (f > 1) ++last_unfriendly_;
  }

  // ---- Round 2: materialize the cube --------------------------------------
  CubeCollector cells(options, engine.dfs(), input.num_dims());
  std::vector<Record> partials;
  {
    JobSpec spec;
    spec.name = "mrcube-materialize";
    spec.mapper_factory = [annotations_path, kind = options.aggregate]() {
      return std::make_unique<MrCubeMapper>(annotations_path, kind);
    };
    spec.reducer_factory = [annotations_path, kind = options.aggregate,
                            min_count = options.iceberg_min_count]() {
      return std::make_unique<MrCubeReducer>(annotations_path, kind,
                                             min_count);
    };
    spec.combiner = std::make_shared<AggStateCombiner>(options.aggregate);
    Round2Router router(&annotations, &cells, &partials);
    SPCUBE_ASSIGN_OR_RETURN(JobMetrics round,
                            engine.Run(spec, input, &router));
    out.metrics.Add(std::move(round));
  }

  // ---- Round 3: post-aggregate value-partitioned groups -------------------
  if (!partials.empty()) {
    JobSpec spec;
    spec.name = "mrcube-postagg";
    spec.mapper_factory = []() {
      return std::make_unique<IdentityRecordMapper>();
    };
    spec.reducer_factory = [kind = options.aggregate,
                            min_count = options.iceberg_min_count]() {
      return std::make_unique<MergeStatesReducer>(kind, min_count);
    };
    spec.combiner = std::make_shared<AggStateCombiner>(options.aggregate);
    SPCUBE_ASSIGN_OR_RETURN(JobMetrics round,
                            engine.RunRecords(spec, partials, &cells));
    out.metrics.Add(std::move(round));
  }
  out.cube = cells.TakeCube();
  return out;
}

}  // namespace spcube
