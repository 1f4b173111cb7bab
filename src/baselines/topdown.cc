#include "baselines/topdown.h"

#include <memory>

#include "baselines/combiners.h"
#include "core/cube_output.h"
#include "common/bytes.h"
#include "common/logging.h"
#include "cube/group_key.h"

namespace spcube {
namespace {

/// Encodes into a caller-owned writer (cleared first); Emit/Output copy the
/// bytes before returning, so one task-lifetime writer serves every emit.
std::string_view EncodeGroupKey(const GroupKey& key, ByteWriter& writer) {
  writer.Clear();
  key.EncodeTo(writer);
  return writer.data();
}

/// Round-1 map: project every tuple onto the base cuboid (all dimensions)
/// and ship a singleton state; combiners collapse duplicates.
class BaseCuboidMapper : public Mapper {
 public:
  explicit BaseCuboidMapper(AggregateKind kind) : kind_(kind) {}

  Status Map(const RelationView& input, int64_t row,
             MapContext& context) override {
    const Aggregator& agg = GetAggregator(kind_);
    AggState single = agg.Empty();
    agg.Add(single, input.measure(row));
    value_writer_.Clear();
    single.EncodeTo(value_writer_);
    const CuboidMask base =
        static_cast<CuboidMask>(NumCuboids(input.num_dims()) - 1);
    return context.Emit(
        EncodeGroupKey(GroupKey::Project(base, input.row(row)), key_writer_),
        value_writer_.data());
  }

 private:
  AggregateKind kind_;
  ByteWriter key_writer_;  // reused across emits; Emit copies the bytes
  ByteWriter value_writer_;
};

/// Level round map: each parent cell is projected onto the children this
/// parent is responsible for (those whose lowest missing bit the parent
/// supplies), shipping the parent's partial state.
class LevelMapper : public Mapper {
 public:
  explicit LevelMapper(int num_dims) : num_dims_(num_dims) {}

  Status MapRecord(const Record& record, MapContext& context) override {
    ByteReader reader(record.key);
    GroupKey parent;
    SPCUBE_RETURN_IF_ERROR(GroupKey::DecodeFrom(reader, &parent));

    // Expand values onto dimension positions once.
    std::vector<int64_t> expanded(static_cast<size_t>(num_dims_), 0);
    size_t vi = 0;
    for (int d = 0; d < num_dims_; ++d) {
      if ((parent.mask >> d) & 1) {
        expanded[static_cast<size_t>(d)] = parent.values[vi++];
      }
    }
    for (CuboidMask child : ImmediateDescendants(parent.mask)) {
      if (TopDownParent(child, num_dims_) != parent.mask) continue;
      SPCUBE_RETURN_IF_ERROR(context.Emit(
          EncodeGroupKey(GroupKey::Project(child, expanded), key_writer_),
          record.value));
    }
    return Status::OK();
  }

 private:
  int num_dims_;
  ByteWriter key_writer_;  // reused across emits; Emit copies the bytes
};

/// Merges partial states per group and re-emits (group, state) records —
/// the next round's input. Finalization happens in the driver.
class MergeToStateReducer : public Reducer {
 public:
  explicit MergeToStateReducer(AggregateKind kind) : kind_(kind) {}

  Status Reduce(const std::string& key, ValueStream& values,
                ReduceContext& context) override {
    SPCUBE_ASSIGN_OR_RETURN(AggState total,
                            MergeStates(GetAggregator(kind_), values));
    writer_.Clear();
    total.EncodeTo(writer_);
    return context.Output(key, writer_.data());
  }

 private:
  AggregateKind kind_;
  ByteWriter writer_;  // reused across Reduce calls; Output copies the bytes
};

}  // namespace

CuboidMask TopDownParent(CuboidMask mask, int num_dims) {
  for (int d = 0; d < num_dims; ++d) {
    const CuboidMask bit = CuboidMask{1} << d;
    if ((mask & bit) == 0) return mask | bit;
  }
  return mask;  // the base cuboid has no parent
}

Result<CubeRunOutput> TopDownCubeAlgorithm::Run(
    Engine& engine, const Relation& input, const CubeRunOptions& options) {
  SPCUBE_RETURN_IF_ERROR(ValidateCubeRunOptions(options));
  const int d = input.num_dims();
  const AggregateKind kind = options.aggregate;

  CubeRunOutput out;
  out.metrics.algorithm = name();
  const Aggregator& agg = GetAggregator(kind);
  CubeCollector cells(options, engine.dfs(), d);

  // Finalizes a level's kept states into `cells` (decoding nothing when no
  // cell is wanted) and returns the level as the next round's input.
  auto absorb = [&](const std::vector<VectorOutputCollector::Entry>& entries)
      -> Result<std::vector<Record>> {
    std::vector<Record> next_level;
    ByteWriter encode;
    for (const VectorOutputCollector::Entry& entry : entries) {
      if (cells.wants_cells()) {
        ByteReader reader(entry.value);
        AggState state;
        SPCUBE_RETURN_IF_ERROR(AggState::DecodeFrom(reader, &state));
        if (KeepsIcebergCell(kind, options.iceberg_min_count, state)) {
          SPCUBE_RETURN_IF_ERROR(
              cells.Collect(entry.reducer_id, entry.key,
                            EncodeCubeValueTo(agg.Finalize(state), encode)));
        }
      }
      next_level.push_back(Record{entry.key, entry.value});
    }
    return next_level;
  };

  // ---- Round 1: the base cuboid from the relation -------------------------
  std::vector<Record> level;
  {
    JobSpec spec;
    spec.name = "topdown-base";
    spec.mapper_factory = [kind]() {
      return std::make_unique<BaseCuboidMapper>(kind);
    };
    spec.reducer_factory = [kind]() {
      return std::make_unique<MergeToStateReducer>(kind);
    };
    spec.combiner = std::make_shared<AggStateCombiner>(kind);
    VectorOutputCollector collector;
    SPCUBE_ASSIGN_OR_RETURN(JobMetrics round,
                            engine.Run(spec, input, &collector));
    out.metrics.Add(std::move(round));
    SPCUBE_ASSIGN_OR_RETURN(level, absorb(collector.entries()));
  }

  // ---- Rounds 2..d+1: one lattice level per round --------------------------
  for (int round_level = d - 1; round_level >= 0; --round_level) {
    if (level.empty()) break;
    JobSpec spec;
    spec.name = "topdown-level" + std::to_string(round_level);
    spec.mapper_factory = [d]() {
      return std::make_unique<LevelMapper>(d);
    };
    spec.reducer_factory = [kind]() {
      return std::make_unique<MergeToStateReducer>(kind);
    };
    spec.combiner = std::make_shared<AggStateCombiner>(kind);
    VectorOutputCollector collector;
    SPCUBE_ASSIGN_OR_RETURN(JobMetrics round,
                            engine.RunRecords(spec, level, &collector));
    out.metrics.Add(std::move(round));
    SPCUBE_ASSIGN_OR_RETURN(level, absorb(collector.entries()));
  }

  out.cube = cells.TakeCube();
  return out;
}

}  // namespace spcube
