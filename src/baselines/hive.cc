#include "baselines/hive.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/combiners.h"
#include "core/cube_output.h"
#include "common/bytes.h"
#include "cube/group_key.h"

namespace spcube {
namespace {

/// Approximate heap cost of one hash-aggregation entry (key vector + state
/// + table overhead), used against the configured hash budget.
int64_t EntryBytes(const GroupKey& key) {
  return static_cast<int64_t>(key.values.size() * sizeof(int64_t)) + 64;
}

/// Hive's map side: expand each row into its 2^d grouping-set projections
/// and aggregate them into a bounded hash; when the hash exceeds its budget,
/// flush every entry as a partial state and start over (Hive's flush-on-full
/// GroupByOperator behaviour).
class HiveMapper : public Mapper {
 public:
  HiveMapper(AggregateKind kind, double hash_fraction)
      : kind_(kind), hash_fraction_(hash_fraction) {}

  Status Setup(const TaskContext& task) override {
    hash_budget_bytes_ = static_cast<int64_t>(
        static_cast<double>(task.memory_budget_bytes) * hash_fraction_);
    return Status::OK();
  }

  Status Map(const RelationView& input, int64_t row,
             MapContext& context) override {
    const Aggregator& agg = GetAggregator(kind_);
    const auto tuple = input.row(row);
    const int64_t measure = input.measure(row);
    const CuboidMask num_masks =
        static_cast<CuboidMask>(NumCuboids(input.num_dims()));
    for (CuboidMask mask = 0; mask < num_masks; ++mask) {
      GroupKey key = GroupKey::Project(mask, tuple);
      auto [it, inserted] = hash_.try_emplace(std::move(key), agg.Empty());
      if (inserted) hash_bytes_ += EntryBytes(it->first);
      agg.Add(it->second, measure);
      if (hash_bytes_ > hash_budget_bytes_) {
        SPCUBE_RETURN_IF_ERROR(Flush(context));
      }
    }
    return Status::OK();
  }

  Status Finish(MapContext& context) override { return Flush(context); }

 private:
  Status Flush(MapContext& context) {
    // Key order, not hash-table order: flushed records reach spill runs
    // and the shuffle wire, and modeled bytes must not depend on the hash
    // function or insertion history (docs/INTERNALS.md §14).
    std::vector<std::pair<const GroupKey*, const AggState*>> ordered;
    ordered.reserve(hash_.size());
    for (const auto& entry : hash_) {
      ordered.emplace_back(&entry.first, &entry.second);
    }
    std::sort(ordered.begin(), ordered.end(), [](const auto& a,
                                                 const auto& b) {
      return *a.first < *b.first;
    });
    for (const auto& [key, state] : ordered) {
      key_writer_.Clear();
      key->EncodeTo(key_writer_);
      value_writer_.Clear();
      state->EncodeTo(value_writer_);
      SPCUBE_RETURN_IF_ERROR(
          context.Emit(key_writer_.data(), value_writer_.data()));
    }
    hash_.clear();
    hash_bytes_ = 0;
    return Status::OK();
  }

  AggregateKind kind_;
  double hash_fraction_;
  int64_t hash_budget_bytes_ = 0;
  int64_t hash_bytes_ = 0;
  std::unordered_map<GroupKey, AggState, GroupKeyHash> hash_;
  // Task-lifetime encode buffers reused across flushes (Emit copies the
  // bytes into the shuffle arena before returning).
  ByteWriter key_writer_;
  ByteWriter value_writer_;
};

}  // namespace

Result<CubeRunOutput> HiveCubeAlgorithm::Run(Engine& engine,
                                             const Relation& input,
                                             const CubeRunOptions& options) {
  SPCUBE_RETURN_IF_ERROR(ValidateCubeRunOptions(options));
  JobSpec spec;
  spec.name = "hive-cube";
  spec.mapper_factory = [kind = options.aggregate,
                         fraction = options_.map_hash_memory_fraction]() {
    return std::make_unique<HiveMapper>(kind, fraction);
  };
  spec.reducer_factory = [kind = options.aggregate,
                          min_count = options.iceberg_min_count]() {
    return std::make_unique<MergeStatesReducer>(kind, min_count);
  };
  spec.memory_policy = options_.strict_reducer_memory
                           ? MemoryPolicy::kStrict
                           : MemoryPolicy::kSpill;
  if (options_.strict_reducer_memory && options_.allow_split_recovery) {
    // Hive's reduce output follows the shared cube wire format (GroupKey ->
    // final double), so the generic split-recovery merge applies; avg and
    // iceberg thresholds are rejected with a reason, preserving the paper's
    // reducer-OOM failure mode for the non-distributive cases.
    spec.recovery =
        MakeCubeRecoverySpec(options.aggregate, options.iceberg_min_count);
  }
  return RunCubeJob(engine, spec, input, options, name());
}

}  // namespace spcube
