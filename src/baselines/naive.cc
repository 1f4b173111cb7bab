#include "baselines/naive.h"

#include <memory>

#include "baselines/combiners.h"
#include "core/cube_output.h"
#include "common/bytes.h"
#include "cube/group_key.h"

namespace spcube {
namespace {

/// Map side of Algorithm 1: emit (projection, singleton AggState) for every
/// lattice node of the tuple. Shipping a partial state rather than the raw
/// measure keeps one wire format for the combiner-on and combiner-off
/// variants; its size is equivalent (O(1) per pair).
class NaiveMapper : public Mapper {
 public:
  explicit NaiveMapper(AggregateKind kind) : kind_(kind) {}

  Status Map(const RelationView& input, int64_t row,
             MapContext& context) override {
    const Aggregator& agg = GetAggregator(kind_);
    const auto tuple = input.row(row);
    const int64_t measure = input.measure(row);
    const CuboidMask num_masks =
        static_cast<CuboidMask>(NumCuboids(input.num_dims()));
    for (CuboidMask mask = 0; mask < num_masks; ++mask) {
      key_writer_.Clear();
      GroupKey::Project(mask, tuple).EncodeTo(key_writer_);
      value_writer_.Clear();
      AggState single = agg.Empty();
      agg.Add(single, measure);
      single.EncodeTo(value_writer_);
      SPCUBE_RETURN_IF_ERROR(
          context.Emit(key_writer_.data(), value_writer_.data()));
    }
    return Status::OK();
  }

 private:
  AggregateKind kind_;
  // Task-lifetime encode buffers: Emit copies into the shuffle arena, so
  // reusing these across emits is safe and allocation-free.
  ByteWriter key_writer_;
  ByteWriter value_writer_;
};

}  // namespace

Result<CubeRunOutput> NaiveCubeAlgorithm::Run(Engine& engine,
                                              const Relation& input,
                                              const CubeRunOptions& options) {
  SPCUBE_RETURN_IF_ERROR(ValidateCubeRunOptions(options));
  JobSpec spec;
  spec.name = name();
  spec.mapper_factory = [kind = options.aggregate]() {
    return std::make_unique<NaiveMapper>(kind);
  };
  spec.reducer_factory = [kind = options.aggregate,
                          min_count = options.iceberg_min_count]() {
    return std::make_unique<MergeStatesReducer>(kind, min_count);
  };
  if (options_.use_combiner) {
    spec.combiner = std::make_shared<AggStateCombiner>(options.aggregate);
  }
  return RunCubeJob(engine, spec, input, options, name());
}

}  // namespace spcube
