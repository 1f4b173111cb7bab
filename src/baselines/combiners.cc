#include "baselines/combiners.h"

#include "common/bytes.h"
#include "core/cube_algorithm.h"

namespace spcube {

Status AggStateCombiner::Fold(std::string_view acc, std::string_view value,
                              ByteWriter* out) const {
  const Aggregator& agg = GetAggregator(kind_);
  AggState total = agg.Empty();
  SPCUBE_RETURN_IF_ERROR(MergeEncodedState(agg, acc, &total));
  SPCUBE_RETURN_IF_ERROR(MergeEncodedState(agg, value, &total));
  total.EncodeTo(*out);
  return Status::OK();
}

Status MergeStatesReducer::Reduce(const std::string& key,
                                  ValueStream& values,
                                  ReduceContext& context) {
  const Aggregator& agg = GetAggregator(kind_);
  SPCUBE_ASSIGN_OR_RETURN(AggState total, MergeStates(agg, values));
  if (!KeepsIcebergCell(kind_, min_count_, total)) return Status::OK();
  return context.Output(key, EncodeCubeValue(agg.Finalize(total)));
}

}  // namespace spcube
