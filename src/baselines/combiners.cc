#include "baselines/combiners.h"

#include "common/bytes.h"
#include "core/cube_algorithm.h"

namespace spcube {

Status AggStateCombiner::Combine(const std::string& /*key*/,
                                 const std::vector<std::string>& values,
                                 std::vector<std::string>* combined) const {
  const Aggregator& agg = GetAggregator(kind_);
  AggState total = agg.Empty();
  for (const std::string& value : values) {
    SPCUBE_RETURN_IF_ERROR(MergeEncodedState(agg, value, &total));
  }
  ByteWriter writer;
  total.EncodeTo(writer);
  combined->clear();
  combined->push_back(writer.TakeData());
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
