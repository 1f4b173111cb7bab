#include "core/cube_algorithm.h"

#include <algorithm>
#include <memory>

#include "common/bytes.h"

namespace spcube {
namespace {

/// Merge round of adaptive split recovery: re-aggregates one output cell's
/// partial final doubles (one per sub-partition that saw the cell) back
/// into the exact unsplit value. Only constructed for distributive kinds —
/// MakeCubeRecoverySpec rejects the rest.
class MergeFinalCellsReducer : public Reducer {
 public:
  explicit MergeFinalCellsReducer(AggregateKind kind) : kind_(kind) {}

  Status Reduce(const std::string& key, ValueStream& values,
                ReduceContext& context) override {
    double merged = 0.0;
    bool first = true;
    std::string raw;
    for (;;) {
      SPCUBE_ASSIGN_OR_RETURN(bool more, values.Next(&raw));
      if (!more) break;
      SPCUBE_ASSIGN_OR_RETURN(double value, DecodeCubeValue(raw));
      if (first) {
        merged = value;
        first = false;
        continue;
      }
      switch (kind_) {
        case AggregateKind::kCount:
        case AggregateKind::kSum:
          merged += value;
          break;
        case AggregateKind::kMin:
          merged = std::min(merged, value);
          break;
        case AggregateKind::kMax:
          merged = std::max(merged, value);
          break;
        case AggregateKind::kAvg:
          return Status::Internal(
              "avg partials reached the merge reducer; "
              "MakeCubeRecoverySpec must reject avg");
      }
    }
    if (first) return Status::OK();  // empty group cannot occur, but be safe
    return context.Output(key, EncodeCubeValueTo(merged, encode_));
  }

 private:
  AggregateKind kind_;
  ByteWriter encode_;
};

}  // namespace

Status ValidateCubeRunOptions(const CubeRunOptions& options) {
  if (options.iceberg_min_count < 1) {
    return Status::InvalidArgument("iceberg_min_count must be >= 1");
  }
  if (options.iceberg_min_count > 1 &&
      options.aggregate != AggregateKind::kCount) {
    return Status::InvalidArgument(
        "iceberg cubes are defined on group cardinality; use the count "
        "aggregate");
  }
  return Status::OK();
}

std::string EncodeCubeValue(double value) {
  ByteWriter writer;
  writer.PutDouble(value);
  return writer.TakeData();
}

std::string_view EncodeCubeValueTo(double value, ByteWriter& writer) {
  writer.Clear();
  writer.PutDouble(value);
  return writer.data();
}

Result<double> DecodeCubeValue(std::string_view bytes) {
  ByteReader reader(bytes);
  double value = 0.0;
  SPCUBE_RETURN_IF_ERROR(reader.GetDouble(&value));
  return value;
}

Status MergeEncodedState(const Aggregator& agg, std::string_view encoded,
                         AggState* total) {
  ByteReader reader(encoded);
  AggState partial;
  SPCUBE_RETURN_IF_ERROR(AggState::DecodeFrom(reader, &partial));
  agg.Merge(*total, partial);
  return Status::OK();
}

Result<AggState> MergeStates(const Aggregator& agg, ValueStream& values) {
  AggState total = agg.Empty();
  std::string value;
  for (;;) {
    SPCUBE_ASSIGN_OR_RETURN(bool more, values.Next(&value));
    if (!more) return total;
    SPCUBE_RETURN_IF_ERROR(MergeEncodedState(agg, value, &total));
  }
}

RecoverySpec MakeCubeRecoverySpec(AggregateKind kind,
                                  int64_t iceberg_min_count) {
  RecoverySpec recovery;
  if (kind == AggregateKind::kAvg) {
    recovery.reject_reason =
        "the avg aggregate finalizes to a non-mergeable quotient, so "
        "sub-partition partial outputs cannot be recombined exactly";
    return recovery;
  }
  if (iceberg_min_count > 1) {
    recovery.reject_reason =
        "iceberg thresholds are defined on whole-group cardinality; "
        "filtering sub-partition partial counts would drop cells that "
        "globally pass the threshold";
    return recovery;
  }
  recovery.allow_partition_split = true;
  recovery.merge_reducer_factory = [kind]() -> std::unique_ptr<Reducer> {
    return std::make_unique<MergeFinalCellsReducer>(kind);
  };
  return recovery;
}

}  // namespace spcube
