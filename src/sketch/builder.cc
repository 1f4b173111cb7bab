#include "sketch/builder.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "cube/buc.h"
#include "relation/tuple_codec.h"

namespace spcube {

SketchBuildConfig SketchBuildConfig::ResolvedFor(int num_workers,
                                                 int64_t total_rows) const {
  SketchBuildConfig config = *this;
  if (config.num_partitions <= 0) config.num_partitions = num_workers;
  if (config.memory_tuples_m <= 0) {
    config.memory_tuples_m = std::max<int64_t>(1, total_rows / num_workers);
  }
  return config;
}

int64_t SketchBuildConfig::EffectiveM(int64_t total_rows) const {
  if (memory_tuples_m > 0) return memory_tuples_m;
  return std::max<int64_t>(1, total_rows / num_partitions);
}

double SketchBuildConfig::SampleAlpha(int64_t total_rows) const {
  const double m = static_cast<double>(EffectiveM(total_rows));
  const double nk =
      static_cast<double>(total_rows) * static_cast<double>(num_partitions);
  if (nk <= 1.0) return 1.0;
  const double alpha = sample_rate_multiplier * std::log(nk) / m;
  return std::min(1.0, std::max(alpha, 0.0));
}

double SketchBuildConfig::SkewBeta(int64_t total_rows) const {
  // beta = alpha * m: with alpha < 1 this is multiplier * ln(nk), the
  // paper's threshold; with alpha = 1 it degrades gracefully to the exact
  // definition (sample count > m).
  return SampleAlpha(total_rows) *
         static_cast<double>(EffectiveM(total_rows));
}

Result<SpSketch> BuildSketchFromSample(const Relation& sample,
                                       int64_t total_rows,
                                       const SketchBuildConfig& config) {
  if (config.num_partitions < 1) {
    return Status::InvalidArgument("sketch needs at least one partition");
  }
  const int num_dims = sample.num_dims();
  SpSketch sketch(num_dims, config.num_partitions);

  const double alpha = config.SampleAlpha(total_rows);
  const double beta = config.SkewBeta(total_rows);

  // --- Skews: iceberg cube over the sample with threshold beta ------------
  // Count is anti-monotone, so BUC's support pruning loses nothing: every
  // group with sample count > beta survives. Estimated true size is the
  // sample count scaled back by 1/alpha.
  const Aggregator& count_agg = GetAggregator(AggregateKind::kCount);
  BucOptions buc_options;
  buc_options.min_support =
      static_cast<int64_t>(std::floor(beta)) + 1;  // strictly greater
  BucComputeFull(sample, count_agg, buc_options,
                 [&](const GroupKey& key, const AggState& state) {
                   if (static_cast<double>(state.v0) > beta) {
                     const int64_t estimate = static_cast<int64_t>(
                         static_cast<double>(state.v0) / alpha);
                     sketch.AddSkew(key, estimate);
                   }
                 });

  // --- Partition elements: per-cuboid sample quantiles --------------------
  // Members of skewed c-groups never reach the range reducers (mappers
  // aggregate them locally), so the quantiles are taken over the cuboid's
  // non-skewed members only — exactly the population Prop. 4.6 bounds
  // ("the partitioning elements divide the cuboid (its non-skewed groups)
  // into partitions of size O(m)").
  const int64_t sample_rows = sample.num_rows();
  const int k = config.num_partitions;
  std::vector<int64_t> order;
  order.reserve(static_cast<size_t>(sample_rows));
  for (CuboidMask mask = 0;
       mask < static_cast<CuboidMask>(NumCuboids(num_dims)); ++mask) {
    order.clear();
    for (int64_t r = 0; r < sample_rows; ++r) {
      if (!sketch.IsSkewedTuple(mask, sample.row(r))) order.push_back(r);
    }
    std::sort(order.begin(), order.end(),
              [&sample, mask](int64_t a, int64_t b) {
                return CompareOnCuboid(mask, sample.row(a), sample.row(b)) <
                       0;
              });
    const int64_t filtered = static_cast<int64_t>(order.size());
    std::vector<GroupKey> elements;
    elements.reserve(static_cast<size_t>(k - 1));
    for (int i = 1; i < k; ++i) {
      const int64_t pos = filtered * i / k;
      if (pos >= filtered) break;
      GroupKey element = GroupKey::Project(
          mask, sample.row(order[static_cast<size_t>(pos)]));
      // Quantiles of a low-cardinality cuboid may repeat; duplicates add
      // nothing (they produce empty ranges), so keep elements distinct.
      if (!elements.empty() && elements.back().values == element.values) {
        continue;
      }
      elements.push_back(std::move(element));
    }
    SPCUBE_RETURN_IF_ERROR(
        sketch.SetPartitionElements(mask, std::move(elements)));
  }
  return sketch;
}

Result<SpSketch> BuildSketchLocal(const Relation& input,
                                  const SketchBuildConfig& config) {
  const double alpha = config.SampleAlpha(input.num_rows());
  Rng rng(config.seed);
  Relation sample(MakeAnonymousSchema(input.num_dims()));
  for (int64_t r = 0; r < input.num_rows(); ++r) {
    if (rng.NextBernoulli(alpha)) {
      // spcube-lint: allow(no-owning-copy-in-hot-path): Bernoulli sampling
      sample.AppendRow(input.row(r), input.measure(r));
    }
  }
  return BuildSketchFromSample(sample, input.num_rows(), config);
}

Status AppendTupleGroup(ValueStream& values, Relation* relation) {
  std::string value;
  std::vector<int64_t> dims;
  int64_t measure = 0;
  for (;;) {
    SPCUBE_ASSIGN_OR_RETURN(bool more, values.Next(&value));
    if (!more) return Status::OK();
    SPCUBE_RETURN_IF_ERROR(DecodeTuple(value, &dims, &measure));
    if (static_cast<int>(dims.size()) != relation->num_dims()) {
      return Status::Corruption(
          "tuple of arity " + std::to_string(dims.size()) + " in a " +
          std::to_string(relation->num_dims()) + "-dim relation");
    }
    relation->AppendRow(dims, measure);
  }
}

Status SketchSampleMapper::Setup(const TaskContext& task) {
  // Independent stream per mapper, deterministic in (seed, worker).
  rng_ = Rng(seed_ ^ (0x9e3779b97f4a7c15ULL *
                      static_cast<uint64_t>(task.worker_id + 1)));
  return Status::OK();
}

Status SketchSampleMapper::Map(const RelationView& input, int64_t row,
                               MapContext& context) {
  if (!rng_.NextBernoulli(alpha_)) return Status::OK();
  return context.Emit(kSampleKey,
                      EncodeTuple(input.row(row), input.measure(row)));
}

Status SketchBuildReducer::Setup(const TaskContext& task) {
  dfs_ = task.dfs;
  return Status::OK();
}

Status SketchBuildReducer::Reduce(const std::string& key,
                                  ValueStream& values,
                                  ReduceContext& /*context*/) {
  if (key != kSampleKey) {
    return Status::Internal("unexpected key in sketch round: " + key);
  }
  return AppendTupleGroup(values, &sample_);
}

Status SketchBuildReducer::Finish(ReduceContext& context) {
  SPCUBE_ASSIGN_OR_RETURN(
      SpSketch sketch,
      BuildSketchFromSample(sample_, total_rows_, config_));
  const std::string serialized = sketch.Serialize();
  if (dfs_ == nullptr) {
    return Status::FailedPrecondition("sketch reducer has no DFS");
  }
  SPCUBE_RETURN_IF_ERROR(dfs_->Overwrite(dfs_output_path_, serialized));
  // Publish size + skew count as the round's visible output (for metrics
  // and the sketch-size figures).
  return context.Output(
      "sketch-stats",
      std::to_string(serialized.size()) + "," +
          std::to_string(sketch.TotalSkewedGroups()));
}

}  // namespace spcube
