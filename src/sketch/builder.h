#ifndef SPCUBE_SKETCH_BUILDER_H_
#define SPCUBE_SKETCH_BUILDER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/random.h"
#include "common/status.h"
#include "mapreduce/api.h"
#include "relation/relation.h"
#include "sketch/sp_sketch.h"

namespace spcube {

/// Parameters of the SP-Sketch construction (paper §4.2).
struct SketchBuildConfig {
  /// k — the number of machines / range partitions per cuboid. 0 lets the
  /// driver derive it from the engine's worker count.
  int num_partitions = 0;

  /// m — a machine's memory capacity in tuples; a c-group is skewed when
  /// |set(g)| > m (Def. 2.7). 0 derives m = n/k at build time.
  int64_t memory_tuples_m = 0;

  /// Scales the paper's sampling probability alpha = ln(nk)/m. 1.0 is the
  /// paper's choice; the ablation bench sweeps it.
  double sample_rate_multiplier = 1.0;

  /// Seed of the Bernoulli sampler.
  uint64_t seed = 42;

  /// This config with the engine-derived defaults filled in: k =
  /// `num_workers` when num_partitions is 0, m = n/k when memory_tuples_m
  /// is 0 (n = `total_rows`).
  SketchBuildConfig ResolvedFor(int num_workers, int64_t total_rows) const;

  /// Effective m for a relation of n tuples.
  int64_t EffectiveM(int64_t total_rows) const;

  /// alpha = min(1, multiplier * ln(n*k) / m). With alpha = 1 (tiny inputs)
  /// the "sample" is exact and the sketch is the utopian one of §4.
  double SampleAlpha(int64_t total_rows) const;

  /// beta = alpha * m: a group is declared skewed when its sample count
  /// exceeds beta, the unbiased image of the true threshold m (§4.2 chooses
  /// beta = ln(nk), which equals alpha * m exactly).
  double SkewBeta(int64_t total_rows) const;
};

/// Builds the SP-Sketch from an already-drawn Bernoulli sample of the
/// relation. `total_rows` is n, the full relation's size. Skew detection
/// runs BUC over the sample as an iceberg cube with threshold beta; partition
/// elements are the k-1 sample quantiles of every cuboid's sort order.
Result<SpSketch> BuildSketchFromSample(const Relation& sample,
                                       int64_t total_rows,
                                       const SketchBuildConfig& config);

/// Samples `input` locally and builds the sketch without MapReduce — the
/// single-machine path used by tests, examples and the sketch explorer.
Result<SpSketch> BuildSketchLocal(const Relation& input,
                                  const SketchBuildConfig& config);

/// Round-1 map task (paper Algorithm 2): Bernoulli-samples its input split
/// with probability alpha and ships sampled tuples to the single reducer.
class SketchSampleMapper : public Mapper {
 public:
  SketchSampleMapper(double alpha, uint64_t seed)
      : alpha_(alpha), seed_(seed), rng_(0) {}

  Status Setup(const TaskContext& task) override;
  Status Map(const RelationView& input, int64_t row,
             MapContext& context) override;

 private:
  double alpha_;
  uint64_t seed_;
  Rng rng_;
};

/// Round-1 reduce task: rebuilds the sample relation, builds the sketch
/// in memory, and publishes its serialization to the DFS under
/// `dfs_output_path` for every round-2 task to cache.
class SketchBuildReducer : public Reducer {
 public:
  SketchBuildReducer(int num_dims, int64_t total_rows,
                     SketchBuildConfig config, std::string dfs_output_path)
      : total_rows_(total_rows),
        config_(config),
        dfs_output_path_(std::move(dfs_output_path)),
        sample_(MakeAnonymousSchema(num_dims)) {}

  Status Setup(const TaskContext& task) override;
  Status Reduce(const std::string& key, ValueStream& values,
                ReduceContext& context) override;
  Status Finish(ReduceContext& context) override;

 private:
  int64_t total_rows_;
  SketchBuildConfig config_;
  std::string dfs_output_path_;
  Relation sample_;
  DistributedFileSystem* dfs_ = nullptr;
};

/// Appends every EncodeTuple-encoded value of one reduce group to
/// `*relation`. A value that fails to decode, or whose arity differs from
/// the relation's, yields Corruption; rows appended before it stay.
Status AppendTupleGroup(ValueStream& values, Relation* relation);

/// The single shuffle key used by the sampling round (all samples meet at
/// one reducer, paper Algorithm 2 line 5 emits key 0).
inline constexpr char kSampleKey[] = "sample";

}  // namespace spcube

#endif  // SPCUBE_SKETCH_BUILDER_H_
