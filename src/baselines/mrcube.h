#ifndef SPCUBE_BASELINES_MRCUBE_H_
#define SPCUBE_BASELINES_MRCUBE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/cube_algorithm.h"
#include "cube/cuboid.h"
#include "sketch/builder.h"

namespace spcube {

/// The annotated cube lattice MR-Cube's sampling round produces: for every
/// cuboid, the value-partition factor to apply. 1 means the cuboid is
/// "reducer-friendly" (its largest group fits in one machine); p > 1 means
/// each of its groups is split across p sub-partitions whose partial
/// aggregates a post-aggregation round recombines.
struct MrCubeAnnotations {
  int num_dims = 0;
  std::vector<int32_t> partition_factor;  // indexed by CuboidMask

  std::string Serialize() const;
  static Result<MrCubeAnnotations> Deserialize(std::string_view bytes);
};

/// Round-1 reduce task: rebuilds the sample (the one group under
/// kSampleKey; any other key is an Internal error), finds each cuboid's
/// largest group, derives the per-cuboid value-partition factor, and
/// publishes the MrCubeAnnotations to the DFS under `dfs_path`.
class MrCubeAnnotateReducer : public Reducer {
 public:
  MrCubeAnnotateReducer(int num_dims, int64_t total_rows,
                        SketchBuildConfig config, std::string dfs_path)
      : num_dims_(num_dims),
        total_rows_(total_rows),
        config_(config),
        dfs_path_(std::move(dfs_path)),
        sample_(MakeAnonymousSchema(num_dims)) {}

  Status Setup(const TaskContext& task) override;
  Status Reduce(const std::string& key, ValueStream& values,
                ReduceContext& context) override;
  Status Finish(ReduceContext& context) override;

 private:
  int num_dims_;
  int64_t total_rows_;
  SketchBuildConfig config_;
  std::string dfs_path_;
  Relation sample_;
  DistributedFileSystem* dfs_ = nullptr;
};

struct MrCubeOptions {
  /// Sampling parameters; shares the SP-Cube defaults so the sampling round
  /// costs the two algorithms the same (conservative toward the baseline).
  SketchBuildConfig sampling;
};

/// Reimplementation of the MR-Cube algorithm of Nandi et al. (TKDE'12,
/// reference [26]) — the algorithm Apache Pig ships as its CUBE operator and
/// the paper's primary baseline. Three MapReduce rounds:
///   1. sample the relation and detect skew at *cuboid* granularity,
///      annotating unfriendly cuboids with a value-partition factor;
///   2. materialize: each tuple emits one pair per cuboid (with a
///      sub-partition tag in unfriendly cuboids); Hadoop combiners perform
///      map-side partial aggregation; reducers aggregate, emitting final
///      values for friendly cuboids and partial states for partitioned ones;
///   3. post-aggregate the value-partitioned partial states into finals.
///
/// Faithfulness notes (also in DESIGN.md): skew decisions happen per cuboid,
/// not per group — exactly the granularity the paper criticizes; the
/// value-partition factor is computed in one shot rather than by recursive
/// re-splitting, and the batch-area optimization is omitted (both
/// simplifications favor this baseline).
class MrCubeAlgorithm : public CubeAlgorithm {
 public:
  explicit MrCubeAlgorithm(MrCubeOptions options = {}) : options_(options) {}

  std::string name() const override { return "mr-cube(pig)"; }

  Result<CubeRunOutput> Run(Engine& engine, const Relation& input,
                            const CubeRunOptions& options) override;

  /// Number of unfriendly cuboids detected in the last run.
  int64_t last_unfriendly_cuboids() const { return last_unfriendly_; }

 private:
  MrCubeOptions options_;
  int64_t last_unfriendly_ = 0;
  int64_t run_counter_ = 0;
};

}  // namespace spcube

#endif  // SPCUBE_BASELINES_MRCUBE_H_
