#ifndef SPCUBE_CORE_SP_CUBE_H_
#define SPCUBE_CORE_SP_CUBE_H_

#include <string>
#include <vector>

#include "core/cube_algorithm.h"
#include "core/sp_cube_tasks.h"
#include "sketch/builder.h"

namespace spcube {

/// Configuration of the SP-Cube driver.
struct SpCubeOptions {
  /// Sketch construction parameters; num_partitions and memory_tuples_m are
  /// derived from the engine (k = num_workers, m = n/k) when left at their
  /// defaults of 0.
  SketchBuildConfig sketch;

  /// Algorithm ablation switches (defaults reproduce the paper).
  SpCubeTuning tuning;

  /// Use the sketch's range partitioner (paper) vs hash partitioning of
  /// non-skewed keys (ablation).
  bool use_range_partitioner = true;

  /// Run the cube round's reducers under MemoryPolicy::kStrict, modeling
  /// fully in-memory reduce-side processing: with an accurate sketch the
  /// range partitions fit the budget by construction, but a stale sketch
  /// (distribution drift, see RunWithSketchFrom) or injected memory
  /// pressure can overflow one. Paired with the engine's adaptive split
  /// recovery (MakeCubeRecoverySpec) so an overflow degrades instead of
  /// failing, for the distributive aggregates.
  bool strict_reducer_memory = false;
};

/// The paper's algorithm (§5): round 1 builds the SP-Sketch from a Bernoulli
/// sample; round 2 computes the cube — mappers partially aggregate skewed
/// c-groups and route each tuple to the reducers of its minimal non-skewed
/// groups; reducers run BUC locally over each received group's tuple set and
/// a dedicated reducer merges the skew partials.
class SpCubeAlgorithm : public CubeAlgorithm {
 public:
  explicit SpCubeAlgorithm(SpCubeOptions options = {})
      : options_(options) {}

  std::string name() const override { return "sp-cube"; }

  Result<CubeRunOutput> Run(Engine& engine, const Relation& input,
                            const CubeRunOptions& options) override;

  /// Sketch reuse (paper §4: "once constructed, the same SP-Sketch can be
  /// used to efficiently compute multiple aggregate functions"): builds
  /// the sketch once, then runs one cube round per entry of `options` —
  /// e.g. count, sum and avg over the same relation for the price of a
  /// single sampling round. Returns one output per entry; the sketch
  /// round's metrics are attached to the first.
  Result<std::vector<CubeRunOutput>> RunManyAggregates(
      Engine& engine, const Relation& input,
      const std::vector<CubeRunOptions>& options);

  /// Distribution-drift scenario (ROADMAP item 5): builds the sketch from
  /// `sketch_input` (an earlier batch of the stream) but cubes `input` (the
  /// current, drifted batch). A stale sketch misclassifies the new heavy
  /// hitters, so range partitions can be badly imbalanced — exactly the
  /// regime the reducer-imbalance alert and strict-memory split recovery
  /// exist for. The cube stays exact for `input` regardless of sketch
  /// quality (the sketch only steers partitioning). Both relations must
  /// have the same dimensionality.
  Result<CubeRunOutput> RunWithSketchFrom(Engine& engine,
                                          const Relation& sketch_input,
                                          const Relation& input,
                                          const CubeRunOptions& options);

  /// Size in bytes of the sketch built by the last Run (Figures 5c, 6c).
  int64_t last_sketch_bytes() const { return last_sketch_bytes_; }
  /// Number of skewed c-groups the last sketch recorded.
  int64_t last_sketch_skews() const { return last_sketch_skews_; }

 private:
  /// The one driver body behind Run, RunWithSketchFrom and
  /// RunManyAggregates: validates, builds the sketch from `sketch_input`,
  /// then runs one cube round over `input` per entry of `options`; the
  /// sketch round's metrics are attached to the first output.
  Result<std::vector<CubeRunOutput>> RunRounds(
      Engine& engine, const Relation& sketch_input, const Relation& input,
      const std::vector<CubeRunOptions>& options);
  /// Round 1; publishes the sketch at the returned DFS path.
  Result<JobMetrics> RunSketchRound(Engine& engine, const Relation& input,
                                    const SketchBuildConfig& config,
                                    const std::string& sketch_path);
  /// Round 2 for one aggregate, against an already-published sketch.
  Result<CubeRunOutput> RunCubeRound(Engine& engine, const Relation& input,
                                     const CubeRunOptions& options,
                                     const std::string& sketch_path);

  SpCubeOptions options_;
  int64_t last_sketch_bytes_ = 0;
  int64_t last_sketch_skews_ = 0;
  int64_t run_counter_ = 0;
};

}  // namespace spcube

#endif  // SPCUBE_CORE_SP_CUBE_H_
