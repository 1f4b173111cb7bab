#include "core/sp_cube.h"

#include <memory>
#include <utility>

#include "common/logging.h"
#include "core/cube_output.h"

namespace spcube {

Result<JobMetrics> SpCubeAlgorithm::RunSketchRound(
    Engine& engine, const Relation& input, const SketchBuildConfig& config,
    const std::string& sketch_path) {
  const double alpha = config.SampleAlpha(input.num_rows());
  JobSpec spec;
  spec.name = "spcube-sketch";
  spec.num_reducers = 1;
  spec.mapper_factory = [alpha, seed = config.seed]() {
    return std::make_unique<SketchSampleMapper>(alpha, seed);
  };
  spec.reducer_factory = [&input, n = input.num_rows(), config,
                          sketch_path]() {
    return std::make_unique<SketchBuildReducer>(input.num_dims(), n, config,
                                                sketch_path);
  };
  NullOutputCollector stats_sink;
  SPCUBE_ASSIGN_OR_RETURN(JobMetrics round,
                          engine.Run(spec, input, &stats_sink));

  // Stats only: a corrupted broadcast must not fail the run here — the cube
  // round degrades gracefully — so record zeros and move on.
  bool degraded = false;
  SPCUBE_ASSIGN_OR_RETURN(
      auto sketch,
      LoadSketchOrDegrade(engine.dfs(), sketch_path, input.num_dims(),
                          engine.config().num_workers, &degraded));
  last_sketch_bytes_ = degraded ? 0 : sketch->SerializedByteSize();
  last_sketch_skews_ = degraded ? 0 : sketch->TotalSkewedGroups();
  return round;
}

Result<CubeRunOutput> SpCubeAlgorithm::RunCubeRound(
    Engine& engine, const Relation& input, const CubeRunOptions& options,
    const std::string& sketch_path) {
  const int k = engine.config().num_workers;

  // The driver needs the sketch too, for the partitioner. Corruption is a
  // property of the stored bytes, so when the driver degrades, the tasks'
  // own loads degrade identically — partitioner and mapper/reducer keep a
  // consistent (empty-sketch) view and the cube stays exact.
  bool degraded = false;
  SPCUBE_ASSIGN_OR_RETURN(
      auto sketch_owned,
      LoadSketchOrDegrade(engine.dfs(), sketch_path, input.num_dims(), k,
                          &degraded));
  std::shared_ptr<const SpSketch> sketch(std::move(sketch_owned));

  JobSpec spec;
  spec.name = "spcube-cube";
  spec.num_reducers = k + 1;  // reducer 0 handles skewed groups
  if (options_.use_range_partitioner && !degraded) {
    spec.partitioner = std::make_shared<SketchRangePartitioner>(sketch);
  } else {
    // Degraded: the empty sketch has no partition elements, so range
    // partitioning would funnel everything into one reducer; spread the
    // load by hashing instead (the skew set is empty either way).
    spec.partitioner = std::make_shared<SkewAwareHashPartitioner>(sketch);
  }
  spec.mapper_factory = [this, sketch_path, &options, &input]() {
    return std::make_unique<SpCubeMapper>(sketch_path, input.num_dims(),
                                          options.aggregate,
                                          options_.tuning);
  };
  spec.reducer_factory = [this, sketch_path, &options, &input]() {
    return std::make_unique<SpCubeReducer>(sketch_path, input.num_dims(),
                                           options.aggregate,
                                           options_.tuning,
                                           options.iceberg_min_count);
  };
  if (options_.strict_reducer_memory) {
    // In-memory reduce processing; a partition that outgrows the budget
    // (stale sketch under drift, injected pressure) degrades through the
    // engine's split recovery instead of failing — except for holistic
    // aggregates, which the spec rejects with an explanation.
    spec.memory_policy = MemoryPolicy::kStrict;
    spec.recovery =
        MakeCubeRecoverySpec(options.aggregate, options.iceberg_min_count);
  }
  return RunCubeJob(engine, spec, input, options, name());
}

Result<std::vector<CubeRunOutput>> SpCubeAlgorithm::RunRounds(
    Engine& engine, const Relation& sketch_input, const Relation& input,
    const std::vector<CubeRunOptions>& options) {
  if (options.empty()) {
    return Status::InvalidArgument("need at least one aggregate to run");
  }
  for (const CubeRunOptions& entry : options) {
    SPCUBE_RETURN_IF_ERROR(ValidateCubeRunOptions(entry));
  }
  if (sketch_input.num_dims() != input.num_dims()) {
    return Status::InvalidArgument(
        "sketch batch has " + std::to_string(sketch_input.num_dims()) +
        " dims but the cube batch has " + std::to_string(input.num_dims()));
  }
  // The sketch models `sketch_input`: sample rate and memory bound are
  // resolved against it, as they were when it was built.
  const SketchBuildConfig sketch_config = options_.sketch.ResolvedFor(
      engine.config().num_workers, sketch_input.num_rows());
  const std::string sketch_path =
      "spcube/sketch/run_" + std::to_string(run_counter_++);

  SPCUBE_ASSIGN_OR_RETURN(
      JobMetrics sketch_round,
      RunSketchRound(engine, sketch_input, sketch_config, sketch_path));
  std::vector<CubeRunOutput> outputs;
  outputs.reserve(options.size());
  for (const CubeRunOptions& entry : options) {
    SPCUBE_ASSIGN_OR_RETURN(
        CubeRunOutput out, RunCubeRound(engine, input, entry, sketch_path));
    outputs.push_back(std::move(out));
  }
  outputs.front().metrics.rounds.insert(
      outputs.front().metrics.rounds.begin(), std::move(sketch_round));
  return outputs;
}

Result<CubeRunOutput> SpCubeAlgorithm::Run(Engine& engine,
                                           const Relation& input,
                                           const CubeRunOptions& options) {
  return RunWithSketchFrom(engine, input, input, options);
}

Result<CubeRunOutput> SpCubeAlgorithm::RunWithSketchFrom(
    Engine& engine, const Relation& sketch_input, const Relation& input,
    const CubeRunOptions& options) {
  SPCUBE_ASSIGN_OR_RETURN(std::vector<CubeRunOutput> outputs,
                          RunRounds(engine, sketch_input, input, {options}));
  return std::move(outputs.front());
}

Result<std::vector<CubeRunOutput>> SpCubeAlgorithm::RunManyAggregates(
    Engine& engine, const Relation& input,
    const std::vector<CubeRunOptions>& options) {
  return RunRounds(engine, input, input, options);
}

}  // namespace spcube
