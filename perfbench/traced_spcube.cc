#include "traced_spcube.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "core/cube_algorithm.h"
#include "core/sp_cube_tasks.h"
#include "mapreduce/api.h"
#include "sketch/builder.h"

namespace spcube {
namespace perfbench {
namespace {

// SpCubeAlgorithm's benchmark configuration: the paper's count cube.
constexpr AggregateKind kAggregate = AggregateKind::kCount;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

class TracedMapContext : public MapContext {
 public:
  explicit TracedMapContext(MapContext& inner) : inner_(inner) {}

  void IncrementCounter(const std::string& name, int64_t delta) override {
    inner_.IncrementCounter(name, delta);
  }
  Status Emit(std::string_view key, std::string_view value) override {
    ScopedSpan span(Layer::kEmit);
    return inner_.Emit(key, value);
  }
  Status EmitToPartition(int partition, std::string_view key,
                         std::string_view value) override {
    ScopedSpan span(Layer::kEmit);
    return inner_.EmitToPartition(partition, key, value);
  }

 private:
  MapContext& inner_;
};

class TracedReduceContext : public ReduceContext {
 public:
  explicit TracedReduceContext(ReduceContext& inner) : inner_(inner) {}

  Status Output(std::string_view key, std::string_view value) override {
    ScopedSpan span(Layer::kOutput);
    return inner_.Output(key, value);
  }
  void IncrementCounter(const std::string& name, int64_t delta) override {
    inner_.IncrementCounter(name, delta);
  }

 private:
  ReduceContext& inner_;
};

class TracedValueStream : public ValueStream {
 public:
  explicit TracedValueStream(ValueStream& inner) : inner_(inner) {}

  Result<bool> Next(std::string* value) override {
    ScopedSpan span(Layer::kValueNext);
    return inner_.Next(value);
  }

 private:
  ValueStream& inner_;
};

class TracedPartitioner : public Partitioner {
 public:
  explicit TracedPartitioner(std::shared_ptr<const Partitioner> inner)
      : inner_(std::move(inner)) {}

  int Partition(std::string_view key, int num_reducers) const override {
    ScopedSpan span(Layer::kPartition);
    return inner_->Partition(key, num_reducers);
  }

 private:
  std::shared_ptr<const Partitioner> inner_;
};

/// Which layer each mapper callback is charged to.
struct MapperLayers {
  Layer setup;
  Layer map;
  Layer finish;
};

class TracedMapper : public Mapper {
 public:
  TracedMapper(std::unique_ptr<Mapper> inner, MapperLayers layers)
      : inner_(std::move(inner)), layers_(layers) {}

  Status Setup(const TaskContext& task) override {
    ScopedSpan span(layers_.setup);
    return inner_->Setup(task);
  }
  Status Map(const RelationView& input, int64_t row,
             MapContext& context) override {
    ScopedSpan span(layers_.map);
    TracedMapContext traced(context);
    return inner_->Map(input, row, traced);
  }
  Status Finish(MapContext& context) override {
    ScopedSpan span(layers_.finish);
    TracedMapContext traced(context);
    return inner_->Finish(traced);
  }

 private:
  std::unique_ptr<Mapper> inner_;
  MapperLayers layers_;
};

/// Which task a traced reducer wraps; SP-Cube reducers are charged by the
/// partition they serve (0 is the skew reducer).
enum class ReducerRole { kSketchBuild, kCube, kRecoveryMerge };

class TracedReducer : public Reducer {
 public:
  TracedReducer(std::unique_ptr<Reducer> inner, ReducerRole role)
      : inner_(std::move(inner)), role_(role) {}

  Status Setup(const TaskContext& task) override {
    switch (role_) {
      case ReducerRole::kSketchBuild:
        setup_ = reduce_ = finish_ = Layer::kSketchReduce;
        break;
      case ReducerRole::kRecoveryMerge:
        setup_ = reduce_ = finish_ = Layer::kRecoveryMerge;
        break;
      case ReducerRole::kCube:
        setup_ = Layer::kTaskSetup;
        reduce_ = task.reduce_partition == 0 ? Layer::kReduceSkew
                                             : Layer::kReduceRange;
        finish_ = Layer::kReduceFinish;
        break;
    }
    ScopedSpan span(setup_);
    return inner_->Setup(task);
  }
  Status Reduce(const std::string& key, ValueStream& values,
                ReduceContext& context) override {
    ScopedSpan span(reduce_);
    TracedValueStream traced_values(values);
    TracedReduceContext traced_context(context);
    return inner_->Reduce(key, traced_values, traced_context);
  }
  Status Finish(ReduceContext& context) override {
    ScopedSpan span(finish_);
    TracedReduceContext traced(context);
    return inner_->Finish(traced);
  }

 private:
  std::unique_ptr<Reducer> inner_;
  ReducerRole role_;
  Layer setup_ = Layer::kTaskSetup;
  Layer reduce_ = Layer::kReduceRange;
  Layer finish_ = Layer::kReduceFinish;
};

}  // namespace

Result<TracedRun> RunTracedSpCube(Engine& engine, const Relation& sketch_input,
                                  const Relation& input,
                                  bool strict_reducer_memory) {
  if (sketch_input.num_dims() != input.num_dims()) {
    return Status::InvalidArgument("sketch and cube batches differ in dims");
  }
  static int64_t run_counter = 0;
  const int k = engine.config().num_workers;
  const int num_dims = input.num_dims();
  const std::string sketch_path =
      "perfbench/sketch/run_" + std::to_string(run_counter++);
  const SpCubeTuning tuning;

  // SpCubeAlgorithm's defaults: k range partitions, m = n/k of the batch
  // the sketch models.
  SketchBuildConfig config;
  config.num_partitions = k;
  config.memory_tuples_m = std::max<int64_t>(1, sketch_input.num_rows() / k);

  TracedRun out;
  out.metrics.algorithm = "sp-cube(traced)";
  DrainAllThreads();  // start from empty accumulators
  const auto run_start = std::chrono::steady_clock::now();

  // ---- Round 1: sample and build the SP-Sketch ----------------------------
  {
    const double alpha = config.SampleAlpha(sketch_input.num_rows());
    JobSpec spec;
    spec.name = "spcube-sketch";
    spec.num_reducers = 1;
    spec.mapper_factory = [alpha, seed = config.seed]() {
      return std::make_unique<TracedMapper>(
          std::make_unique<SketchSampleMapper>(alpha, seed),
          MapperLayers{Layer::kSketchMap, Layer::kSketchMap,
                       Layer::kSketchMap});
    };
    spec.reducer_factory = [num_dims, n = sketch_input.num_rows(), config,
                            sketch_path]() {
      return std::make_unique<TracedReducer>(
          std::make_unique<SketchBuildReducer>(num_dims, n, config,
                                               sketch_path),
          ReducerRole::kSketchBuild);
    };
    NullOutputCollector sink;
    const auto start = std::chrono::steady_clock::now();
    SPCUBE_ASSIGN_OR_RETURN(JobMetrics round,
                            engine.Run(spec, sketch_input, &sink));
    out.sketch_round_s = SecondsSince(start);
    out.metrics.Add(std::move(round));
  }

  bool degraded = false;
  SPCUBE_ASSIGN_OR_RETURN(
      auto sketch_owned,
      LoadSketchOrDegrade(engine.dfs(), sketch_path, num_dims, k, &degraded));
  std::shared_ptr<const SpSketch> sketch(std::move(sketch_owned));
  out.sketch_bytes = degraded ? 0 : sketch->SerializedByteSize();
  out.sketch_skewed_groups = degraded ? 0 : sketch->TotalSkewedGroups();

  // ---- Round 2: the cube ---------------------------------------------------
  {
    JobSpec spec;
    spec.name = "spcube-cube";
    spec.num_reducers = k + 1;  // reducer 0 handles skewed groups
    std::shared_ptr<const Partitioner> partitioner;
    if (degraded) {
      partitioner = std::make_shared<SkewAwareHashPartitioner>(sketch);
    } else {
      partitioner = std::make_shared<SketchRangePartitioner>(sketch);
    }
    spec.partitioner = std::make_shared<TracedPartitioner>(partitioner);
    spec.mapper_factory = [sketch_path, num_dims, tuning]() {
      return std::make_unique<TracedMapper>(
          std::make_unique<SpCubeMapper>(sketch_path, num_dims, kAggregate,
                                         tuning),
          MapperLayers{Layer::kTaskSetup, Layer::kMapWalk, Layer::kMapFinish});
    };
    spec.reducer_factory = [sketch_path, num_dims, tuning]() {
      return std::make_unique<TracedReducer>(
          std::make_unique<SpCubeReducer>(sketch_path, num_dims, kAggregate,
                                          tuning, /*min_count=*/1),
          ReducerRole::kCube);
    };
    if (strict_reducer_memory) {
      spec.memory_policy = MemoryPolicy::kStrict;
      spec.recovery = MakeCubeRecoverySpec(kAggregate, /*iceberg_min_count=*/1);
      spec.recovery.merge_reducer_factory =
          [merge = spec.recovery.merge_reducer_factory]()
          -> std::unique_ptr<Reducer> {
        std::unique_ptr<Reducer> inner = merge();
        if (inner == nullptr) return nullptr;
        return std::make_unique<TracedReducer>(std::move(inner),
                                               ReducerRole::kRecoveryMerge);
      };
    }
    NullOutputCollector sink;
    SPCUBE_ASSIGN_OR_RETURN(JobMetrics round, engine.Run(spec, input, &sink));
    out.metrics.Add(std::move(round));
  }

  out.wall_s = SecondsSince(run_start);
  out.layers = DrainAllThreads();
  return out;
}

}  // namespace perfbench
}  // namespace spcube
