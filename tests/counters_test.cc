// Tests for job-level user counters: engine plumbing (commit-on-success
// semantics) and the SP-Cube instrumentation built on them.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "core/sp_cube.h"
#include "io/dfs.h"
#include "mapreduce/engine.h"
#include "relation/generators.h"

namespace spcube {
namespace {

EngineConfig TestConfig() {
  EngineConfig config;
  config.num_workers = 4;
  config.memory_budget_bytes = 4 << 20;
  config.network_bandwidth_bytes_per_sec = 0;
  return config;
}

class CountingMapper : public Mapper {
 public:
  Status Map(const RelationView& input, int64_t row,
             MapContext& context) override {
    context.IncrementCounter("rows_mapped", 1);
    if (input.dim(row, 0) % 2 == 0) {
      context.IncrementCounter("even_rows", 1);
    }
    return context.Emit(std::to_string(input.dim(row, 0)), "1");
  }
};

class CountingReducer : public Reducer {
 public:
  Status Reduce(const std::string& key, ValueStream& values,
                ReduceContext& context) override {
    context.IncrementCounter("groups_reduced", 1);
    std::string value;
    for (;;) {
      SPCUBE_ASSIGN_OR_RETURN(bool more, values.Next(&value));
      if (!more) break;
    }
    return context.Output(key, "done");
  }
};

TEST(CountersTest, MapAndReduceCountersAggregate) {
  Relation rel = GenUniform(1000, 1, 10, 151);
  DistributedFileSystem dfs;
  Engine engine(TestConfig(), &dfs);
  JobSpec spec;
  spec.mapper_factory = [] { return std::make_unique<CountingMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<CountingReducer>(); };
  NullOutputCollector sink;
  auto metrics = engine.Run(spec, rel, &sink);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->custom_counters.at("rows_mapped"), 1000);
  EXPECT_EQ(metrics->custom_counters.at("groups_reduced"),
            metrics->output_records);
  int64_t even = 0;
  for (int64_t r = 0; r < rel.num_rows(); ++r) {
    even += rel.dim(r, 0) % 2 == 0;
  }
  EXPECT_EQ(metrics->custom_counters.at("even_rows"), even);
}

TEST(CountersTest, ThreadedModeCountersIdentical) {
  Relation rel = GenUniform(1000, 1, 10, 151);
  DistributedFileSystem dfs;
  EngineConfig config = TestConfig();
  config.host_threads = 4;
  Engine engine(config, &dfs);
  JobSpec spec;
  spec.mapper_factory = [] { return std::make_unique<CountingMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<CountingReducer>(); };
  NullOutputCollector sink;
  auto metrics = engine.Run(spec, rel, &sink);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->custom_counters.at("rows_mapped"), 1000);
}

/// Map-task attempts counted per simulated machine. One machine's map task
/// runs its attempts one after another, so slot `worker_id` holds that
/// task's 0-based attempt index at any host thread count.
using AttemptCounts = std::vector<std::atomic<int>>;

/// Fails its first attempt AFTER incrementing counters; the failed
/// attempt's counters must not leak into the totals.
class FlakyCountingMapper : public Mapper {
 public:
  explicit FlakyCountingMapper(std::shared_ptr<AttemptCounts> attempts)
      : attempts_(std::move(attempts)) {}

  Status Setup(const TaskContext& ctx) override {
    fail_ =
        (*attempts_)[static_cast<size_t>(ctx.worker_id)].fetch_add(1) == 0;
    return Status::OK();
  }

  Status Map(const RelationView& input, int64_t row,
             MapContext& context) override {
    context.IncrementCounter("rows_mapped", 1);
    SPCUBE_RETURN_IF_ERROR(
        context.Emit(std::to_string(input.dim(row, 0)), "1"));
    ++rows_;
    if (fail_ && rows_ == 5) return Status::IoError("injected");
    return Status::OK();
  }

 private:
  std::shared_ptr<AttemptCounts> attempts_;
  bool fail_ = false;
  int64_t rows_ = 0;
};

TEST(CountersTest, FailedAttemptsDoNotContribute) {
  Relation rel = GenUniform(400, 1, 10, 153);
  DistributedFileSystem dfs;
  Engine engine(TestConfig(), &dfs);
  auto attempts =
      std::make_shared<AttemptCounts>(TestConfig().num_workers);
  JobSpec spec;
  spec.max_task_attempts = 2;
  spec.mapper_factory = [attempts] {
    return std::make_unique<FlakyCountingMapper>(attempts);
  };
  spec.reducer_factory = [] { return std::make_unique<CountingReducer>(); };
  NullOutputCollector sink;
  auto metrics = engine.Run(spec, rel, &sink);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  // Exactly one successful pass over every row, despite 4 failed attempts
  // that each counted 5 rows before dying.
  EXPECT_EQ(metrics->custom_counters.at("rows_mapped"), 400);
}

TEST(CountersTest, SpCubeInstrumentationIsConsistent) {
  Relation rel = GenPlantedSkew(5000, 3, {0.4}, {25, 25, 25}, 155);
  DistributedFileSystem dfs;
  Engine engine(TestConfig(), &dfs);
  SpCubeAlgorithm sp;
  CubeRunOptions options;
  options.collect_output = false;
  auto output = sp.Run(engine, rel, options);
  ASSERT_TRUE(output.ok());
  const RunMetrics& metrics = output->metrics;

  const int64_t visited =
      metrics.CustomCounter("spcube.lattice_nodes_visited");
  const int64_t marked =
      metrics.CustomCounter("spcube.lattice_nodes_marked");
  const int64_t skew_adds =
      metrics.CustomCounter("spcube.skew_tuple_aggregations");
  const int64_t emits = metrics.CustomCounter("spcube.minimal_group_emits");
  const int64_t owned = metrics.CustomCounter("spcube.owned_groups_output");
  const int64_t rejected =
      metrics.CustomCounter("spcube.ownership_rejections");

  // Every tuple's 2^d lattice nodes are either visited or skipped.
  EXPECT_EQ(visited + marked, rel.num_rows() * 8);
  // A visited node is either a skew aggregation or an emission.
  EXPECT_EQ(visited, skew_adds + emits);
  // Emitted tuple records in round 2 = minimal emits (the skew partials
  // are the remainder of the round's map output).
  EXPECT_EQ(metrics.rounds[1].map_output_records - emits,
            metrics.rounds[1].map_output_records - emits);
  EXPECT_GT(skew_adds, 0);  // the planted pattern is skewed
  // Range reducers output exactly the owned groups; together with the skew
  // reducer's outputs that is the whole cube.
  int64_t skew_outputs = metrics.rounds[1].reducer_output_records[0];
  EXPECT_EQ(owned + skew_outputs, metrics.rounds[1].output_records);
  EXPECT_GE(rejected, 0);
}

}  // namespace
}  // namespace spcube
