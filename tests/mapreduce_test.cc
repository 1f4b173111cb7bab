// Tests for the simulated MapReduce engine: mapping, shuffling, combining,
// spilling, memory policies, metrics and record-input rounds.

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>

#include "common/bytes.h"
#include "io/dfs.h"
#include "mapreduce/engine.h"
#include "relation/generators.h"
#include "sum_combiner.h"

namespace spcube {
namespace {

/// Emits (dim0 value as decimal string, "1") per row.
class TokenMapper : public Mapper {
 public:
  Status Map(const RelationView& input, int64_t row,
             MapContext& context) override {
    return context.Emit(std::to_string(input.dim(row, 0)), "1");
  }
};

/// Outputs (key, count of values as decimal string).
class CountReducer : public Reducer {
 public:
  Status Reduce(const std::string& key, ValueStream& values,
                ReduceContext& context) override {
    int64_t count = 0;
    std::string value;
    for (;;) {
      SPCUBE_ASSIGN_OR_RETURN(bool more, values.Next(&value));
      if (!more) break;
      count += std::stoll(value);
    }
    return context.Output(key, std::to_string(count));
  }
};

JobSpec CountJob() {
  JobSpec spec;
  spec.name = "count";
  spec.mapper_factory = [] { return std::make_unique<TokenMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<CountReducer>(); };
  return spec;
}

std::map<std::string, int64_t> DirectCounts(const Relation& rel) {
  std::map<std::string, int64_t> counts;
  for (int64_t r = 0; r < rel.num_rows(); ++r) {
    ++counts[std::to_string(rel.dim(r, 0))];
  }
  return counts;
}

std::map<std::string, int64_t> CollectorCounts(
    const VectorOutputCollector& collector) {
  std::map<std::string, int64_t> counts;
  for (const auto& entry : collector.entries()) {
    counts[entry.key] += std::stoll(entry.value);
  }
  return counts;
}

class MapReduceTest : public ::testing::Test {
 protected:
  EngineConfig DefaultConfig() {
    EngineConfig config;
    config.num_workers = 4;
    config.memory_budget_bytes = 1 << 20;
    config.network_bandwidth_bytes_per_sec = 0;  // no modeled time in tests
    return config;
  }

  DistributedFileSystem dfs_;
};

TEST_F(MapReduceTest, CountJobMatchesDirectComputation) {
  Relation rel = GenUniform(2000, 1, 37, 5);
  Engine engine(DefaultConfig(), &dfs_);
  VectorOutputCollector collector;
  auto metrics = engine.Run(CountJob(), rel, &collector);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(CollectorCounts(collector), DirectCounts(rel));
  EXPECT_EQ(metrics->map_input_records, 2000);
  EXPECT_EQ(metrics->map_output_records, 2000);
  EXPECT_EQ(metrics->shuffle_records, 2000);
  EXPECT_EQ(metrics->output_records,
            static_cast<int64_t>(DirectCounts(rel).size()));
}

TEST_F(MapReduceTest, EachGroupReducedExactlyOnce) {
  Relation rel = GenUniform(500, 1, 20, 7);
  Engine engine(DefaultConfig(), &dfs_);
  VectorOutputCollector collector;
  ASSERT_TRUE(engine.Run(CountJob(), rel, &collector).ok());
  std::set<std::string> keys;
  for (const auto& entry : collector.entries()) {
    EXPECT_TRUE(keys.insert(entry.key).second)
        << "key reduced twice: " << entry.key;
  }
}

TEST_F(MapReduceTest, ReducerInputAccountingIsConsistent) {
  Relation rel = GenUniform(1000, 1, 13, 9);
  Engine engine(DefaultConfig(), &dfs_);
  VectorOutputCollector collector;
  auto metrics = engine.Run(CountJob(), rel, &collector);
  ASSERT_TRUE(metrics.ok());
  const int64_t total_inputs =
      std::accumulate(metrics->reducer_input_records.begin(),
                      metrics->reducer_input_records.end(), int64_t{0});
  EXPECT_EQ(total_inputs, metrics->shuffle_records);
  EXPECT_GE(metrics->ReducerImbalance(), 1.0);
  EXPECT_EQ(static_cast<int>(metrics->reducer_input_records.size()), 4);
}

TEST_F(MapReduceTest, CombinerReducesShuffleButNotResults) {
  Relation rel = GenUniform(4000, 1, 5, 11);  // few keys -> combines well
  Engine engine(DefaultConfig(), &dfs_);

  JobSpec plain = CountJob();
  VectorOutputCollector out_plain;
  auto m_plain = engine.Run(plain, rel, &out_plain);
  ASSERT_TRUE(m_plain.ok());

  JobSpec combined = CountJob();
  combined.combiner = std::make_shared<SumCombiner>();
  VectorOutputCollector out_combined;
  auto m_combined = engine.Run(combined, rel, &out_combined);
  ASSERT_TRUE(m_combined.ok());

  EXPECT_EQ(CollectorCounts(out_plain), CollectorCounts(out_combined));
  EXPECT_EQ(m_combined->map_output_records, 4000);
  // 4 workers x 5 keys = at most 20 shuffled records.
  EXPECT_LE(m_combined->shuffle_records, 20);
  EXPECT_LT(m_combined->shuffle_bytes, m_plain->shuffle_bytes);
  EXPECT_GT(m_combined->combine_input_records, 0);
}

TEST_F(MapReduceTest, MapSideSpillPreservesResults) {
  Relation rel = GenUniform(3000, 1, 50, 13);
  EngineConfig config = DefaultConfig();
  config.memory_budget_bytes = 256;  // absurdly small: force spills
  Engine engine(config, &dfs_);
  VectorOutputCollector collector;
  auto metrics = engine.Run(CountJob(), rel, &collector);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GT(metrics->spill_bytes, 0);
  EXPECT_EQ(CollectorCounts(collector), DirectCounts(rel));
}

TEST_F(MapReduceTest, StrictPolicyFailsWhenOverBudget) {
  Relation rel = GenUniform(3000, 1, 50, 13);
  EngineConfig config = DefaultConfig();
  config.memory_budget_bytes = 256;
  Engine engine(config, &dfs_);
  JobSpec spec = CountJob();
  spec.memory_policy = MemoryPolicy::kStrict;
  VectorOutputCollector collector;
  auto metrics = engine.Run(spec, rel, &collector);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(MapReduceTest, StrictPolicyPassesWhenWithinBudget) {
  Relation rel = GenUniform(100, 1, 50, 13);
  Engine engine(DefaultConfig(), &dfs_);
  JobSpec spec = CountJob();
  spec.memory_policy = MemoryPolicy::kStrict;
  VectorOutputCollector collector;
  EXPECT_TRUE(engine.Run(spec, rel, &collector).ok());
}

/// Mapper that routes every row to an explicit partition (row % reducers).
class ExplicitPartitionMapper : public Mapper {
 public:
  Status Setup(const TaskContext& task) override {
    num_reducers_ = task.num_reducers;
    return Status::OK();
  }
  Status Map(const RelationView& input, int64_t row,
             MapContext& context) override {
    // Spread by the global row id: view-local indices restart per split.
    const int partition =
        static_cast<int>(input.base_row(row) % num_reducers_);
    return context.EmitToPartition(partition, std::to_string(input.dim(row, 0)),
                                   "1");
  }

 private:
  int num_reducers_ = 1;
};

/// Reducer that records which partition served it.
class PartitionEchoReducer : public Reducer {
 public:
  Status Setup(const TaskContext& task) override {
    partition_ = task.reduce_partition;
    return Status::OK();
  }
  Status Reduce(const std::string& key, ValueStream& values,
                ReduceContext& context) override {
    std::string value;
    for (;;) {
      SPCUBE_ASSIGN_OR_RETURN(bool more, values.Next(&value));
      if (!more) break;
    }
    return context.Output(key, std::to_string(partition_));
  }

 private:
  int partition_ = -1;
};

TEST_F(MapReduceTest, EmitToPartitionAndReducePartitionIds) {
  Relation rel = GenUniform(100, 1, 1000000, 17);  // distinct keys
  Engine engine(DefaultConfig(), &dfs_);
  JobSpec spec;
  spec.name = "explicit";
  spec.num_reducers = 7;
  spec.mapper_factory = [] {
    return std::make_unique<ExplicitPartitionMapper>();
  };
  spec.reducer_factory = [] {
    return std::make_unique<PartitionEchoReducer>();
  };
  VectorOutputCollector collector;
  auto metrics = engine.Run(spec, rel, &collector);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(static_cast<int>(metrics->reducer_input_records.size()), 7);
  for (const auto& entry : collector.entries()) {
    EXPECT_EQ(std::to_string(entry.reducer_id), entry.value);
  }
  // Rows were spread round-robin over 7 partitions.
  for (int64_t per_partition : metrics->reducer_input_records) {
    EXPECT_NEAR(static_cast<double>(per_partition), 100.0 / 7, 1.1);
  }
}

TEST_F(MapReduceTest, EmitToInvalidPartitionFails) {
  Relation rel = GenUniform(10, 1, 5, 1);
  Engine engine(DefaultConfig(), &dfs_);
  JobSpec spec;
  spec.mapper_factory = [] {
    class BadMapper : public Mapper {
      Status Map(const RelationView&, int64_t, MapContext& context) override {
        return context.EmitToPartition(99, "k", "v");
      }
    };
    return std::make_unique<BadMapper>();
  };
  spec.reducer_factory = [] { return std::make_unique<CountReducer>(); };
  VectorOutputCollector collector;
  EXPECT_FALSE(engine.Run(spec, rel, &collector).ok());
}

/// Reducer that verifies keys arrive in ascending byte order.
class OrderCheckingReducer : public Reducer {
 public:
  Status Reduce(const std::string& key, ValueStream& values,
                ReduceContext& context) override {
    if (!last_key_.empty() && key <= last_key_) {
      return Status::Internal("keys out of order: " + last_key_ +
                              " then " + key);
    }
    last_key_ = key;
    std::string value;
    for (;;) {
      SPCUBE_ASSIGN_OR_RETURN(bool more, values.Next(&value));
      if (!more) break;
    }
    return context.Output(key, "ok");
  }

 private:
  std::string last_key_;
};

TEST_F(MapReduceTest, KeysArriveSortedWithinReducer) {
  Relation rel = GenUniform(2000, 1, 300, 19);
  Engine engine(DefaultConfig(), &dfs_);
  JobSpec spec = CountJob();
  spec.reducer_factory = [] {
    return std::make_unique<OrderCheckingReducer>();
  };
  VectorOutputCollector collector;
  EXPECT_TRUE(engine.Run(spec, rel, &collector).ok());
}

TEST_F(MapReduceTest, KeysSortedEvenWhenSpilling) {
  Relation rel = GenUniform(2000, 1, 300, 19);
  EngineConfig config = DefaultConfig();
  config.memory_budget_bytes = 512;
  Engine engine(config, &dfs_);
  JobSpec spec = CountJob();
  spec.reducer_factory = [] {
    return std::make_unique<OrderCheckingReducer>();
  };
  VectorOutputCollector collector;
  auto metrics = engine.Run(spec, rel, &collector);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GT(metrics->spill_bytes, 0);
}

/// Mapper that emits only from Finish (checks lifecycle hooks).
class FinishOnlyMapper : public Mapper {
 public:
  Status Map(const RelationView&, int64_t, MapContext&) override {
    ++rows_;
    return Status::OK();
  }
  Status Finish(MapContext& context) override {
    return context.Emit("rows", std::to_string(rows_));
  }

 private:
  int64_t rows_ = 0;
};

TEST_F(MapReduceTest, FinishEmitsAreDelivered) {
  Relation rel = GenUniform(100, 1, 5, 23);
  Engine engine(DefaultConfig(), &dfs_);
  JobSpec spec;
  spec.mapper_factory = [] { return std::make_unique<FinishOnlyMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<CountReducer>(); };
  VectorOutputCollector collector;
  auto metrics = engine.Run(spec, rel, &collector);
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(collector.entries().size(), 1u);
  EXPECT_EQ(collector.entries()[0].value, "100");  // all rows, 4 mappers
}

/// Identity record mapper for RunRecords tests.
class EchoRecordMapper : public Mapper {
 public:
  Status MapRecord(const Record& record, MapContext& context) override {
    return context.Emit(record.key, record.value);
  }
};

TEST_F(MapReduceTest, RunRecordsRoundTrip) {
  std::vector<Record> records;
  for (int i = 0; i < 100; ++i) {
    records.push_back(Record{"k" + std::to_string(i % 10), "1"});
  }
  Engine engine(DefaultConfig(), &dfs_);
  JobSpec spec;
  spec.mapper_factory = [] { return std::make_unique<EchoRecordMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<CountReducer>(); };
  VectorOutputCollector collector;
  auto metrics = engine.RunRecords(spec, records, &collector);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->map_input_records, 100);
  std::map<std::string, int64_t> counts = CollectorCounts(collector);
  EXPECT_EQ(counts.size(), 10u);
  for (const auto& [key, count] : counts) EXPECT_EQ(count, 10);
}

TEST_F(MapReduceTest, RelationMapperRejectsRecordInputAndViceVersa) {
  Engine engine(DefaultConfig(), &dfs_);
  {
    JobSpec spec = CountJob();  // TokenMapper has no MapRecord
    VectorOutputCollector collector;
    EXPECT_FALSE(
        engine.RunRecords(spec, {Record{"k", "v"}}, &collector).ok());
  }
  {
    JobSpec spec;
    spec.mapper_factory = [] { return std::make_unique<EchoRecordMapper>(); };
    spec.reducer_factory = [] { return std::make_unique<CountReducer>(); };
    Relation rel = GenUniform(5, 1, 5, 1);
    VectorOutputCollector collector;
    EXPECT_FALSE(engine.Run(spec, rel, &collector).ok());
  }
}

TEST_F(MapReduceTest, MissingFactoriesRejected) {
  Engine engine(DefaultConfig(), &dfs_);
  JobSpec spec;
  Relation rel = GenUniform(5, 1, 5, 1);
  VectorOutputCollector collector;
  EXPECT_EQ(engine.Run(spec, rel, &collector).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(MapReduceTest, HashPartitionerInRange) {
  HashPartitioner partitioner;
  for (int i = 0; i < 1000; ++i) {
    const int p = partitioner.Partition("key" + std::to_string(i), 7);
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 7);
  }
}

TEST_F(MapReduceTest, HashPartitionerSpreadsKeys) {
  HashPartitioner partitioner;
  std::vector<int> histogram(8, 0);
  for (int i = 0; i < 8000; ++i) {
    ++histogram[static_cast<size_t>(
        partitioner.Partition("key" + std::to_string(i), 8))];
  }
  for (int count : histogram) EXPECT_NEAR(count, 1000, 250);
}

TEST_F(MapReduceTest, RoundOverheadAndShuffleModelFlowIntoTotal) {
  Relation rel = GenUniform(100, 1, 5, 29);
  EngineConfig config = DefaultConfig();
  config.round_overhead_seconds = 2.5;
  config.network_bandwidth_bytes_per_sec = 1e6;
  Engine engine(config, &dfs_);
  VectorOutputCollector collector;
  auto metrics = engine.Run(CountJob(), rel, &collector);
  ASSERT_TRUE(metrics.ok());
  EXPECT_GE(metrics->TotalSeconds(), 2.5);
  EXPECT_GT(metrics->shuffle_seconds, 0.0);
}

TEST_F(MapReduceTest, EngineReusableAcrossJobs) {
  Relation rel = GenUniform(500, 1, 7, 31);
  Engine engine(DefaultConfig(), &dfs_);
  for (int i = 0; i < 3; ++i) {
    VectorOutputCollector collector;
    auto metrics = engine.Run(CountJob(), rel, &collector);
    ASSERT_TRUE(metrics.ok());
    EXPECT_EQ(CollectorCounts(collector), DirectCounts(rel));
  }
}

TEST_F(MapReduceTest, SingleWorkerCluster) {
  Relation rel = GenUniform(300, 1, 7, 33);
  EngineConfig config = DefaultConfig();
  config.num_workers = 1;
  Engine engine(config, &dfs_);
  VectorOutputCollector collector;
  auto metrics = engine.Run(CountJob(), rel, &collector);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(CollectorCounts(collector), DirectCounts(rel));
}

TEST_F(MapReduceTest, ThreadedModeMatchesSequential) {
  Relation rel = GenUniform(3000, 1, 60, 41);
  EngineConfig sequential = DefaultConfig();
  sequential.host_threads = 0;
  EngineConfig threaded = DefaultConfig();
  threaded.host_threads = 4;
  threaded.num_workers = 6;
  sequential.num_workers = 6;

  VectorOutputCollector seq_out;
  VectorOutputCollector thr_out;
  {
    Engine engine(sequential, &dfs_);
    ASSERT_TRUE(engine.Run(CountJob(), rel, &seq_out).ok());
  }
  {
    Engine engine(threaded, &dfs_);
    auto metrics = engine.Run(CountJob(), rel, &thr_out);
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    // CPU-clock accounting produced sane per-worker times.
    for (double seconds : metrics->map_phase.per_worker_seconds) {
      EXPECT_GE(seconds, 0.0);
    }
  }
  EXPECT_EQ(CollectorCounts(seq_out), CollectorCounts(thr_out));
}

TEST_F(MapReduceTest, ThreadedModeWithSpills) {
  Relation rel = GenUniform(4000, 1, 300, 43);
  EngineConfig config = DefaultConfig();
  config.host_threads = 4;
  config.memory_budget_bytes = 512;
  Engine engine(config, &dfs_);
  VectorOutputCollector collector;
  auto metrics = engine.Run(CountJob(), rel, &collector);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GT(metrics->spill_bytes, 0);
  EXPECT_EQ(CollectorCounts(collector), DirectCounts(rel));
}

TEST_F(MapReduceTest, ThreadedModePropagatesTaskFailures) {
  Relation rel = GenUniform(100, 1, 5, 45);
  EngineConfig config = DefaultConfig();
  config.host_threads = 4;
  Engine engine(config, &dfs_);
  JobSpec spec;
  spec.mapper_factory = [] {
    class Fails : public Mapper {
      Status Map(const RelationView&, int64_t, MapContext&) override {
        return Status::IoError("boom");
      }
    };
    return std::make_unique<Fails>();
  };
  spec.reducer_factory = [] { return std::make_unique<CountReducer>(); };
  VectorOutputCollector collector;
  EXPECT_FALSE(engine.Run(spec, rel, &collector).ok());
}

/// CountReducer that fails permanently on the job's last reduce partition.
class FailsOnLastPartitionReducer : public CountReducer {
 public:
  Status Setup(const TaskContext& task) override {
    if (task.reduce_partition == task.num_reducers - 1) {
      return Status::IoError("last partition's machine is down");
    }
    return Status::OK();
  }
};

// Reduce output is delivered only once every partition has succeeded: a
// job whose last partition fails permanently hands the collector nothing,
// serial or threaded — earlier partitions' committed output included.
TEST_F(MapReduceTest, FailedJobDeliversNothingToTheCollector) {
  Relation rel = GenUniform(2000, 1, 37, 5);
  for (int host_threads : {0, 4}) {
    EngineConfig config = DefaultConfig();
    config.host_threads = host_threads;
    Engine engine(config, &dfs_);
    JobSpec spec = CountJob();
    spec.max_task_attempts = 2;
    spec.reducer_factory = [] {
      return std::make_unique<FailsOnLastPartitionReducer>();
    };
    VectorOutputCollector collector;
    auto metrics = engine.Run(spec, rel, &collector);
    EXPECT_FALSE(metrics.ok()) << "host_threads=" << host_threads;
    EXPECT_TRUE(collector.entries().empty())
        << "host_threads=" << host_threads << ": "
        << collector.entries().size() << " records leaked from a failed job";
  }
}

TEST_F(MapReduceTest, EmptyInputYieldsEmptyOutput) {
  Relation rel(MakeAnonymousSchema(1));
  Engine engine(DefaultConfig(), &dfs_);
  VectorOutputCollector collector;
  auto metrics = engine.Run(CountJob(), rel, &collector);
  ASSERT_TRUE(metrics.ok());
  EXPECT_TRUE(collector.entries().empty());
  EXPECT_EQ(metrics->map_output_records, 0);
}

}  // namespace
}  // namespace spcube
