// Adaptive skew-recovery tests (docs/INTERNALS.md §11): a reduce partition
// that overflows the strict memory budget is deterministically split into
// sub-partitions, partial-aggregated, and merged back exactly; every
// degradation is visible in RunMetrics and reproducible per fault seed.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baselines/hive.h"
#include "common/bytes.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/cube_output.h"
#include "core/sp_cube.h"
#include "cube/cube_result.h"
#include "cube/group_key.h"
#include "io/dfs.h"
#include "mapreduce/backoff.h"
#include "mapreduce/engine.h"
#include "mapreduce/fault.h"
#include "relation/generators.h"
#include "relation/schema.h"
#include "sum_combiner.h"

namespace spcube {
namespace {

EngineConfig TestConfig() {
  EngineConfig config;
  config.num_workers = 4;
  config.memory_budget_bytes = 1 << 20;
  config.network_bandwidth_bytes_per_sec = 0;
  return config;
}

class TokenMapper : public Mapper {
  Status Map(const RelationView& input, int64_t row,
             MapContext& context) override {
    return context.Emit(std::to_string(input.dim(row, 0)), "1");
  }
};

/// Sums decimal-string values — both the first-pass reducer (counting
/// tokens) and the merge reducer (summing sub-partition partial counts).
class SumReducer : public Reducer {
 public:
  Status Reduce(const std::string& key, ValueStream& values,
                ReduceContext& context) override {
    int64_t sum = 0;
    std::string value;
    for (;;) {
      SPCUBE_ASSIGN_OR_RETURN(bool more, values.Next(&value));
      if (!more) break;
      sum += std::stoll(value);
    }
    return context.Output(key, std::to_string(sum));
  }
};

/// The count job whose strict-memory failure mode the recovery subsystem
/// exists to survive: identical to the one in
/// FaultToleranceTest.StrictMemoryFailureIsNotRetried, plus a RecoverySpec.
JobSpec RecoverableCountSpec() {
  JobSpec spec;
  spec.name = "recoverable-count";
  spec.memory_policy = MemoryPolicy::kStrict;
  spec.mapper_factory = [] { return std::make_unique<TokenMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  spec.recovery.allow_partition_split = true;
  spec.recovery.merge_reducer_factory = [] {
    return std::make_unique<SumReducer>();
  };
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

// ---- Engine-level split recovery -------------------------------------------

TEST(RecoveryTest, SplitRecoversStrictOomExactly) {
  // The exact configuration StrictMemoryFailureIsNotRetried proves is fatal
  // without recovery: 3000 rows into a 256-byte strict budget.
  Relation rel = GenUniform(3000, 1, 50, 75);
  EngineConfig config = TestConfig();
  config.memory_budget_bytes = 256;
  config.retry_backoff_seconds = 0.05;  // else the modeled charge is zero
  DistributedFileSystem dfs;
  Engine engine(config, &dfs);

  VectorOutputCollector collector;
  auto metrics = engine.Run(RecoverableCountSpec(), rel, &collector);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(CollectorCounts(collector), DirectCounts(rel));
  // The degradation is visible: partitions split, rounds and re-shuffled
  // bytes counted, simulated time charged.
  EXPECT_GT(metrics->reduce_partitions_split, 0);
  EXPECT_GT(metrics->recovery_rounds, 0);
  EXPECT_GT(metrics->recovery_bytes_reshuffled, 0);
  EXPECT_GT(metrics->recovery_seconds, 0.0);
  // Recovery time is part of the fault-recovery total.
  EXPECT_LE(metrics->recovery_seconds, metrics->fault_recovery_seconds);
}

TEST(RecoveryTest, SplitRecoveryLeavesNoTempFiles) {
  // Map tasks spill (the budget is tiny), reducers OOM and split two ways;
  // every spill file, split sub-input runs included, is gone once Run
  // returns.
  Relation rel = GenUniform(3000, 1, 50, 75);
  EngineConfig config = TestConfig();
  config.memory_budget_bytes = 256;
  DistributedFileSystem dfs;
  Engine engine(config, &dfs);
  JobSpec spec = RecoverableCountSpec();
  spec.recovery.split_fanout = 2;

  VectorOutputCollector collector;
  auto metrics = engine.Run(spec, rel, &collector);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(CollectorCounts(collector), DirectCounts(rel));
  EXPECT_GT(metrics->spill_bytes, 0);
  EXPECT_GT(metrics->reduce_partitions_split, 0);
  int64_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(engine.temp_dir())) {
    if (entry.is_regular_file()) ++files;
  }
  EXPECT_EQ(files, 0);
}

TEST(RecoveryTest, RecoveryMetricsAreDeterministicAcrossReruns) {
  Relation rel = GenUniform(3000, 1, 50, 75);
  auto run = [&rel]() {
    EngineConfig config = TestConfig();
    config.memory_budget_bytes = 256;
    DistributedFileSystem dfs;
    Engine engine(config, &dfs);
    VectorOutputCollector collector;
    auto metrics = engine.Run(RecoverableCountSpec(), rel, &collector);
    SPCUBE_CHECK_OK(metrics.status());
    return *metrics;
  };
  const JobMetrics a = run();
  const JobMetrics b = run();
  EXPECT_EQ(a.reduce_partitions_split, b.reduce_partitions_split);
  EXPECT_EQ(a.recovery_rounds, b.recovery_rounds);
  EXPECT_EQ(a.recovery_bytes_reshuffled, b.recovery_bytes_reshuffled);
  EXPECT_DOUBLE_EQ(a.recovery_seconds, b.recovery_seconds);
}

/// Map side of a one-round naive count cube: every row emits its 2^d
/// projections with a partial count of 1. The cube merge reducer for
/// count sums them into the final cell value, so it serves as the job's
/// reducer too.
class ProjectAllMapper : public Mapper {
 public:
  Status Map(const RelationView& input, int64_t row,
             MapContext& context) override {
    const auto tuple = input.row(row);
    const auto num_masks =
        static_cast<CuboidMask>(NumCuboids(input.num_dims()));
    for (CuboidMask mask = 0; mask < num_masks; ++mask) {
      key_.Clear();
      GroupKey::Project(mask, tuple).EncodeTo(key_);
      SPCUBE_RETURN_IF_ERROR(
          context.Emit(key_.data(), EncodeCubeValueTo(1.0, value_)));
    }
    return Status::OK();
  }

 private:
  ByteWriter key_;
  ByteWriter value_;
};

/// Wraps the cube merge reducer to count its runs: one bump of
/// "merge_rounds" per merge reducer that reaches Finish.
class CountingMergeReducer : public Reducer {
 public:
  explicit CountingMergeReducer(std::unique_ptr<Reducer> inner)
      : inner_(std::move(inner)) {}

  Status Setup(const TaskContext& task) override {
    return inner_->Setup(task);
  }
  Status Reduce(const std::string& key, ValueStream& values,
                ReduceContext& context) override {
    return inner_->Reduce(key, values, context);
  }
  Status Finish(ReduceContext& context) override {
    context.IncrementCounter("merge_rounds", 1);
    return inner_->Finish(context);
  }

 private:
  std::unique_ptr<Reducer> inner_;
};

TEST(RecoveryTest, SplitPartitionMergesOnceOverAllLeaves) {
  // A strict budget several times below each partition's input forces
  // fanout-2 split trees more than one level deep; however deep the tree,
  // each split partition runs exactly one merge round, over every leaf's
  // partials.
  const Relation rel = GenUniform(3000, 2, 6, 91);
  const CubeResult reference = ComputeCubeReference(rel, AggregateKind::kCount);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("host_threads=" + std::to_string(threads));
    EngineConfig config = TestConfig();
    config.memory_budget_bytes = 4 << 10;
    config.host_threads = threads;
    DistributedFileSystem dfs;
    Engine engine(config, &dfs);

    JobSpec spec;
    spec.name = "split-cube";
    spec.memory_policy = MemoryPolicy::kStrict;
    spec.mapper_factory = [] { return std::make_unique<ProjectAllMapper>(); };
    spec.recovery = MakeCubeRecoverySpec(AggregateKind::kCount, 1);
    spec.reducer_factory = spec.recovery.merge_reducer_factory;
    spec.recovery.split_fanout = 2;
    spec.recovery.merge_reducer_factory =
        [merge = spec.recovery.merge_reducer_factory]() {
          return std::make_unique<CountingMergeReducer>(merge());
        };
    CubeCollector collector(CubeRunOptions{}, &dfs, rel.num_dims());
    auto metrics = engine.Run(spec, rel, &collector);
    ASSERT_TRUE(metrics.ok()) << metrics.status();

    EXPECT_GT(metrics->reduce_partitions_split, 0);
    EXPECT_GT(metrics->recovery_rounds, metrics->reduce_partitions_split)
        << "no split recursed past depth 1";
    EXPECT_EQ(metrics->custom_counters["merge_rounds"],
              metrics->reduce_partitions_split);
    const std::unique_ptr<CubeResult> cube = collector.TakeCube();
    ASSERT_NE(cube, nullptr);
    std::string diff;
    EXPECT_TRUE(CubeResult::ApproxEqual(reference, *cube, 1e-9, &diff))
        << diff;
  }
}

/// Forwards a group's values, counting them.
class CountingValueStream : public ValueStream {
 public:
  explicit CountingValueStream(ValueStream& inner) : inner_(inner) {}

  Result<bool> Next(std::string* value) override {
    SPCUBE_ASSIGN_OR_RETURN(bool more, inner_.Next(value));
    if (more) ++count_;
    return more;
  }
  int64_t count() const { return count_; }

 private:
  ValueStream& inner_;
  int64_t count_ = 0;
};

/// Wraps a merge reducer and counts, per key, the partial values that
/// reach the merge: counter "merge_values/<key>".
class ValueCountingMergeReducer : public Reducer {
 public:
  explicit ValueCountingMergeReducer(std::unique_ptr<Reducer> inner)
      : inner_(std::move(inner)) {}

  Status Reduce(const std::string& key, ValueStream& values,
                ReduceContext& context) override {
    CountingValueStream counted(values);
    SPCUBE_RETURN_IF_ERROR(inner_->Reduce(key, counted, context));
    context.IncrementCounter("merge_values/" + key, counted.count());
    return Status::OK();
  }

 private:
  std::unique_ptr<Reducer> inner_;
};

TEST(RecoveryTest, SplitKeepsSmallGroupsWhole) {
  // One hot token (2000 rows, ~4 KB of records) and 400 cold tokens of 3
  // rows each (15 bytes) under a 1 KB strict budget: every partition
  // splits, but only the hot group is too big for a fanout-2 sub-input's
  // share of the budget. Each cold group lands whole in one leaf, whose
  // output is final, so it never reaches the merge.
  Relation rel(MakeAnonymousSchema(1));
  constexpr int64_t kHot = 7;
  for (int i = 0; i < 2000; ++i) rel.AppendRow(std::vector<int64_t>{kHot}, 1);
  for (int64_t token = 1000; token < 1400; ++token) {
    for (int r = 0; r < 3; ++r) rel.AppendRow(std::vector<int64_t>{token}, 1);
  }
  for (int threads : {1, 4}) {
    SCOPED_TRACE("host_threads=" + std::to_string(threads));
    EngineConfig config = TestConfig();
    config.memory_budget_bytes = 1 << 10;
    config.host_threads = threads;
    DistributedFileSystem dfs;
    Engine engine(config, &dfs);

    JobSpec spec = RecoverableCountSpec();
    spec.recovery.merge_reducer_factory = [] {
      return std::make_unique<ValueCountingMergeReducer>(
          std::make_unique<SumReducer>());
    };
    VectorOutputCollector collector;
    auto metrics = engine.Run(spec, rel, &collector);
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    EXPECT_EQ(CollectorCounts(collector), DirectCounts(rel));
    EXPECT_EQ(metrics->reduce_partitions_split, config.num_workers);
    for (int64_t token = 1000; token < 1400; ++token) {
      EXPECT_EQ(metrics->custom_counters["merge_values/" +
                                         std::to_string(token)],
                0)
          << "cold token " << token;
    }
    EXPECT_GT(metrics->custom_counters["merge_values/" + std::to_string(kHot)],
              1)
        << "the hot group was not spread";
  }
}

/// Forwards to a reducer's context, counting its outputs per key:
/// counter "leaf_outputs/<key>".
class OutputCountingContext : public ReduceContext {
 public:
  explicit OutputCountingContext(ReduceContext& inner) : inner_(inner) {}

  Status Output(std::string_view key, std::string_view value) override {
    inner_.IncrementCounter("leaf_outputs/" + std::string(key), 1);
    return inner_.Output(key, value);
  }
  void IncrementCounter(const std::string& name, int64_t delta) override {
    inner_.IncrementCounter(name, delta);
  }

 private:
  ReduceContext& inner_;
};

/// Wraps a job's reducer so every output it makes is counted per key.
class OutputCountingReducer : public Reducer {
 public:
  explicit OutputCountingReducer(std::unique_ptr<Reducer> inner)
      : inner_(std::move(inner)) {}

  Status Setup(const TaskContext& task) override {
    return inner_->Setup(task);
  }
  Status Reduce(const std::string& key, ValueStream& values,
                ReduceContext& context) override {
    OutputCountingContext counted(context);
    return inner_->Reduce(key, values, counted);
  }
  Status Finish(ReduceContext& context) override {
    OutputCountingContext counted(context);
    return inner_->Finish(counted);
  }

 private:
  std::unique_ptr<Reducer> inner_;
};

TEST(RecoveryTest, SplitMergesOnlySpreadGroupsPartials) {
  // A count cube over 1500 copies of one tuple plus 1500 uniform tuples of
  // a 40x40 domain, under a 4 KB strict budget: every partition splits.
  // The cells of the hot tuple hold ~1500-3000 records and are dealt over
  // the leaves; the fine cells (a record or two) and the 40-value cells
  // stay whole. A group's key is its output key, so a dealt-out group has
  // one leaf output per leaf it reached, and a whole group exactly one.
  Relation rel(MakeAnonymousSchema(2));
  Rng rng(2024);
  for (int i = 0; i < 1500; ++i) {
    rel.AppendRow(std::vector<int64_t>{0, 0}, 1);
    rel.AppendRow(std::vector<int64_t>{rng.NextInRange(1, 40),
                                       rng.NextInRange(1, 40)},
                  1);
  }
  const CubeResult reference = ComputeCubeReference(rel, AggregateKind::kCount);
  EngineConfig config = TestConfig();
  config.memory_budget_bytes = 4 << 10;
  DistributedFileSystem dfs;
  Engine engine(config, &dfs);

  JobSpec spec;
  spec.name = "split-cube";
  spec.memory_policy = MemoryPolicy::kStrict;
  spec.mapper_factory = [] { return std::make_unique<ProjectAllMapper>(); };
  spec.recovery = MakeCubeRecoverySpec(AggregateKind::kCount, 1);
  spec.reducer_factory = [merge = spec.recovery.merge_reducer_factory]() {
    return std::make_unique<OutputCountingReducer>(merge());
  };
  spec.recovery.merge_reducer_factory =
      [merge = spec.recovery.merge_reducer_factory]() {
        return std::make_unique<CountingMergeReducer>(
            std::make_unique<ValueCountingMergeReducer>(merge()));
      };
  CubeCollector collector(CubeRunOptions{}, &dfs, rel.num_dims());
  auto metrics = engine.Run(spec, rel, &collector);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  const std::unique_ptr<CubeResult> cube = collector.TakeCube();
  ASSERT_NE(cube, nullptr);
  std::string diff;
  EXPECT_TRUE(CubeResult::ApproxEqual(reference, *cube, 1e-9, &diff)) << diff;
  EXPECT_EQ(metrics->reduce_partitions_split, config.num_workers);
  EXPECT_EQ(metrics->custom_counters["merge_rounds"], config.num_workers);

  // The merge's input is exactly the spread groups' leaf outputs.
  std::map<std::string, int64_t> leaf_outputs;
  std::map<std::string, int64_t> merge_values;
  for (const auto& [name, value] : metrics->custom_counters) {
    if (name.starts_with("leaf_outputs/")) {
      leaf_outputs[name.substr(13)] = value;
    } else if (name.starts_with("merge_values/")) {
      merge_values[name.substr(13)] = value;
    }
  }
  std::map<std::string, int64_t> spread_outputs;
  for (const auto& [key, outputs] : leaf_outputs) {
    if (outputs > 1) spread_outputs[key] = outputs;
  }
  EXPECT_EQ(merge_values, spread_outputs);
  EXPECT_GE(spread_outputs.size(), 4u) << "the hot cells were not spread";
  EXPECT_GT(leaf_outputs.size(), spread_outputs.size() + 1000);

  // A split that spreads no group still runs its one merge, over nothing:
  // 400 tokens of 15 bytes each overflow every 1 KB partition, but none
  // exceeds a sub-input's 512-byte share.
  Relation cold(MakeAnonymousSchema(1));
  for (int64_t token = 1000; token < 1400; ++token) {
    for (int r = 0; r < 3; ++r) cold.AppendRow(std::vector<int64_t>{token}, 1);
  }
  config.memory_budget_bytes = 1 << 10;
  Engine cold_engine(config, &dfs);
  JobSpec count = RecoverableCountSpec();
  count.recovery.merge_reducer_factory = [] {
    return std::make_unique<CountingMergeReducer>(
        std::make_unique<ValueCountingMergeReducer>(
            std::make_unique<SumReducer>()));
  };
  VectorOutputCollector counts;
  auto cold_metrics = cold_engine.Run(count, cold, &counts);
  ASSERT_TRUE(cold_metrics.ok()) << cold_metrics.status();
  EXPECT_EQ(CollectorCounts(counts), DirectCounts(cold));
  EXPECT_GT(cold_metrics->reduce_partitions_split, 0);
  EXPECT_EQ(cold_metrics->custom_counters["merge_rounds"],
            cold_metrics->reduce_partitions_split);
  for (const auto& [name, value] : cold_metrics->custom_counters) {
    EXPECT_FALSE(name.starts_with("merge_values/")) << name << "=" << value;
  }
}

TEST(RecoveryTest, DepthExhaustionSurfacesExplanatoryStatus) {
  // A budget so small that even max-depth sub-partitions overflow: the job
  // must fail with ResourceExhausted and name the exhausted knob.
  Relation rel = GenUniform(3000, 1, 50, 75);
  EngineConfig config = TestConfig();
  config.memory_budget_bytes = 64;
  DistributedFileSystem dfs;
  Engine engine(config, &dfs);

  JobSpec spec = RecoverableCountSpec();
  spec.recovery.max_split_depth = 1;
  VectorOutputCollector collector;
  auto metrics = engine.Run(spec, rel, &collector);
  ASSERT_FALSE(metrics.ok());
  EXPECT_TRUE(metrics.status().IsResourceExhausted());
  EXPECT_NE(metrics.status().message().find("max_split_depth"),
            std::string::npos)
      << metrics.status();
}

TEST(RecoveryTest, DisabledRecoveryStatusExplainsWhy) {
  Relation rel = GenUniform(3000, 1, 50, 75);
  EngineConfig config = TestConfig();
  config.memory_budget_bytes = 256;
  DistributedFileSystem dfs;
  Engine engine(config, &dfs);

  JobSpec spec = RecoverableCountSpec();
  spec.recovery = RecoverySpec{};  // back to the default: no recovery
  VectorOutputCollector collector;
  auto metrics = engine.Run(spec, rel, &collector);
  ASSERT_FALSE(metrics.ok());
  EXPECT_TRUE(metrics.status().IsResourceExhausted());
  EXPECT_NE(metrics.status().message().find("not enabled"),
            std::string::npos)
      << metrics.status();
}

TEST(RecoveryTest, RejectedRecoveryStatusCarriesReason) {
  // A holistic aggregate: MakeCubeRecoverySpec refuses to split and the
  // failure Status must carry its reason.
  Relation rel = GenUniform(3000, 1, 50, 75);
  EngineConfig config = TestConfig();
  config.memory_budget_bytes = 256;
  DistributedFileSystem dfs;
  Engine engine(config, &dfs);

  JobSpec spec = RecoverableCountSpec();
  spec.recovery = MakeCubeRecoverySpec(AggregateKind::kAvg, 1);
  VectorOutputCollector collector;
  auto metrics = engine.Run(spec, rel, &collector);
  ASSERT_FALSE(metrics.ok());
  EXPECT_TRUE(metrics.status().IsResourceExhausted());
  EXPECT_NE(metrics.status().message().find("non-mergeable quotient"),
            std::string::npos)
      << metrics.status();
}

// ---- Backoff helper --------------------------------------------------------

TEST(BackoffTest, GrowsExponentiallyAndClampsAtCap) {
  EXPECT_DOUBLE_EQ(RetryBackoffSeconds(0.5, 0), 0.5);
  EXPECT_DOUBLE_EQ(RetryBackoffSeconds(0.5, 1), 1.0);
  EXPECT_DOUBLE_EQ(RetryBackoffSeconds(0.5, 4), 8.0);
  // 0.5 * 2^10 = 512 clamps to the fixed 60 s cap.
  EXPECT_DOUBLE_EQ(RetryBackoffSeconds(0.5, 10), kRetryBackoffCapSeconds);
  EXPECT_DOUBLE_EQ(kRetryBackoffCapSeconds, 60.0);
  // Non-positive base disables backoff entirely.
  EXPECT_DOUBLE_EQ(RetryBackoffSeconds(0.0, 3), 0.0);
}

// ---- OOM-pressure injection grid -------------------------------------------

struct OomGridConfig {
  bool strict = true;
  bool combiner = false;
  bool speculative = false;
  std::string Name() const {
    std::string name = strict ? "strict" : "spill";
    name += combiner ? "_comb" : "_nocomb";
    name += speculative ? "_spec" : "_nospec";
    return name;
  }
};

// gtest would otherwise print the struct's raw bytes, padding included,
// and those bytes become part of the test names CTest discovers.
void PrintTo(const OomGridConfig& config, std::ostream* os) {
  *os << config.Name();
}

class OomInjectionTest : public ::testing::TestWithParam<OomGridConfig> {};

TEST_P(OomInjectionTest, InjectedPressureRecoversExactlyAndDeterministically) {
  const OomGridConfig& grid = GetParam();
  Relation rel = GenZipf(3000, 1, 1, 60, 1.2, 87);

  auto run = [&](JobMetrics* out) {
    EngineConfig config = TestConfig();
    config.memory_budget_bytes = 1 << 12;
    config.speculative_execution = grid.speculative;
    config.min_task_attempts = 3;
    config.retry_backoff_seconds = 0.01;
    FaultConfig chaos;
    chaos.seed = 29;
    chaos.oom_pressure_rate = 0.6;
    chaos.oom_budget_factor = 0.25;
    chaos.straggler_rate = grid.speculative ? 0.3 : 0.0;
    FaultPlan plan(chaos);
    config.fault_plan = &plan;
    DistributedFileSystem dfs;
    Engine engine(config, &dfs);

    JobSpec spec = RecoverableCountSpec();
    if (!grid.strict) spec.memory_policy = MemoryPolicy::kSpill;
    if (grid.combiner) spec.combiner = std::make_shared<SumCombiner>();
    VectorOutputCollector collector;
    auto metrics = engine.Run(spec, rel, &collector);
    SPCUBE_CHECK_OK(metrics.status());
    if (out != nullptr) *out = *metrics;
    return CollectorCounts(collector);
  };

  JobMetrics first_metrics;
  JobMetrics second_metrics;
  EXPECT_EQ(run(&first_metrics), DirectCounts(rel));
  EXPECT_EQ(run(&second_metrics), DirectCounts(rel));
  // Same fault seed, same degradation accounting.
  EXPECT_EQ(first_metrics.reduce_partitions_split,
            second_metrics.reduce_partitions_split);
  EXPECT_EQ(first_metrics.recovery_rounds, second_metrics.recovery_rounds);
  EXPECT_EQ(first_metrics.recovery_bytes_reshuffled,
            second_metrics.recovery_bytes_reshuffled);
  EXPECT_EQ(first_metrics.task_retries, second_metrics.task_retries);
  // Spill mode absorbs the shrunken budget by spilling: no splits ever.
  if (!grid.strict) {
    EXPECT_EQ(first_metrics.reduce_partitions_split, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OomInjectionTest,
    ::testing::Values(OomGridConfig{true, false, false},
                      OomGridConfig{true, true, false},
                      OomGridConfig{true, false, true},
                      OomGridConfig{true, true, true},
                      OomGridConfig{false, false, false},
                      OomGridConfig{false, true, true}),
    [](const ::testing::TestParamInfo<OomGridConfig>& info) {
      return info.param.Name();
    });

// ---- Distribution drift ----------------------------------------------------

TEST(DriftTest, GenDriftBatchIsDeterministicAndActuallyDrifts) {
  DriftSpec spec;
  spec.num_batches = 4;
  spec.start_exponent = 0.4;
  spec.end_exponent = 1.6;
  const Relation a = GenDriftBatch(spec, 0, 500, 123);
  const Relation b = GenDriftBatch(spec, 0, 500, 123);
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int d = 0; d < a.num_dims(); ++d) {
      ASSERT_EQ(a.dim(r, d), b.dim(r, d));
    }
    ASSERT_EQ(a.measure(r), b.measure(r));
  }
  // The last batch is sharper: its top key covers far more rows. Compare
  // the modal frequency of dim 0.
  auto modal_count = [](const Relation& rel) {
    std::map<int64_t, int64_t> freq;
    int64_t best = 0;
    for (int64_t r = 0; r < rel.num_rows(); ++r) {
      best = std::max(best, ++freq[rel.dim(r, 0)]);
    }
    return best;
  };
  const Relation last = GenDriftBatch(spec, 3, 500, 123);
  EXPECT_GT(modal_count(last), modal_count(a));
  for (int64_t r = 0; r < last.num_rows(); ++r) {
    for (int d = 0; d < last.num_dims(); ++d) {
      ASSERT_GE(last.dim(r, d), 0);
      ASSERT_LT(last.dim(r, d), spec.domain);
    }
  }
}

TEST(DriftTest, StaleSketchStrictMemoryRecoversExactly) {
  // The acceptance scenario: sketch built on batch 0 of a drifting Zipf
  // stream, cube computed on the aged final batch under strict reducer
  // memory. The stale sketch misplaces the new heavy hitters, a partition
  // overflows, and split recovery completes the job exactly.
  DriftSpec drift;
  drift.num_batches = 3;
  drift.start_exponent = 0.3;
  drift.end_exponent = 1.5;
  drift.churn_period = 1;
  drift.churn_step = 311;
  const Relation old_batch = GenDriftBatch(drift, 0, 4000, 2026);
  const Relation new_batch = GenDriftBatch(drift, 2, 4000, 2026);
  const CubeResult reference =
      ComputeCubeReference(new_batch, AggregateKind::kCount);

  auto run = [&](RunMetrics* out) {
    EngineConfig cluster;
    cluster.num_workers = 4;
    cluster.memory_budget_bytes = 1 << 14;
    cluster.network_bandwidth_bytes_per_sec = 0;
    cluster.retry_backoff_seconds = 0.01;
    DistributedFileSystem dfs;
    Engine engine(cluster, &dfs);
    SpCubeOptions options;
    options.strict_reducer_memory = true;
    SpCubeAlgorithm algorithm(options);
    CubeRunOptions cube_options;
    cube_options.aggregate = AggregateKind::kCount;
    auto output =
        algorithm.RunWithSketchFrom(engine, old_batch, new_batch,
                                    cube_options);
    SPCUBE_CHECK_OK(output.status());
    std::string diff;
    EXPECT_TRUE(
        CubeResult::ApproxEqual(reference, *output->cube, 1e-6, &diff))
        << diff;
    if (out != nullptr) *out = std::move(output->metrics);
  };

  RunMetrics first;
  RunMetrics second;
  run(&first);
  run(&second);
  // The stale sketch must actually hurt: recovery engaged and is visible.
  EXPECT_GT(first.ReducePartitionsSplit(), 0);
  EXPECT_GT(first.RecoveryRounds(), 0);
  EXPECT_GT(first.RecoverySeconds(), 0.0);
  // And deterministically so.
  EXPECT_EQ(first.ReducePartitionsSplit(), second.ReducePartitionsSplit());
  EXPECT_EQ(first.RecoveryRounds(), second.RecoveryRounds());
  EXPECT_EQ(first.RecoveryBytesReshuffled(),
            second.RecoveryBytesReshuffled());
}

TEST(DriftTest, HiveOptInRecoverySurvivesStrictSkew) {
  // The baselines_test asserts Hive *dies* here by default; with the
  // opt-in recovery knob the same configuration completes exactly.
  Relation rel = GenBinomial(4000, 3, 0.5, 301);
  const CubeResult reference =
      ComputeCubeReference(rel, AggregateKind::kSum);

  EngineConfig cluster;
  cluster.num_workers = 4;
  cluster.memory_budget_bytes = 1 << 14;
  cluster.network_bandwidth_bytes_per_sec = 0;
  DistributedFileSystem dfs;
  Engine engine(cluster, &dfs);

  HiveCubeOptions options;
  options.strict_reducer_memory = true;
  options.allow_split_recovery = true;
  HiveCubeAlgorithm hive(options);
  CubeRunOptions cube_options;
  cube_options.aggregate = AggregateKind::kSum;
  auto output = hive.Run(engine, rel, cube_options);
  ASSERT_TRUE(output.ok()) << output.status();
  std::string diff;
  EXPECT_TRUE(
      CubeResult::ApproxEqual(reference, *output->cube, 1e-6, &diff))
      << diff;
  EXPECT_GT(output->metrics.ReducePartitionsSplit(), 0);
}

}  // namespace
}  // namespace spcube
