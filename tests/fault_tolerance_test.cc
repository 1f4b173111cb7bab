// Failure-injection tests for the engine's task-retry machinery: flaky map
// and reduce tasks must be retried from scratch with no duplicated or lost
// output, and permanent failures must surface with context.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "io/dfs.h"
#include "mapreduce/engine.h"
#include "mapreduce/fault.h"
#include "relation/generators.h"

namespace spcube {
namespace {

EngineConfig TestConfig() {
  EngineConfig config;
  config.num_workers = 4;
  config.memory_budget_bytes = 1 << 20;
  config.network_bandwidth_bytes_per_sec = 0;
  return config;
}

/// Task attempts counted per task: slot `worker_id` for a map task, slot
/// `reduce_partition` for a reduce task. One task's attempts run one after
/// another, so a slot holds that task's 0-based attempt index at any host
/// thread count.
using AttemptCounts = std::vector<std::atomic<int>>;

int TotalAttempts(const AttemptCounts& counts) {
  int total = 0;
  for (const std::atomic<int>& count : counts) total += count.load();
  return total;
}

/// Emits (dim0, "1") per row; fails mid-split (after emitting part of its
/// output!) on the first `failures_per_task` attempts of every task.
class FlakyMapper : public Mapper {
 public:
  FlakyMapper(std::shared_ptr<AttemptCounts> attempts, int failures)
      : attempts_(std::move(attempts)), failures_(failures) {}

  Status Setup(const TaskContext& ctx) override {
    attempt_index_ =
        (*attempts_)[static_cast<size_t>(ctx.worker_id)].fetch_add(1);
    return Status::OK();
  }

  Status Map(const RelationView& input, int64_t row,
             MapContext& context) override {
    SPCUBE_RETURN_IF_ERROR(
        context.Emit(std::to_string(input.dim(row, 0)), "1"));
    ++rows_seen_;
    // Fail after half the split was already emitted, on "early" attempts.
    if (rows_seen_ == 3 && (attempt_index_ % 2) < failures_) {
      return Status::IoError("injected mapper failure");
    }
    return Status::OK();
  }

 private:
  std::shared_ptr<AttemptCounts> attempts_;
  int failures_;
  int attempt_index_ = 0;
  int64_t rows_seen_ = 0;
};

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

/// Reducer that fails after outputting some pairs on its first attempt.
class FlakyReducer : public Reducer {
 public:
  explicit FlakyReducer(std::shared_ptr<AttemptCounts> attempts)
      : attempts_(std::move(attempts)) {}

  Status Setup(const TaskContext& ctx) override {
    first_attempt_ =
        (*attempts_)[static_cast<size_t>(ctx.reduce_partition)].fetch_add(
            1) == 0;
    return Status::OK();
  }

  Status Reduce(const std::string& key, ValueStream& values,
                ReduceContext& context) override {
    int64_t count = 0;
    std::string value;
    for (;;) {
      SPCUBE_ASSIGN_OR_RETURN(bool more, values.Next(&value));
      if (!more) break;
      count += std::stoll(value);
    }
    SPCUBE_RETURN_IF_ERROR(context.Output(key, std::to_string(count)));
    if (first_attempt_ && ++groups_ == 2) {
      return Status::IoError("injected reducer failure");
    }
    return Status::OK();
  }

 private:
  std::shared_ptr<AttemptCounts> attempts_;
  bool first_attempt_ = false;
  int groups_ = 0;
};

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

TEST(FaultToleranceTest, FlakyMapperSucceedsWithRetries) {
  Relation rel = GenUniform(100, 1, 9, 71);
  DistributedFileSystem dfs;
  Engine engine(TestConfig(), &dfs);

  auto attempts =
      std::make_shared<AttemptCounts>(TestConfig().num_workers);
  JobSpec spec;
  spec.max_task_attempts = 2;
  spec.mapper_factory = [attempts] {
    return std::make_unique<FlakyMapper>(attempts, /*failures=*/1);
  };
  spec.reducer_factory = [] { return std::make_unique<CountReducer>(); };
  VectorOutputCollector collector;
  auto metrics = engine.Run(spec, rel, &collector);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  // Retried attempts' partial emissions were discarded: counts are exact.
  EXPECT_EQ(CollectorCounts(collector), DirectCounts(rel));
  // Each of the 4 map tasks ran twice (fail, then succeed).
  EXPECT_EQ(TotalAttempts(*attempts), 8);
}

TEST(FaultToleranceTest, MapperFailsWithoutRetries) {
  Relation rel = GenUniform(100, 1, 9, 71);
  DistributedFileSystem dfs;
  Engine engine(TestConfig(), &dfs);

  auto attempts =
      std::make_shared<AttemptCounts>(TestConfig().num_workers);
  JobSpec spec;
  spec.max_task_attempts = 1;
  spec.mapper_factory = [attempts] {
    return std::make_unique<FlakyMapper>(attempts, /*failures=*/1);
  };
  spec.reducer_factory = [] { return std::make_unique<CountReducer>(); };
  VectorOutputCollector collector;
  auto metrics = engine.Run(spec, rel, &collector);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kIoError);
  EXPECT_NE(metrics.status().message().find("map task"), std::string::npos);
}

TEST(FaultToleranceTest, PermanentMapperFailureExhaustsAttempts) {
  Relation rel = GenUniform(100, 1, 9, 71);
  DistributedFileSystem dfs;
  Engine engine(TestConfig(), &dfs);

  JobSpec spec;
  spec.max_task_attempts = 3;
  spec.mapper_factory = [] {
    class AlwaysFails : public Mapper {
      Status Map(const RelationView&, int64_t, MapContext&) override {
        return Status::IoError("permanently broken");
      }
    };
    return std::make_unique<AlwaysFails>();
  };
  spec.reducer_factory = [] { return std::make_unique<CountReducer>(); };
  VectorOutputCollector collector;
  auto metrics = engine.Run(spec, rel, &collector);
  ASSERT_FALSE(metrics.ok());
  EXPECT_NE(metrics.status().message().find("3 attempt(s)"),
            std::string::npos);
}

TEST(FaultToleranceTest, FlakyReducerOutputNotDuplicated) {
  // The reducer outputs pairs and then fails; on retry it outputs them
  // again. The commit protocol must deliver each group exactly once.
  Relation rel = GenUniform(400, 1, 40, 73);
  DistributedFileSystem dfs;
  Engine engine(TestConfig(), &dfs);

  auto attempts =
      std::make_shared<AttemptCounts>(TestConfig().num_workers);
  JobSpec spec;
  spec.max_task_attempts = 2;
  spec.mapper_factory = [] {
    class TokenMapper : public Mapper {
      Status Map(const RelationView& input, int64_t row,
                 MapContext& context) override {
        return context.Emit(std::to_string(input.dim(row, 0)), "1");
      }
    };
    return std::make_unique<TokenMapper>();
  };
  spec.reducer_factory = [attempts] {
    return std::make_unique<FlakyReducer>(attempts);
  };
  VectorOutputCollector collector;
  auto metrics = engine.Run(spec, rel, &collector);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(CollectorCounts(collector), DirectCounts(rel));
  // No key appears twice in the raw entries either.
  std::map<std::string, int> seen;
  for (const auto& entry : collector.entries()) ++seen[entry.key];
  for (const auto& [key, times] : seen) {
    EXPECT_EQ(times, 1) << key;
  }
}

TEST(FaultToleranceTest, StrictMemoryFailureIsNotRetried) {
  // Under MemoryPolicy::kStrict, ResourceExhausted is a *deterministic*
  // verdict about the partition's size, not a transient fault: re-running
  // the attempt cannot shrink the input, so the engine must fail fast
  // instead of burning the remaining attempts. Even the chaos harness's
  // attempt floor (min_task_attempts) must not override this.
  Relation rel = GenUniform(3000, 1, 50, 75);
  EngineConfig config = TestConfig();
  config.memory_budget_bytes = 256;
  config.min_task_attempts = 5;
  DistributedFileSystem dfs;
  Engine engine(config, &dfs);

  auto reducer_constructions = std::make_shared<std::atomic<int>>(0);
  JobSpec spec;
  spec.max_task_attempts = 5;
  spec.memory_policy = MemoryPolicy::kStrict;
  spec.mapper_factory = [] {
    class TokenMapper : public Mapper {
      Status Map(const RelationView& input, int64_t row,
                 MapContext& context) override {
        return context.Emit(std::to_string(input.dim(row, 0)), "1");
      }
    };
    return std::make_unique<TokenMapper>();
  };
  spec.reducer_factory = [reducer_constructions] {
    reducer_constructions->fetch_add(1);
    return std::make_unique<CountReducer>();
  };
  VectorOutputCollector collector;
  auto metrics = engine.Run(spec, rel, &collector);
  ASSERT_FALSE(metrics.ok());
  EXPECT_TRUE(metrics.status().IsResourceExhausted());
  // The OOM happens before the reducer is even constructed, and it is not
  // retried — so no reducer was built for the failing partition.
  EXPECT_LE(reducer_constructions->load(), 1);
}

// ---- Deterministic chaos (FaultPlan) ---------------------------------------

JobSpec CountJobSpec() {
  JobSpec spec;
  spec.name = "chaos-count";
  spec.mapper_factory = [] {
    class TokenMapper : public Mapper {
      Status Map(const RelationView& input, int64_t row,
                 MapContext& context) override {
        return context.Emit(std::to_string(input.dim(row, 0)), "1");
      }
    };
    return std::make_unique<TokenMapper>();
  };
  spec.reducer_factory = [] { return std::make_unique<CountReducer>(); };
  return spec;
}

TEST(FaultPlanTest, DecisionsAreDeterministicAndSeedSensitive) {
  FaultConfig config;
  config.seed = 42;
  config.map_failure_rate = 0.5;
  config.straggler_rate = 0.5;
  config.worker_crash_rate = 0.3;

  FaultPlan a(config);
  FaultPlan b(config);
  const int64_t job_a = a.BeginJob("j");
  const int64_t job_b = b.BeginJob("j");
  EXPECT_EQ(job_a, job_b);
  for (int task = 0; task < 16; ++task) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      const TaskFault fa = a.PlanTaskAttempt(job_a, TaskKind::kMap, task,
                                             attempt);
      const TaskFault fb = b.PlanTaskAttempt(job_b, TaskKind::kMap, task,
                                             attempt);
      EXPECT_EQ(fa.fail, fb.fail);
      EXPECT_EQ(fa.fail_after_items, fb.fail_after_items);
      EXPECT_EQ(fa.slowdown_factor, fb.slowdown_factor);
    }
  }
  EXPECT_EQ(a.CrashedWorkers(job_a, 8), b.CrashedWorkers(job_b, 8));

  // A different seed yields a different plan somewhere in this window.
  config.seed = 43;
  FaultPlan c(config);
  const int64_t job_c = c.BeginJob("j");
  bool any_difference = !(a.CrashedWorkers(job_a, 8) ==
                          c.CrashedWorkers(job_c, 8));
  for (int task = 0; task < 16 && !any_difference; ++task) {
    for (int attempt = 0; attempt < 4 && !any_difference; ++attempt) {
      const TaskFault fa = a.PlanTaskAttempt(job_a, TaskKind::kMap, task,
                                             attempt);
      const TaskFault fc = c.PlanTaskAttempt(job_c, TaskKind::kMap, task,
                                             attempt);
      any_difference = fa.fail != fc.fail ||
                       fa.slowdown_factor != fc.slowdown_factor;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultPlanTest, InjectedMapFailuresRecoverWithBackoffCharged) {
  Relation rel = GenUniform(200, 1, 9, 71);
  EngineConfig config = TestConfig();
  config.min_task_attempts = 3;
  config.retry_backoff_seconds = 0.5;

  FaultConfig fault_config;
  fault_config.seed = 7;
  fault_config.map_failure_rate = 1.0;  // every non-final attempt fails
  FaultPlan plan(fault_config);
  config.fault_plan = &plan;

  DistributedFileSystem dfs;
  Engine engine(config, &dfs);
  VectorOutputCollector collector;
  auto metrics = engine.Run(CountJobSpec(), rel, &collector);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(CollectorCounts(collector), DirectCounts(rel));

  // All 4 map tasks fail attempts 0 and 1 and succeed on the spared final
  // attempt: 8 retries, each charged its capped-exponential backoff
  // (0.5 * 2^0 + 0.5 * 2^1 = 1.5 per task, jitter disabled by default)
  // into both the phase time and the recovery total.
  EXPECT_EQ(metrics->task_retries, 8);
  EXPECT_DOUBLE_EQ(metrics->fault_recovery_seconds, 4 * 1.5);
  EXPECT_GE(metrics->map_phase.MaxSeconds(), 1.5);
}

TEST(FaultPlanTest, WorkerCrashRecoveryReexecutesLostMapTasks) {
  Relation rel = GenZipf(600, 1, 1, 30, 1.2, 77);
  EngineConfig config = TestConfig();
  config.retry_backoff_seconds = 0.25;

  // Fault-free reference run.
  DistributedFileSystem clean_dfs;
  Engine clean_engine(config, &clean_dfs);
  VectorOutputCollector clean_collector;
  auto clean = clean_engine.Run(CountJobSpec(), rel, &clean_collector);
  ASSERT_TRUE(clean.ok()) << clean.status();

  FaultConfig fault_config;
  fault_config.seed = 11;
  fault_config.forced_worker_crashes = 2;
  FaultPlan plan(fault_config);
  config.fault_plan = &plan;
  DistributedFileSystem dfs;
  Engine engine(config, &dfs);
  VectorOutputCollector collector;
  auto metrics = engine.Run(CountJobSpec(), rel, &collector);
  ASSERT_TRUE(metrics.ok()) << metrics.status();

  // The crash is recovered exactly: same output, same record counts.
  EXPECT_EQ(CollectorCounts(collector), CollectorCounts(clean_collector));
  EXPECT_EQ(metrics->map_output_records, clean->map_output_records);
  EXPECT_EQ(metrics->workers_crashed, 2);
  EXPECT_EQ(metrics->tasks_reexecuted_after_crash, 2);
  // Recovery has a simulated-time cost: re-executed work plus the
  // re-scheduling backoff lands on surviving machines.
  EXPECT_GT(metrics->fault_recovery_seconds, 0.0);
  EXPECT_GE(metrics->map_phase.SumSeconds(),
            2 * config.retry_backoff_seconds);
}

TEST(FaultPlanTest, StragglersAreSpeculativelyReexecuted) {
  Relation rel = GenUniform(200, 1, 9, 71);
  EngineConfig config = TestConfig();

  FaultConfig fault_config;
  fault_config.seed = 5;
  fault_config.straggler_rate = 1.0;
  fault_config.straggler_factor = 10.0;
  FaultPlan plan(fault_config);
  config.fault_plan = &plan;

  DistributedFileSystem dfs;
  Engine engine(config, &dfs);
  VectorOutputCollector collector;
  auto metrics = engine.Run(CountJobSpec(), rel, &collector);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(CollectorCounts(collector), DirectCounts(rel));
  // Every map task and every reduce task straggled and was backed up.
  EXPECT_EQ(metrics->tasks_speculatively_reexecuted, 4 + 4);

  // Without speculation the same plan pays the full slowdown.
  config.speculative_execution = false;
  FaultPlan slow_plan(fault_config);
  config.fault_plan = &slow_plan;
  DistributedFileSystem slow_dfs;
  Engine slow_engine(config, &slow_dfs);
  VectorOutputCollector slow_collector;
  auto slow = slow_engine.Run(CountJobSpec(), rel, &slow_collector);
  ASSERT_TRUE(slow.ok()) << slow.status();
  EXPECT_EQ(slow->tasks_speculatively_reexecuted, 0);
  // The speculative run's recovery time is the backups' busy time.
  EXPECT_GT(metrics->fault_recovery_seconds, 0.0);
}

TEST(FaultPlanTest, TransientDfsReadErrorIsRetriable) {
  FaultConfig config;
  config.seed = 3;
  config.dfs_read_error_rate = 1.0;
  FaultPlan plan(config);

  DistributedFileSystem dfs;
  dfs.SetFaultInjector(&plan);
  ASSERT_TRUE(dfs.Write("a/b", "payload").ok());
  // The first-ever read of the path fails; the retry succeeds, so a reader
  // with one retry always makes progress.
  auto first = dfs.Read("a/b");
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(first.status().IsIoError());
  auto second = dfs.Read("a/b");
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(*second, "payload");
  EXPECT_EQ(plan.injected_read_errors(), 1);
}

TEST(FaultPlanTest, CorruptedDfsPayloadIsDetectedAndRefetched) {
  FaultConfig config;
  config.seed = 9;
  config.payload_corruption_rate = 1.0;
  FaultPlan plan(config);

  DistributedFileSystem dfs;
  dfs.SetFaultInjector(&plan);
  ASSERT_TRUE(dfs.Write("blob", "some payload bytes").ok());
  auto read = dfs.Read("blob");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, "some payload bytes");
  EXPECT_GE(dfs.checksum_mismatches(), 1);
  EXPECT_GE(dfs.reads_recovered(), 1);
}

TEST(FaultPlanTest, CorruptedShuffleFetchIsDetectedAndRefetched) {
  // Tiny memory budget forces spill runs, whose reduce-side fetches are the
  // corruption surface; every first fetch is corrupted and every record
  // still arrives intact via CRC-triggered re-fetch.
  Relation rel = GenUniform(2000, 2, 40, 79);
  EngineConfig config = TestConfig();
  config.memory_budget_bytes = 1 << 10;

  FaultConfig fault_config;
  fault_config.seed = 13;
  fault_config.payload_corruption_rate = 1.0;
  FaultPlan plan(fault_config);
  config.fault_plan = &plan;

  DistributedFileSystem dfs;
  Engine engine(config, &dfs);
  VectorOutputCollector collector;
  auto metrics = engine.Run(CountJobSpec(), rel, &collector);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(CollectorCounts(collector), DirectCounts(rel));
  EXPECT_GT(metrics->shuffle_checksum_mismatches, 0);
  EXPECT_GT(plan.injected_corruptions(), 0);
}

TEST(FaultPlanTest, ThreadedChaosMatchesSequentialChaos) {
  // The plan keys every decision on stable task coordinates, so the same
  // seed produces the same failures, retries and output under real thread
  // interleaving.
  Relation rel = GenUniform(800, 2, 25, 91);
  EngineConfig config = TestConfig();
  config.min_task_attempts = 3;
  config.retry_backoff_seconds = 0.125;

  FaultConfig fault_config;
  fault_config.seed = 17;
  fault_config.map_failure_rate = 0.4;
  fault_config.reduce_failure_rate = 0.4;
  fault_config.forced_worker_crashes = 1;
  fault_config.payload_corruption_rate = 0.3;

  auto run = [&](bool use_threads, int64_t* retries) {
    EngineConfig engine_config = config;
    engine_config.host_threads = use_threads ? 4 : 0;
    FaultPlan plan(fault_config);
    engine_config.fault_plan = &plan;
    DistributedFileSystem dfs;
    Engine engine(engine_config, &dfs);
    VectorOutputCollector collector;
    auto metrics = engine.Run(CountJobSpec(), rel, &collector);
    SPCUBE_CHECK_OK(metrics.status());
    *retries = metrics->task_retries;
    return CollectorCounts(collector);
  };
  int64_t sequential_retries = 0;
  int64_t threaded_retries = 0;
  const auto sequential = run(false, &sequential_retries);
  const auto threaded = run(true, &threaded_retries);
  EXPECT_EQ(sequential, DirectCounts(rel));
  EXPECT_EQ(threaded, sequential);
  EXPECT_EQ(threaded_retries, sequential_retries);
}

}  // namespace
}  // namespace spcube
