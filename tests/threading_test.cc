// The threaded half of the concurrency contracts (docs/INTERNALS.md §12):
// with EngineConfig::host_threads > 1 the simulated machines' tasks run on
// the seeded work-stealing TaskPool (common/task_pool.h), and (a) every
// algorithm must still reproduce the in-memory reference cube
// bit-for-bit, fault plan or not, and (b) a threaded run must be
// indistinguishable from the same-seed serial run in everything the model
// reports — cube bytes on the DFS, user counters, and all modeled
// (non-measured) metrics. Under the tsan preset any data race in the
// pool's deques, the engine's fan-out paths and per-partition result
// slots, the shared collectors, or the DFS surfaces here.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/hive.h"
#include "baselines/mrcube.h"
#include "baselines/naive.h"
#include "baselines/topdown.h"
#include "common/random.h"
#include "core/sp_cube.h"
#include "cube/cube_result.h"
#include "mapreduce/fault.h"
#include "relation/generators.h"

namespace spcube {
namespace {

struct Config {
  int distribution;   // 0..2
  int num_dims;       // 1..4
  int workers;        // 2..6
  int budget_shift;   // memory budget = 1 << (10 + 2*shift)
  int aggregate;      // AggregateKind
  uint64_t seed;

  std::string Name() const {
    static const char* kDistributions[] = {"uniform", "zipf", "planted"};
    static const char* kAggregates[] = {"count", "sum", "min", "max", "avg"};
    return std::string(kDistributions[distribution]) + "_d" +
           std::to_string(num_dims) + "_k" + std::to_string(workers) +
           "_b" + std::to_string(budget_shift) + "_" +
           kAggregates[aggregate] + "_s" + std::to_string(seed);
  }
};

Relation MakeRelation(const Config& config) {
  const int64_t n = 900;
  switch (config.distribution) {
    case 0:
      return GenUniform(n, config.num_dims, 10, config.seed);
    case 1:
      return GenZipf(n, std::min(2, config.num_dims),
                     std::max(0, config.num_dims - 2), 40, 1.1, config.seed);
    default:
      return GenPlantedSkew(
          n, config.num_dims, {0.35, 0.2},
          std::vector<int64_t>(static_cast<size_t>(config.num_dims), 8),
          config.seed);
  }
}

/// A deterministic grid, deliberately smaller than differential_test's:
/// under TSan every memory access is instrumented and the host may have a
/// single core, so this sweep favors breadth of shapes over volume.
std::vector<Config> MakeGrid() {
  std::vector<Config> grid;
  Rng rng(0x7EADED);
  for (int i = 0; i < 8; ++i) {
    Config config;
    config.distribution = static_cast<int>(rng.NextBounded(3));
    config.num_dims = 1 + static_cast<int>(rng.NextBounded(4));
    config.workers = 2 + static_cast<int>(rng.NextBounded(5));
    config.budget_shift = static_cast<int>(rng.NextBounded(4));
    config.aggregate = static_cast<int>(rng.NextBounded(5));
    config.seed = 7000 + i;
    grid.push_back(config);
  }
  return grid;
}

/// `host_threads` 0 runs serial; > 1 runs the work-stealing pool (pinned
/// to a fixed count so the grid behaves the same on any host).
EngineConfig MakeCluster(const Config& config, int host_threads) {
  EngineConfig cluster;
  cluster.num_workers = config.workers;
  cluster.memory_budget_bytes = int64_t{1} << (10 + 2 * config.budget_shift);
  cluster.network_bandwidth_bytes_per_sec = 0;
  cluster.host_threads = host_threads;
  return cluster;
}

/// Every algorithm under study, including the combiner variant whose
/// map-side merge path exercises the shuffle buffers concurrently.
struct AlgorithmSet {
  SpCubeAlgorithm sp;
  NaiveCubeAlgorithm naive;
  NaiveCubeAlgorithm naive_combiner{NaiveCubeOptions{true}};
  MrCubeAlgorithm mrcube;
  HiveCubeAlgorithm hive;
  TopDownCubeAlgorithm topdown;

  std::vector<CubeAlgorithm*> All() {
    return {&sp, &naive, &naive_combiner, &mrcube, &hive, &topdown};
  }
};

class ThreadedDifferentialTest : public ::testing::TestWithParam<Config> {};

TEST_P(ThreadedDifferentialTest, ThreadedRunsMatchReference) {
  const Config& config = GetParam();
  const Relation rel = MakeRelation(config);
  const AggregateKind kind = static_cast<AggregateKind>(config.aggregate);
  const CubeResult reference = ComputeCubeReference(rel, kind);

  AlgorithmSet algorithms;
  for (CubeAlgorithm* algorithm : algorithms.All()) {
    DistributedFileSystem dfs;
    Engine engine(MakeCluster(config, /*host_threads=*/4), &dfs);
    CubeRunOptions options;
    options.aggregate = kind;
    auto output = algorithm->Run(engine, rel, options);
    ASSERT_TRUE(output.ok())
        << config.Name() << " / " << algorithm->name() << ": "
        << output.status();
    std::string diff;
    EXPECT_TRUE(
        CubeResult::ApproxEqual(reference, *output->cube, 1e-6, &diff))
        << config.Name() << " / " << algorithm->name() << ":\n"
        << diff;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadedGrid, ThreadedDifferentialTest,
                         ::testing::ValuesIn(MakeGrid()),
                         [](const ::testing::TestParamInfo<Config>& info) {
                           return info.param.Name();
                         });

/// Threads plus a deterministic chaos plan: the retry/crash/speculation
/// machinery runs concurrently with the fault bookkeeping, which is where
/// unsynchronized counters would race. Exactness must survive.
class ThreadedFaultedTest : public ::testing::TestWithParam<Config> {};

TEST_P(ThreadedFaultedTest, ThreadedRecoveryIsExact) {
  const Config& config = GetParam();
  const Relation rel = MakeRelation(config);
  const AggregateKind kind = static_cast<AggregateKind>(config.aggregate);
  const CubeResult reference = ComputeCubeReference(rel, kind);

  FaultConfig chaos;
  chaos.seed = config.seed;
  chaos.map_failure_rate = 0.25;
  chaos.reduce_failure_rate = 0.25;
  chaos.straggler_rate = 0.2;
  chaos.dfs_read_error_rate = 0.2;
  chaos.payload_corruption_rate = 0.25;
  chaos.forced_worker_crashes = 1;

  SpCubeAlgorithm sp;
  MrCubeAlgorithm mrcube;
  for (CubeAlgorithm* algorithm :
       std::initializer_list<CubeAlgorithm*>{&sp, &mrcube}) {
    FaultPlan plan(chaos);
    EngineConfig cluster = MakeCluster(config, /*host_threads=*/4);
    cluster.fault_plan = &plan;
    cluster.min_task_attempts = 3;
    cluster.retry_backoff_seconds = 0.01;
    DistributedFileSystem dfs;
    Engine engine(cluster, &dfs);
    CubeRunOptions options;
    options.aggregate = kind;
    auto output = algorithm->Run(engine, rel, options);
    ASSERT_TRUE(output.ok())
        << config.Name() << " / " << algorithm->name() << ": "
        << output.status();
    std::string diff;
    EXPECT_TRUE(
        CubeResult::ApproxEqual(reference, *output->cube, 1e-6, &diff))
        << config.Name() << " / " << algorithm->name() << ":\n"
        << diff;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadedGrid, ThreadedFaultedTest,
                         ::testing::ValuesIn(MakeGrid()),
                         [](const ::testing::TestParamInfo<Config>& info) {
                           return info.param.Name();
                         });

/// The modeled (deterministic) slice of a round's metrics. Measured
/// per-machine phase seconds are excluded on purpose: serial runs measure
/// steady-clock time, threaded runs per-thread CPU time, so their values
/// legitimately differ — everything else must not.
std::string ModeledMetricsFingerprint(const RunMetrics& metrics) {
  std::string fp;
  for (const JobMetrics& round : metrics.rounds) {
    fp += round.job_name + "{";
    fp += "mi=" + std::to_string(round.map_input_records);
    fp += ",mo=" + std::to_string(round.map_output_records);
    fp += ",mob=" + std::to_string(round.map_output_bytes);
    fp += ",sr=" + std::to_string(round.shuffle_records);
    fp += ",sb=" + std::to_string(round.shuffle_bytes);
    fp += ",ci=" + std::to_string(round.combine_input_records);
    fp += ",co=" + std::to_string(round.combine_output_records);
    fp += ",sp=" + std::to_string(round.spill_bytes);
    fp += ",out=" + std::to_string(round.output_records);
    fp += ",retry=" + std::to_string(round.task_retries);
    fp += ",reexec=" + std::to_string(round.tasks_reexecuted_after_crash);
    fp += ",crash=" + std::to_string(round.workers_crashed);
    fp += ",spec=" + std::to_string(round.tasks_speculatively_reexecuted);
    fp += ",ck=" + std::to_string(round.shuffle_checksum_mismatches);
    fp += ",split=" + std::to_string(round.reduce_partitions_split);
    fp += ",rr=" + std::to_string(round.recovery_rounds);
    fp += ",rb=" + std::to_string(round.recovery_bytes_reshuffled);
    for (size_t r = 0; r < round.reducer_input_records.size(); ++r) {
      fp += ",r" + std::to_string(r) + "=" +
            std::to_string(round.reducer_input_records[r]) + "/" +
            std::to_string(round.reducer_input_bytes[r]) + "/" +
            std::to_string(round.reducer_output_records[r]);
    }
    for (size_t r = 0; r < round.reducer_wire_bytes.size(); ++r) {
      fp += ",w" + std::to_string(r) + "=" +
            std::to_string(round.reducer_wire_bytes[r]);
    }
    for (const auto& [name, value] : round.custom_counters) {
      fp += "," + name + "=" + std::to_string(value);
    }
    fp += "}";
  }
  return fp;
}

/// Byte-exact snapshot of the cube the run laid out on the DFS
/// (cuboid_<mask>/part-<reducer>): path -> contents, in path order.
std::string DfsCubeFingerprint(const DistributedFileSystem& dfs,
                               const std::string& root) {
  std::string fp;
  for (const std::string& path : dfs.List(root)) {
    auto contents = dfs.Read(path);
    EXPECT_TRUE(contents.ok()) << path << ": " << contents.status();
    if (!contents.ok()) continue;
    fp += path + "#" + std::to_string(contents->size()) + ":" + *contents +
          "\n";
  }
  return fp;
}

struct DeterminismProbe {
  std::unique_ptr<CubeResult> cube;
  std::string metrics_fp;
  std::string dfs_fp;
  int64_t partitions_split = 0;
};

using CubeRunFn =
    std::function<Result<CubeRunOutput>(Engine&, const CubeRunOptions&)>;

Result<DeterminismProbe> RunProbe(const CubeRunFn& run, const Config& config,
                                  int host_threads, FaultConfig* chaos) {
  EngineConfig cluster = MakeCluster(config, host_threads);
  FaultPlan plan(chaos != nullptr ? *chaos : FaultConfig{});
  if (chaos != nullptr) {
    cluster.fault_plan = &plan;
    cluster.min_task_attempts = 3;
    cluster.retry_backoff_seconds = 0.01;
  }
  DistributedFileSystem dfs;
  Engine engine(cluster, &dfs);
  CubeRunOptions options;
  options.aggregate = static_cast<AggregateKind>(config.aggregate);
  options.dfs_output_root = "determinism/cube";
  auto output = run(engine, options);
  if (!output.ok()) return output.status();
  // The run is over: read the cube back without chaos so the fingerprint
  // reflects the committed bytes, not the test's own injected read luck.
  dfs.SetFaultInjector(nullptr);
  DeterminismProbe probe;
  probe.cube = std::move(output->cube);
  probe.metrics_fp = ModeledMetricsFingerprint(output->metrics);
  probe.dfs_fp = DfsCubeFingerprint(dfs, options.dfs_output_root);
  probe.partitions_split = output->metrics.ReducePartitionsSplit();
  return probe;
}

Result<DeterminismProbe> RunProbe(CubeAlgorithm* algorithm,
                                  const Config& config, const Relation& rel,
                                  int host_threads, FaultConfig* chaos) {
  return RunProbe(
      [algorithm, &rel](Engine& engine, const CubeRunOptions& options) {
        return algorithm->Run(engine, rel, options);
      },
      config, host_threads, chaos);
}

/// Same seed, same config: serial and work-stealing pool runs must agree
/// on the cube (as text), the bytes written to the DFS, the user counters
/// and every modeled metric — scheduling must be unobservable
/// (docs/INTERNALS.md §14). Checked clean and under chaos with retry
/// backoff.
TEST(ThreadedDeterminismTest, SerialThreadedAndStolenRunsAreIndistinguishable) {
  Config config;
  config.distribution = 2;
  config.num_dims = 3;
  config.workers = 5;
  config.budget_shift = 1;
  config.aggregate = 1;  // sum
  config.seed = 4242;
  const Relation rel = MakeRelation(config);

  FaultConfig chaos;
  chaos.seed = config.seed;
  chaos.map_failure_rate = 0.2;
  chaos.reduce_failure_rate = 0.2;
  chaos.straggler_rate = 0.2;
  chaos.dfs_read_error_rate = 0.15;
  chaos.payload_corruption_rate = 0.2;
  chaos.forced_worker_crashes = 1;

  AlgorithmSet algorithms;
  for (CubeAlgorithm* algorithm : algorithms.All()) {
    for (FaultConfig* plan :
         std::initializer_list<FaultConfig*>{nullptr, &chaos}) {
      const char* mode = plan == nullptr ? "clean" : "chaos";
      auto serial =
          RunProbe(algorithm, config, rel, /*host_threads=*/0, plan);
      ASSERT_TRUE(serial.ok()) << algorithm->name() << ": "
                               << serial.status();
      auto pooled =
          RunProbe(algorithm, config, rel, /*host_threads=*/4, plan);
      ASSERT_TRUE(pooled.ok()) << algorithm->name() << ": "
                               << pooled.status();
      std::string diff;
      EXPECT_TRUE(CubeResult::ApproxEqual(*serial->cube, *pooled->cube,
                                          /*tolerance=*/0.0, &diff))
          << algorithm->name() << " (" << mode << "): cube diverged:\n"
          << diff;
      EXPECT_EQ(serial->dfs_fp, pooled->dfs_fp)
          << algorithm->name() << " (" << mode << "): DFS bytes diverged";
      EXPECT_EQ(serial->metrics_fp, pooled->metrics_fp)
          << algorithm->name() << " (" << mode
          << "): modeled metrics diverged";
    }
  }
}

/// The compressed spill path (docs/INTERNALS.md §13) under the same probe:
/// a tight budget pushes SP-Cube's shuffle through delta-encoded spill runs
/// written and merged on worker threads, and a threaded run must agree
/// with the serial run in the cube bytes, user counters and every
/// modeled metric. TSan covers the spill codec via this test.
TEST(ThreadedDeterminismTest, CompressedStorageIsScheduleAndModelInvisible) {
  Config config;
  config.distribution = 1;  // zipf: hot groups make spills + redundancy
  config.num_dims = 3;
  config.workers = 5;
  config.budget_shift = 0;  // tight budget so the spill path engages
  config.aggregate = 4;     // avg: order-sensitive if anything reorders
  config.seed = 1313;
  const Relation rel = MakeRelation(config);

  FaultConfig chaos;
  chaos.seed = config.seed;
  chaos.map_failure_rate = 0.2;
  chaos.reduce_failure_rate = 0.2;
  chaos.dfs_read_error_rate = 0.15;
  chaos.payload_corruption_rate = 0.2;

  SpCubeAlgorithm algorithm;

  for (FaultConfig* plan :
       std::initializer_list<FaultConfig*>{nullptr, &chaos}) {
    const char* mode = plan == nullptr ? "clean" : "chaos";
    auto serial = RunProbe(&algorithm, config, rel, /*host_threads=*/0, plan);
    ASSERT_TRUE(serial.ok()) << mode << ": " << serial.status();
    auto pooled = RunProbe(&algorithm, config, rel, /*host_threads=*/4, plan);
    ASSERT_TRUE(pooled.ok()) << mode << ": " << pooled.status();
    std::string diff;
    EXPECT_TRUE(CubeResult::ApproxEqual(*serial->cube, *pooled->cube,
                                        /*tolerance=*/0.0, &diff))
        << mode << ": cube diverged from serial run:\n"
        << diff;
    EXPECT_EQ(serial->dfs_fp, pooled->dfs_fp)
        << mode << ": DFS bytes diverged";
    EXPECT_EQ(serial->metrics_fp, pooled->metrics_fp)
        << mode << ": modeled metrics diverged";
  }
}

/// Split recovery under the probe: SP-Cube with a stale drift sketch and
/// strict reducer memory, and Hive with opt-in split recovery, overflow
/// partitions that split, recursively, and merge. A split partition's part
/// files hold its whole groups' outputs in leaf order, then the merged
/// keys; a threaded run must write the same bytes and model the same
/// metrics as a serial one.
TEST(ThreadedDeterminismTest, SplitRecoveryOutputIsScheduleInvisible) {
  Config config{};
  config.workers = 4;
  config.budget_shift = 2;  // 16 KB reducer memory
  config.aggregate = 0;     // count: mergeable, so recovery is allowed

  DriftSpec drift;
  drift.num_batches = 3;
  drift.start_exponent = 0.3;
  drift.end_exponent = 1.5;
  drift.churn_period = 1;
  drift.churn_step = 311;
  const Relation old_batch = GenDriftBatch(drift, 0, 4000, 2026);
  const Relation new_batch = GenDriftBatch(drift, 2, 4000, 2026);
  const Relation binomial = GenBinomial(4000, 3, 0.5, 301);

  SpCubeOptions sp_options;
  sp_options.strict_reducer_memory = true;
  SpCubeAlgorithm sp(sp_options);
  HiveCubeOptions hive_options;
  hive_options.strict_reducer_memory = true;
  hive_options.allow_split_recovery = true;
  HiveCubeAlgorithm hive(hive_options);
  const std::vector<std::pair<std::string, CubeRunFn>> runs = {
      {"spcube-stale-sketch",
       [&](Engine& engine, const CubeRunOptions& options) {
         return sp.RunWithSketchFrom(engine, old_batch, new_batch, options);
       }},
      {"hive-split-recovery",
       [&](Engine& engine, const CubeRunOptions& options) {
         return hive.Run(engine, binomial, options);
       }},
  };
  for (const auto& [name, run] : runs) {
    auto serial = RunProbe(run, config, /*host_threads=*/1, nullptr);
    ASSERT_TRUE(serial.ok()) << name << ": " << serial.status();
    EXPECT_GT(serial->partitions_split, 0) << name << ": nothing split";
    auto pooled = RunProbe(run, config, /*host_threads=*/4, nullptr);
    ASSERT_TRUE(pooled.ok()) << name << ": " << pooled.status();
    std::string diff;
    EXPECT_TRUE(CubeResult::ApproxEqual(*serial->cube, *pooled->cube,
                                        /*tolerance=*/0.0, &diff))
        << name << ": cube diverged:\n"
        << diff;
    EXPECT_EQ(serial->dfs_fp, pooled->dfs_fp) << name << ": DFS bytes diverged";
    EXPECT_EQ(serial->metrics_fp, pooled->metrics_fp)
        << name << ": modeled metrics diverged";
  }
}

/// Determinism & model-purity probe (docs/INTERNALS.md §14): the dynamic
/// twin of the analyzer's unordered-iteration-escape family. SP-Cube's
/// mapper-side skew partials, Hive's map-side hash aggregation, and the
/// sketch serializer all drain hash tables into emitted records or wire
/// bytes; §14 requires those drains to run in canonical key order, so any
/// regression to raw bucket order shows up here as a DFS or metrics
/// fingerprint mismatch across host-thread counts. The drifting batched
/// stream keeps the hash tables hot (changing heavy hitters per batch).
/// Every host_threads setting must be indistinguishable from the serial
/// baseline.
TEST(ThreadedDeterminismTest, DriftBatchesMatchAcrossThreadsAndCompression) {
  Config config;
  config.distribution = 1;
  config.num_dims = 3;
  config.workers = 5;
  config.budget_shift = 1;
  config.aggregate = 1;  // sum: exercises the skew-partial merge path
  config.seed = 2026;

  DriftSpec spec;
  spec.num_batches = 2;
  spec.num_zipf_dims = 2;
  spec.num_uniform_dims = 1;
  spec.domain = 60;
  spec.start_exponent = 0.7;
  spec.end_exponent = 1.5;

  SpCubeAlgorithm sp;
  HiveCubeAlgorithm hive;
  for (int batch = 0; batch < spec.num_batches; ++batch) {
    const Relation rel =
        GenDriftBatch(spec, batch, /*num_rows=*/700, config.seed);
    for (CubeAlgorithm* algorithm :
         std::initializer_list<CubeAlgorithm*>{&sp, &hive}) {
      auto baseline = RunProbe(algorithm, config, rel, /*host_threads=*/0,
                               /*chaos=*/nullptr);
      ASSERT_TRUE(baseline.ok()) << algorithm->name() << " batch=" << batch
                                 << ": " << baseline.status();
      for (int host_threads : {2, 4}) {
        auto probe =
            RunProbe(algorithm, config, rel, host_threads, /*chaos=*/nullptr);
        ASSERT_TRUE(probe.ok()) << algorithm->name() << " batch=" << batch
                                << ": " << probe.status();
        std::string diff;
        EXPECT_TRUE(CubeResult::ApproxEqual(*baseline->cube, *probe->cube,
                                            /*tolerance=*/0.0, &diff))
            << algorithm->name() << " batch=" << batch << " threads="
            << host_threads << ": cube diverged:\n"
            << diff;
        EXPECT_EQ(baseline->dfs_fp, probe->dfs_fp)
            << algorithm->name() << " batch=" << batch << " threads="
            << host_threads << ": DFS bytes diverged";
        EXPECT_EQ(baseline->metrics_fp, probe->metrics_fp)
            << algorithm->name() << " batch=" << batch << " threads="
            << host_threads << ": modeled metrics diverged";
      }
    }
  }
}

}  // namespace
}  // namespace spcube
