// Randomized differential testing: for a swept grid of (distribution,
// dimensions, cluster size, memory budget, aggregate, seed) configurations,
// every distributed algorithm must reproduce the in-memory reference cube
// bit-for-bit (within fp tolerance for avg). This is the harness that keeps
// the whole stack honest as it evolves.

#include <gtest/gtest.h>

#include <string>

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
  int distribution;   // 0..5
  int num_dims;       // 1..5
  int workers;        // 1..8
  int budget_shift;   // memory budget = 1 << (10 + 2*shift)
  int aggregate;      // AggregateKind
  uint64_t seed;

  std::string Name() const {
    static const char* kDistributions[] = {"uniform", "binomial", "zipf",
                                           "planted", "monotonic",
                                           "independent"};
    static const char* kAggregates[] = {"count", "sum", "min", "max", "avg"};
    return std::string(kDistributions[distribution]) + "_d" +
           std::to_string(num_dims) + "_k" + std::to_string(workers) +
           "_b" + std::to_string(budget_shift) + "_" +
           kAggregates[aggregate] + "_s" + std::to_string(seed);
  }
};

Relation MakeRelation(const Config& config) {
  const int64_t n = 1200;
  switch (config.distribution) {
    case 0:
      return GenUniform(n, config.num_dims, 12, config.seed);
    case 1:
      return GenBinomial(n, config.num_dims, 0.45, config.seed);
    case 2:
      return GenZipf(n, std::min(2, config.num_dims),
                     config.num_dims - std::min(2, config.num_dims) == 0
                         ? 0
                         : config.num_dims - 2,
                     50, 1.1, config.seed);
    case 3:
      return GenPlantedSkew(
          n, config.num_dims, {0.35, 0.2},
          std::vector<int64_t>(static_cast<size_t>(config.num_dims), 9),
          config.seed);
    case 4:
      return GenMonotonicSkew(n, config.num_dims, 0.5, 40, config.seed);
    default:
      return GenIndependentSkew(n, config.num_dims, 0.35, 15, config.seed);
  }
}

/// Deterministically derives a pseudo-random configuration grid.
std::vector<Config> MakeGrid() {
  std::vector<Config> grid;
  Rng rng(0xD1FFEE);
  for (int i = 0; i < 36; ++i) {
    Config config;
    config.distribution = static_cast<int>(rng.NextBounded(6));
    config.num_dims = 1 + static_cast<int>(rng.NextBounded(5));
    config.workers = 1 + static_cast<int>(rng.NextBounded(8));
    config.budget_shift = static_cast<int>(rng.NextBounded(4));
    config.aggregate = static_cast<int>(rng.NextBounded(5));
    config.seed = 1000 + i;
    grid.push_back(config);
  }
  return grid;
}

class DifferentialTest : public ::testing::TestWithParam<Config> {};

TEST_P(DifferentialTest, AllAlgorithmsMatchReference) {
  const Config& config = GetParam();
  const Relation rel = MakeRelation(config);
  const AggregateKind kind = static_cast<AggregateKind>(config.aggregate);
  const CubeResult reference = ComputeCubeReference(rel, kind);

  EngineConfig cluster;
  cluster.num_workers = config.workers;
  cluster.memory_budget_bytes = int64_t{1} << (10 + 2 * config.budget_shift);
  cluster.network_bandwidth_bytes_per_sec = 0;

  SpCubeAlgorithm sp;
  NaiveCubeAlgorithm naive;
  MrCubeAlgorithm mrcube;
  HiveCubeAlgorithm hive;
  TopDownCubeAlgorithm topdown;
  for (CubeAlgorithm* algorithm : std::initializer_list<CubeAlgorithm*>{
           &sp, &naive, &mrcube, &hive, &topdown}) {
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

INSTANTIATE_TEST_SUITE_P(RandomGrid, DifferentialTest,
                         ::testing::ValuesIn(MakeGrid()),
                         [](const ::testing::TestParamInfo<Config>& info) {
                           return info.param.Name();
                         });

/// The same grid under a deterministic chaos plan: task failures, one
/// forced worker crash, transient DFS read errors and in-flight payload
/// corruption. Recovery must be invisible — bit-exact cubes AND the same
/// per-round user counters as a fault-free run, proving failed attempts
/// leave no trace in either output or accounting.
class FaultedDifferentialTest : public ::testing::TestWithParam<Config> {};

TEST_P(FaultedDifferentialTest, RecoveryIsExactAndCounterInvisible) {
  const Config& config = GetParam();
  const Relation rel = MakeRelation(config);
  const AggregateKind kind = static_cast<AggregateKind>(config.aggregate);
  const CubeResult reference = ComputeCubeReference(rel, kind);

  EngineConfig cluster;
  cluster.num_workers = config.workers;
  cluster.memory_budget_bytes = int64_t{1} << (10 + 2 * config.budget_shift);
  cluster.network_bandwidth_bytes_per_sec = 0;

  FaultConfig chaos;
  chaos.seed = config.seed;
  chaos.map_failure_rate = 0.25;
  chaos.reduce_failure_rate = 0.25;
  chaos.straggler_rate = 0.2;
  chaos.dfs_read_error_rate = 0.2;
  chaos.payload_corruption_rate = 0.25;
  chaos.forced_worker_crashes = 1;

  SpCubeAlgorithm sp_clean, sp_faulted;
  MrCubeAlgorithm mr_clean, mr_faulted;
  const std::pair<CubeAlgorithm*, CubeAlgorithm*> pairs[] = {
      {&sp_clean, &sp_faulted}, {&mr_clean, &mr_faulted}};
  for (const auto& [clean_algorithm, faulted_algorithm] : pairs) {
    CubeRunOptions options;
    options.aggregate = kind;

    DistributedFileSystem clean_dfs;
    Engine clean_engine(cluster, &clean_dfs);
    auto clean = clean_algorithm->Run(clean_engine, rel, options);
    ASSERT_TRUE(clean.ok()) << config.Name() << " / "
                            << clean_algorithm->name() << ": "
                            << clean.status();

    EngineConfig faulted_cluster = cluster;
    FaultPlan plan(chaos);
    faulted_cluster.fault_plan = &plan;
    faulted_cluster.min_task_attempts = 3;
    faulted_cluster.retry_backoff_seconds = 0.01;
    DistributedFileSystem faulted_dfs;
    Engine faulted_engine(faulted_cluster, &faulted_dfs);
    auto faulted = faulted_algorithm->Run(faulted_engine, rel, options);
    ASSERT_TRUE(faulted.ok()) << config.Name() << " / "
                              << faulted_algorithm->name() << ": "
                              << faulted.status();

    std::string diff;
    EXPECT_TRUE(
        CubeResult::ApproxEqual(reference, *faulted->cube, 1e-6, &diff))
        << config.Name() << " / " << faulted_algorithm->name() << ":\n"
        << diff;

    // Counter invisibility: failed attempts and crash re-executions must
    // not leak into the per-round user counters.
    ASSERT_EQ(faulted->metrics.rounds.size(), clean->metrics.rounds.size())
        << config.Name() << " / " << faulted_algorithm->name();
    for (size_t r = 0; r < clean->metrics.rounds.size(); ++r) {
      EXPECT_EQ(faulted->metrics.rounds[r].custom_counters,
                clean->metrics.rounds[r].custom_counters)
          << config.Name() << " / " << faulted_algorithm->name()
          << " round " << r;
      EXPECT_EQ(faulted->metrics.rounds[r].output_records,
                clean->metrics.rounds[r].output_records)
          << config.Name() << " / " << faulted_algorithm->name()
          << " round " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGrid, FaultedDifferentialTest,
                         ::testing::ValuesIn(MakeGrid()),
                         [](const ::testing::TestParamInfo<Config>& info) {
                           return info.param.Name();
                         });

/// Compressed spill storage (docs/INTERNALS.md §13) under the same grid:
/// tight budgets push SP-Cube's shuffle through delta-encoded spill runs,
/// and the cube must stay exact. Payload-denominated metrics never see the
/// encoding; wire bytes (segment payloads plus spilled-run file bytes)
/// collapse to the payload when nothing spilled.
class CompressedStorageDifferentialTest
    : public ::testing::TestWithParam<Config> {};

TEST_P(CompressedStorageDifferentialTest, EncodingIsExactAndMetricInvisible) {
  const Config& config = GetParam();
  const Relation rel = MakeRelation(config);
  const AggregateKind kind = static_cast<AggregateKind>(config.aggregate);
  const CubeResult reference = ComputeCubeReference(rel, kind);

  EngineConfig cluster;
  cluster.num_workers = config.workers;
  cluster.memory_budget_bytes = int64_t{1} << (10 + 2 * config.budget_shift);
  cluster.network_bandwidth_bytes_per_sec = 0;

  CubeRunOptions options;
  options.aggregate = kind;

  SpCubeAlgorithm sp;
  DistributedFileSystem dfs;
  Engine engine(cluster, &dfs);
  auto output = sp.Run(engine, rel, options);
  ASSERT_TRUE(output.ok()) << config.Name() << ": " << output.status();

  std::string diff;
  EXPECT_TRUE(CubeResult::ApproxEqual(reference, *output->cube, 1e-6, &diff))
      << config.Name() << " vs reference:\n" << diff;

  for (size_t r = 0; r < output->metrics.rounds.size(); ++r) {
    const JobMetrics& m = output->metrics.rounds[r];
    int64_t payload = 0;
    for (int64_t bytes : m.reducer_input_bytes) payload += bytes;
    int64_t wire = 0;
    for (int64_t bytes : m.reducer_wire_bytes) wire += bytes;
    EXPECT_EQ(m.shuffle_bytes, payload) << config.Name() << " round " << r;
    if (m.spill_bytes == 0) {
      EXPECT_EQ(wire, m.shuffle_bytes) << config.Name() << " round " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGrid, CompressedStorageDifferentialTest,
                         ::testing::ValuesIn(MakeGrid()),
                         [](const ::testing::TestParamInfo<Config>& info) {
                           return info.param.Name();
                         });

TEST(SketchDegradationTest, CorruptedBroadcastDegradesToExactHashFallback) {
  // Persistently corrupt the SP-Sketch broadcast: every fetch by every
  // reader is damaged, so no retry can recover it. SP-Cube must fall back
  // to an empty sketch + hash partitioning — exactness is unconditional on
  // sketch quality (docs/INTERNALS.md §2) — and count the degradation.
  const Relation rel = GenZipf(1500, 2, 0, 40, 1.2, 321);
  const CubeResult reference =
      ComputeCubeReference(rel, AggregateKind::kCount);

  EngineConfig cluster;
  cluster.num_workers = 4;
  cluster.memory_budget_bytes = 1 << 20;
  cluster.network_bandwidth_bytes_per_sec = 0;

  FaultConfig chaos;
  chaos.seed = 1;
  chaos.corrupt_sketch_broadcast = true;
  FaultPlan plan(chaos);
  cluster.fault_plan = &plan;

  SpCubeAlgorithm sp;
  DistributedFileSystem dfs;
  Engine engine(cluster, &dfs);
  CubeRunOptions options;
  options.aggregate = AggregateKind::kCount;
  auto output = sp.Run(engine, rel, options);
  ASSERT_TRUE(output.ok()) << output.status();
  std::string diff;
  EXPECT_TRUE(
      CubeResult::ApproxEqual(reference, *output->cube, 1e-6, &diff))
      << diff;
  // Every round-2 task (4 mappers, 5 reducers) noticed and degraded.
  EXPECT_GT(
      output->metrics.CustomCounter("spcube.sketch_degraded_fallbacks"), 0);
}

}  // namespace
}  // namespace spcube
