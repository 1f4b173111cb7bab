// Tests for the iceberg-cube extension: every algorithm, with
// iceberg_min_count = T, must output exactly the reference groups whose
// cardinality is >= T.

#include <gtest/gtest.h>

#include "baselines/hive.h"
#include "baselines/mrcube.h"
#include "baselines/naive.h"
#include "baselines/topdown.h"
#include "core/cube_output.h"
#include "core/sp_cube.h"
#include "cube/cube_result.h"
#include "relation/generators.h"

namespace spcube {
namespace {

EngineConfig TestConfig() {
  EngineConfig config;
  config.num_workers = 5;
  config.memory_budget_bytes = 4 << 20;
  config.network_bandwidth_bytes_per_sec = 0;
  return config;
}

CubeResult FilteredReference(const Relation& rel, int64_t min_count) {
  CubeResult full = ComputeCubeReference(rel, AggregateKind::kCount);
  CubeResult filtered(rel.num_dims());
  for (const auto& [key, value] : full.groups()) {
    if (value >= static_cast<double>(min_count)) {
      filtered.UpsertGroup(key, value);
    }
  }
  return filtered;
}

void ExpectIcebergMatches(CubeAlgorithm& algorithm, const Relation& rel,
                          int64_t min_count) {
  DistributedFileSystem dfs;
  Engine engine(TestConfig(), &dfs);
  CubeRunOptions options;
  options.iceberg_min_count = min_count;
  options.dfs_output_root = "iceberg/out";
  auto output = algorithm.Run(engine, rel, options);
  ASSERT_TRUE(output.ok()) << algorithm.name() << ": " << output.status();
  CubeResult expected = FilteredReference(rel, min_count);
  std::string diff;
  EXPECT_TRUE(
      CubeResult::ApproxEqual(expected, *output->cube, 1e-6, &diff))
      << algorithm.name() << " T=" << min_count << ":\n"
      << diff;
  // The DFS copy holds exactly the in-memory cells.
  auto from_dfs = ReadCubeFromDfs(dfs, options.dfs_output_root,
                                  rel.num_dims());
  ASSERT_TRUE(from_dfs.ok()) << algorithm.name() << ": " << from_dfs.status();
  EXPECT_TRUE(CubeResult::ApproxEqual(*output->cube, *from_dfs, 0.0, &diff))
      << algorithm.name() << " T=" << min_count << " (DFS):\n"
      << diff;
}

class IcebergTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(IcebergTest, SpCubeMatchesFilteredReference) {
  SpCubeAlgorithm algorithm;
  ExpectIcebergMatches(algorithm, GenBinomial(2000, 3, 0.4, 51), GetParam());
}

TEST_P(IcebergTest, NaiveMatchesFilteredReference) {
  NaiveCubeAlgorithm algorithm;
  ExpectIcebergMatches(algorithm, GenBinomial(2000, 3, 0.4, 51), GetParam());
}

TEST_P(IcebergTest, MrCubeMatchesFilteredReference) {
  MrCubeAlgorithm algorithm;
  ExpectIcebergMatches(algorithm, GenBinomial(2000, 3, 0.4, 51), GetParam());
}

TEST_P(IcebergTest, HiveMatchesFilteredReference) {
  HiveCubeAlgorithm algorithm;
  ExpectIcebergMatches(algorithm, GenBinomial(2000, 3, 0.4, 51), GetParam());
}

TEST_P(IcebergTest, TopDownMatchesFilteredReference) {
  TopDownCubeAlgorithm algorithm;
  ExpectIcebergMatches(algorithm, GenBinomial(2000, 3, 0.4, 51), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Thresholds, IcebergTest,
                         ::testing::Values(2, 5, 25, 200));

TEST(IcebergTest, ZipfWorkload) {
  Relation rel = GenZipfPaper(2500, 53);
  SpCubeAlgorithm sp;
  ExpectIcebergMatches(sp, rel, 10);
  NaiveCubeAlgorithm naive;
  ExpectIcebergMatches(naive, rel, 10);
}

TEST(IcebergTest, ThresholdOneIsFullCube) {
  Relation rel = GenUniform(1000, 3, 10, 55);
  SpCubeAlgorithm sp;
  ExpectIcebergMatches(sp, rel, 1);
}

TEST(IcebergTest, HugeThresholdKeepsOnlyApex) {
  Relation rel = GenUniform(1000, 3, 50, 57);
  DistributedFileSystem dfs;
  Engine engine(TestConfig(), &dfs);
  SpCubeAlgorithm sp;
  CubeRunOptions options;
  options.iceberg_min_count = 1000;  // only the apex has 1000 tuples
  auto output = sp.Run(engine, rel, options);
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->cube->num_groups(), 1);
  EXPECT_EQ(output->cube->Lookup(GroupKey(0, {})).value(), 1000.0);
}

TEST(IcebergTest, RejectedForNonCountAggregates) {
  Relation rel = GenUniform(100, 2, 5, 59);
  DistributedFileSystem dfs;
  Engine engine(TestConfig(), &dfs);
  SpCubeAlgorithm sp;
  CubeRunOptions options;
  options.aggregate = AggregateKind::kSum;
  options.iceberg_min_count = 5;
  EXPECT_EQ(sp.Run(engine, rel, options).status().code(),
            StatusCode::kInvalidArgument);
  options.aggregate = AggregateKind::kCount;
  options.iceberg_min_count = 0;
  EXPECT_EQ(sp.Run(engine, rel, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(IcebergTest, AblationVariantsAlsoFilter) {
  Relation rel = GenBinomial(1500, 3, 0.5, 61);
  SpCubeOptions no_factorization;
  no_factorization.tuning.emit_minimal_groups_only = false;
  SpCubeAlgorithm sp(no_factorization);
  ExpectIcebergMatches(sp, rel, 8);
}

TEST(IcebergTest, ReducesOutputSize) {
  Relation rel = GenZipfPaper(3000, 63);
  DistributedFileSystem dfs;
  Engine engine(TestConfig(), &dfs);
  SpCubeAlgorithm sp;
  CubeRunOptions full;
  auto full_out = sp.Run(engine, rel, full);
  ASSERT_TRUE(full_out.ok());
  CubeRunOptions iceberg;
  iceberg.iceberg_min_count = 20;
  auto iceberg_out = sp.Run(engine, rel, iceberg);
  ASSERT_TRUE(iceberg_out.ok());
  EXPECT_LT(iceberg_out->cube->num_groups(),
            full_out->cube->num_groups() / 4);
}

}  // namespace
}  // namespace spcube
