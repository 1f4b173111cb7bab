// Metamorphic invariants every correct cube satisfies, checked on the
// output of every distributed algorithm (without consulting the reference
// cube — these catch errors the differential tests would miss if the
// reference itself were wrong):
//   * apex(count) == n; apex(sum) == sum of measures
//   * every cuboid's count values sum to n (each tuple in exactly 1 group)
//   * descendant dominance (Observation 2.6): dropping an attribute never
//     decreases a group's count
//   * group counts: cuboid C has at most min(n, prod of domains) groups
//   * min <= avg <= max per group

#include <gtest/gtest.h>

#include "baselines/hive.h"
#include "baselines/mrcube.h"
#include "baselines/naive.h"
#include "baselines/topdown.h"
#include "core/sp_cube.h"
#include "cube/cube_result.h"
#include "query/cube_store.h"
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

CubeResult RunCube(CubeAlgorithm& algorithm, const Relation& rel,
                   AggregateKind kind) {
  DistributedFileSystem dfs;
  Engine engine(TestConfig(), &dfs);
  CubeRunOptions options;
  options.aggregate = kind;
  auto output = algorithm.Run(engine, rel, options);
  EXPECT_TRUE(output.ok()) << algorithm.name() << ": " << output.status();
  return output.ok() ? std::move(*output->cube) : CubeResult(rel.num_dims());
}

class InvariantsTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<CubeAlgorithm> MakeAlgorithm() {
    switch (GetParam()) {
      case 0:
        return std::make_unique<SpCubeAlgorithm>();
      case 1:
        return std::make_unique<NaiveCubeAlgorithm>();
      case 2:
        return std::make_unique<MrCubeAlgorithm>();
      case 3:
        return std::make_unique<HiveCubeAlgorithm>();
      default:
        return std::make_unique<TopDownCubeAlgorithm>();
    }
  }
};

TEST_P(InvariantsTest, CountInvariants) {
  Relation rel = GenZipfPaper(2500, 171);
  auto algorithm = MakeAlgorithm();
  CubeResult cube = RunCube(*algorithm, rel, AggregateKind::kCount);
  const double n = static_cast<double>(rel.num_rows());

  // Apex holds all tuples; every cuboid partitions the relation.
  EXPECT_EQ(cube.Lookup(GroupKey(0, {})).value(), n);
  CubeStore store(cube);
  for (CuboidMask mask = 0; mask < 16; ++mask) {
    double total = 0.0;
    for (const CubeCell& cell : store.Cuboid(mask)) total += cell.value;
    EXPECT_NEAR(total, n, 1e-6) << algorithm->name() << " cuboid " << mask;
  }

  // Descendant dominance.
  for (const auto& [key, value] : cube.groups()) {
    if (key.mask == 0) continue;
    std::vector<int64_t> expanded(4, 0);
    size_t vi = 0;
    for (int d = 0; d < 4; ++d) {
      if ((key.mask >> d) & 1) expanded[static_cast<size_t>(d)] = key.values[vi++];
    }
    for (CuboidMask coarser : ImmediateDescendants(key.mask)) {
      auto coarser_value =
          cube.Lookup(GroupKey::Project(coarser, expanded));
      ASSERT_TRUE(coarser_value.ok()) << algorithm->name();
      EXPECT_GE(coarser_value.value(), value) << algorithm->name();
    }
  }
}

TEST_P(InvariantsTest, SumAndBoundsInvariants) {
  Relation rel = GenBinomial(2000, 3, 0.4, 173);
  auto algorithm = MakeAlgorithm();
  CubeResult sum_cube = RunCube(*algorithm, rel, AggregateKind::kSum);
  CubeResult min_cube = RunCube(*algorithm, rel, AggregateKind::kMin);
  CubeResult max_cube = RunCube(*algorithm, rel, AggregateKind::kMax);
  CubeResult avg_cube = RunCube(*algorithm, rel, AggregateKind::kAvg);

  double total = 0;
  for (int64_t r = 0; r < rel.num_rows(); ++r) {
    total += static_cast<double>(rel.measure(r));
  }
  EXPECT_NEAR(sum_cube.Lookup(GroupKey(0, {})).value(), total, 1e-6);

  // All four cubes enumerate the same groups, and min <= avg <= max.
  ASSERT_EQ(sum_cube.num_groups(), avg_cube.num_groups());
  for (const auto& [key, avg] : avg_cube.groups()) {
    auto min_value = min_cube.Lookup(key);
    auto max_value = max_cube.Lookup(key);
    ASSERT_TRUE(min_value.ok());
    ASSERT_TRUE(max_value.ok());
    EXPECT_LE(min_value.value(), avg + 1e-9) << algorithm->name();
    EXPECT_GE(max_value.value() + 1e-9, avg) << algorithm->name();
  }
}

std::string AlgorithmName(const ::testing::TestParamInfo<int>& info) {
  switch (info.param) {
    case 0:
      return "spcube";
    case 1:
      return "naive";
    case 2:
      return "mrcube";
    case 3:
      return "hive";
    default:
      return "topdown";
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, InvariantsTest,
                         ::testing::Range(0, 5), AlgorithmName);

}  // namespace
}  // namespace spcube
