// End-to-end tests of the SP-Cube algorithm: exact agreement with the
// reference cube across workloads, aggregates and cluster shapes; the
// skew-routing invariants; robustness to degraded sketches; ablations.

#include <gtest/gtest.h>

#include <numeric>
#include <ostream>

#include "baselines/naive.h"
#include "core/sp_cube.h"
#include "cube/cube_result.h"
#include "relation/generators.h"

namespace spcube {
namespace {

EngineConfig TestConfig(int workers = 6) {
  EngineConfig config;
  config.num_workers = workers;
  config.memory_budget_bytes = 4 << 20;
  config.network_bandwidth_bytes_per_sec = 0;
  return config;
}

void ExpectMatchesReference(const Relation& rel, AggregateKind kind,
                            SpCubeOptions options = {}, int workers = 6) {
  DistributedFileSystem dfs;
  Engine engine(TestConfig(workers), &dfs);
  SpCubeAlgorithm algorithm(options);
  CubeRunOptions run_options;
  run_options.aggregate = kind;
  auto output = algorithm.Run(engine, rel, run_options);
  ASSERT_TRUE(output.ok()) << output.status();
  ASSERT_NE(output->cube, nullptr);
  CubeResult reference = ComputeCubeReference(rel, kind);
  std::string diff;
  EXPECT_TRUE(
      CubeResult::ApproxEqual(reference, *output->cube, 1e-6, &diff))
      << diff;
}

struct Workload {
  const char* name;
  Relation (*make)(uint64_t seed);
};

// gtest would otherwise print the struct's raw bytes, pointers included,
// and those bytes become part of the test names CTest discovers.
void PrintTo(const Workload& workload, std::ostream* os) {
  *os << workload.name;
}

Relation MakeUniform(uint64_t seed) { return GenUniform(3000, 4, 30, seed); }
Relation MakeTinyDomain(uint64_t seed) {
  return GenUniform(2000, 3, 3, seed);
}
Relation MakeBinomialLow(uint64_t seed) {
  return GenBinomial(3000, 4, 0.1, seed);
}
Relation MakeBinomialHigh(uint64_t seed) {
  return GenBinomial(3000, 4, 0.75, seed);
}
Relation MakeZipf(uint64_t seed) { return GenZipfPaper(3000, seed); }
Relation MakePlanted(uint64_t seed) {
  return GenPlantedSkew(3000, 4, {0.4, 0.2}, {20, 20, 20, 20}, seed);
}
Relation MakeMonotonic(uint64_t seed) {
  return GenMonotonicSkew(3000, 4, 0.5, 500, seed);
}
Relation MakeIndependent(uint64_t seed) {
  return GenIndependentSkew(3000, 4, 0.4, 100, seed);
}
Relation MakeWorstCase(uint64_t) { return GenWorstCaseTraffic(4, 80); }
Relation MakeOneDim(uint64_t seed) { return GenUniform(1000, 1, 10, seed); }
Relation MakeSixDims(uint64_t seed) {
  return GenBinomial(1500, 6, 0.3, seed);
}

class SpCubeWorkloadTest : public ::testing::TestWithParam<Workload> {};

TEST_P(SpCubeWorkloadTest, CountMatchesReference) {
  ExpectMatchesReference(GetParam().make(42), AggregateKind::kCount);
}

TEST_P(SpCubeWorkloadTest, SumMatchesReference) {
  ExpectMatchesReference(GetParam().make(43), AggregateKind::kSum);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SpCubeWorkloadTest,
    ::testing::Values(Workload{"uniform", MakeUniform},
                      Workload{"tiny_domain", MakeTinyDomain},
                      Workload{"binomial_low", MakeBinomialLow},
                      Workload{"binomial_high", MakeBinomialHigh},
                      Workload{"zipf", MakeZipf},
                      Workload{"planted", MakePlanted},
                      Workload{"monotonic", MakeMonotonic},
                      Workload{"independent", MakeIndependent},
                      Workload{"worst_case", MakeWorstCase},
                      Workload{"one_dim", MakeOneDim},
                      Workload{"six_dims", MakeSixDims}),
    [](const ::testing::TestParamInfo<Workload>& info) {
      return info.param.name;
    });

TEST(SpCubeTest, AllAggregateKinds) {
  Relation rel = GenBinomial(2000, 3, 0.4, 7);
  for (AggregateKind kind :
       {AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
        AggregateKind::kMax, AggregateKind::kAvg}) {
    ExpectMatchesReference(rel, kind);
  }
}

TEST(SpCubeTest, VariousClusterSizes) {
  Relation rel = GenZipfPaper(2500, 9);
  for (int workers : {1, 2, 5, 12}) {
    ExpectMatchesReference(rel, AggregateKind::kCount, {}, workers);
  }
}

TEST(SpCubeTest, EmptyRelation) {
  Relation rel(MakeAnonymousSchema(3));
  DistributedFileSystem dfs;
  Engine engine(TestConfig(), &dfs);
  SpCubeAlgorithm algorithm;
  auto output = algorithm.Run(engine, rel, {});
  ASSERT_TRUE(output.ok()) << output.status();
  EXPECT_EQ(output->cube->num_groups(), 0);
}

TEST(SpCubeTest, SingleRowRelation) {
  Relation rel(MakeAnonymousSchema(3));
  rel.AppendRow(std::vector<int64_t>{1, 2, 3}, 5);
  ExpectMatchesReference(rel, AggregateKind::kSum);
}

TEST(SpCubeTest, AllRowsIdentical) {
  // The most skewed possible input: every projection of every tuple is the
  // same group, and every group is skewed -> the whole cube flows through
  // the mapper partial-aggregation path and the skew reducer.
  Relation rel(MakeAnonymousSchema(3));
  for (int i = 0; i < 2000; ++i) {
    rel.AppendRow(std::vector<int64_t>{4, 5, 6}, 1);
  }
  ExpectMatchesReference(rel, AggregateKind::kCount);
}

TEST(SpCubeTest, TwoRoundsAndMetricsShape) {
  Relation rel = GenWikiLike(4000, 11);
  DistributedFileSystem dfs;
  Engine engine(TestConfig(8), &dfs);
  SpCubeAlgorithm algorithm;
  auto output = algorithm.Run(engine, rel, {});
  ASSERT_TRUE(output.ok());
  ASSERT_EQ(output->metrics.rounds.size(), 2u);
  EXPECT_EQ(output->metrics.rounds[0].job_name, "spcube-sketch");
  EXPECT_EQ(output->metrics.rounds[1].job_name, "spcube-cube");
  // Round 2 uses k+1 reducers.
  EXPECT_EQ(
      static_cast<int>(output->metrics.rounds[1].reducer_input_records.size()),
      9);
  EXPECT_GT(algorithm.last_sketch_bytes(), 0);
  EXPECT_GT(algorithm.last_sketch_skews(), 0);
  EXPECT_EQ(output->metrics.OutputRecords(),
            output->cube->num_groups() + 1);  // +1 sketch-stats row
}

TEST(SpCubeTest, SkewPartialsFlowToSkewReducer) {
  // Heavily skewed relation: the skew reducer (partition 0) must receive
  // only a handful of records (at most #mappers x #skewed-groups partials),
  // not raw tuples.
  const int64_t n = 4000;
  Relation rel = GenPlantedSkew(n, 3, {0.5}, {10, 10, 10}, 13);
  DistributedFileSystem dfs;
  Engine engine(TestConfig(4), &dfs);
  SpCubeAlgorithm algorithm;
  auto output = algorithm.Run(engine, rel, {});
  ASSERT_TRUE(output.ok());
  const JobMetrics& round2 = output->metrics.rounds[1];
  const int64_t skew_reducer_records = round2.reducer_input_records[0];
  EXPECT_GT(skew_reducer_records, 0);
  // 4 mappers x (at most 8 skewed groups + coarse ones): far below n.
  EXPECT_LT(skew_reducer_records, 4 * 50);
}

TEST(SpCubeTest, IntermediateDataFarBelowNaive) {
  // Observation 2.6 in action: SP-Cube ships each tuple O(d) times rather
  // than 2^d times.
  Relation rel = GenZipfPaper(3000, 17);
  DistributedFileSystem dfs;
  Engine engine(TestConfig(6), &dfs);

  SpCubeAlgorithm sp;
  auto sp_out = sp.Run(engine, rel, {});
  ASSERT_TRUE(sp_out.ok());

  NaiveCubeAlgorithm naive;
  auto naive_out = naive.Run(engine, rel, {});
  ASSERT_TRUE(naive_out.ok());

  EXPECT_LT(sp_out->metrics.ShuffleBytes(),
            naive_out->metrics.ShuffleBytes());
  // Naive ships exactly n * 2^d records.
  EXPECT_EQ(naive_out->metrics.rounds[0].map_output_records, 3000 * 16);
  // SP-Cube round 2 ships at most d+1 records per tuple plus skew partials.
  EXPECT_LT(sp_out->metrics.rounds[1].map_output_records, 3000 * (4 + 2));
}

TEST(SpCubeTest, RangePartitionerBalancesReducers) {
  // On skew-free data every range reducer should receive a near-equal
  // number of tuples (paper §6.2: "good balancing between reducers").
  Relation rel = GenUniform(6000, 3, 5000, 19);
  DistributedFileSystem dfs;
  Engine engine(TestConfig(6), &dfs);
  SpCubeAlgorithm algorithm;
  auto output = algorithm.Run(engine, rel, {});
  ASSERT_TRUE(output.ok());
  const JobMetrics& round2 = output->metrics.rounds[1];
  // Partitions 1..k hold the range data. Compare max to mean.
  int64_t total = 0;
  int64_t max_records = 0;
  for (size_t p = 1; p < round2.reducer_input_records.size(); ++p) {
    total += round2.reducer_input_records[p];
    max_records =
        std::max(max_records, round2.reducer_input_records[p]);
  }
  const double mean = static_cast<double>(total) /
                      static_cast<double>(round2.reducer_input_records.size() - 1);
  EXPECT_LT(static_cast<double>(max_records), 1.8 * mean);
}

// Correctness must not depend on sketch quality: with an absurdly low
// sampling rate (empty or near-empty sketch) the algorithm degrades to
// "ship everything to the apex owner" but stays exact.
TEST(SpCubeTest, RobustToDegradedSketch) {
  Relation rel = GenBinomial(1500, 3, 0.5, 21);
  SpCubeOptions options;
  options.sketch.sample_rate_multiplier = 1e-6;  // nearly no samples
  ExpectMatchesReference(rel, AggregateKind::kCount, options);
}

TEST(SpCubeTest, RobustToOversampledSketch) {
  Relation rel = GenBinomial(1500, 3, 0.5, 23);
  SpCubeOptions options;
  options.sketch.sample_rate_multiplier = 1e9;  // alpha = 1, exact sketch
  ExpectMatchesReference(rel, AggregateKind::kCount, options);
}

TEST(SpCubeTest, AblationNoMapperSkewAggregationStillExact) {
  Relation rel = GenBinomial(1500, 3, 0.6, 25);
  SpCubeOptions options;
  options.tuning.aggregate_skews_in_mapper = false;
  ExpectMatchesReference(rel, AggregateKind::kCount, options);
  ExpectMatchesReference(rel, AggregateKind::kAvg, options);
}

TEST(SpCubeTest, AblationNoFactorizationStillExact) {
  Relation rel = GenBinomial(1500, 3, 0.4, 27);
  SpCubeOptions options;
  options.tuning.emit_minimal_groups_only = false;
  ExpectMatchesReference(rel, AggregateKind::kCount, options);
}

TEST(SpCubeTest, AblationHashPartitionerStillExact) {
  Relation rel = GenZipfPaper(1500, 29);
  SpCubeOptions options;
  options.use_range_partitioner = false;
  ExpectMatchesReference(rel, AggregateKind::kCount, options);
}

TEST(SpCubeTest, AblationsChangeTrafficAsExpected) {
  Relation rel = GenPlantedSkew(4000, 4, {0.5}, {30, 30, 30, 30}, 31);
  DistributedFileSystem dfs;
  Engine engine(TestConfig(4), &dfs);

  SpCubeAlgorithm paper_version;
  auto paper_out = paper_version.Run(engine, rel, {});
  ASSERT_TRUE(paper_out.ok());

  SpCubeOptions no_skew_agg;
  no_skew_agg.tuning.aggregate_skews_in_mapper = false;
  SpCubeAlgorithm degraded(no_skew_agg);
  auto degraded_out = degraded.Run(engine, rel, {});
  ASSERT_TRUE(degraded_out.ok());

  // Without mapper-side aggregation, every skewed occurrence ships a
  // record, so round-2 shuffle records must be strictly larger.
  EXPECT_GT(degraded_out->metrics.rounds[1].shuffle_records,
            paper_out->metrics.rounds[1].shuffle_records);

  SpCubeOptions no_factorization;
  no_factorization.tuning.emit_minimal_groups_only = false;
  SpCubeAlgorithm unfactorized(no_factorization);
  auto unfactorized_out = unfactorized.Run(engine, rel, {});
  ASSERT_TRUE(unfactorized_out.ok());
  EXPECT_GT(unfactorized_out->metrics.rounds[1].map_output_records,
            paper_out->metrics.rounds[1].map_output_records);
}

TEST(SpCubeTest, CollectOutputFalseSkipsCube) {
  Relation rel = GenUniform(500, 2, 5, 33);
  DistributedFileSystem dfs;
  Engine engine(TestConfig(), &dfs);
  SpCubeAlgorithm algorithm;
  CubeRunOptions run_options;
  run_options.collect_output = false;
  auto output = algorithm.Run(engine, rel, run_options);
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->cube, nullptr);
  EXPECT_GT(output->metrics.OutputRecords(), 0);
}

TEST(SpCubeTest, RunManyAggregatesSharesOneSketchRound) {
  Relation rel = GenBinomial(2000, 3, 0.4, 37);
  DistributedFileSystem dfs;
  Engine engine(TestConfig(), &dfs);
  SpCubeAlgorithm sp;

  CubeRunOptions count_options;
  CubeRunOptions sum_options;
  sum_options.aggregate = AggregateKind::kSum;
  CubeRunOptions avg_options;
  avg_options.aggregate = AggregateKind::kAvg;
  auto outputs = sp.RunManyAggregates(
      engine, rel, {count_options, sum_options, avg_options});
  ASSERT_TRUE(outputs.ok()) << outputs.status();
  ASSERT_EQ(outputs->size(), 3u);

  // One sketch round total: the first output carries 2 rounds, the rest 1.
  EXPECT_EQ((*outputs)[0].metrics.rounds.size(), 2u);
  EXPECT_EQ((*outputs)[0].metrics.rounds[0].job_name, "spcube-sketch");
  EXPECT_EQ((*outputs)[1].metrics.rounds.size(), 1u);
  EXPECT_EQ((*outputs)[2].metrics.rounds.size(), 1u);

  // And every aggregate is exact.
  const AggregateKind kinds[] = {AggregateKind::kCount, AggregateKind::kSum,
                                 AggregateKind::kAvg};
  for (size_t i = 0; i < 3; ++i) {
    CubeResult reference = ComputeCubeReference(rel, kinds[i]);
    std::string diff;
    EXPECT_TRUE(CubeResult::ApproxEqual(reference, *(*outputs)[i].cube,
                                        1e-6, &diff))
        << diff;
  }
}

TEST(SpCubeTest, RunManyAggregatesValidatesEachEntry) {
  Relation rel = GenUniform(100, 2, 5, 39);
  DistributedFileSystem dfs;
  Engine engine(TestConfig(), &dfs);
  SpCubeAlgorithm sp;
  EXPECT_FALSE(sp.RunManyAggregates(engine, rel, {}).ok());
  CubeRunOptions bad;
  bad.aggregate = AggregateKind::kSum;
  bad.iceberg_min_count = 5;
  EXPECT_FALSE(sp.RunManyAggregates(engine, rel, {bad}).ok());
}

TEST(SpCubeTest, RepeatedRunsAreIndependent) {
  Relation rel = GenUniform(800, 2, 10, 35);
  DistributedFileSystem dfs;
  Engine engine(TestConfig(), &dfs);
  SpCubeAlgorithm algorithm;
  CubeResult reference = ComputeCubeReference(rel, AggregateKind::kCount);
  for (int i = 0; i < 3; ++i) {
    auto output = algorithm.Run(engine, rel, {});
    ASSERT_TRUE(output.ok());
    std::string diff;
    EXPECT_TRUE(
        CubeResult::ApproxEqual(reference, *output->cube, 1e-9, &diff))
        << diff;
  }
}

}  // namespace
}  // namespace spcube
