// Cross-algorithm integration tests: the four algorithms agree on every
// workload; the paper's traffic-bound theorems (§5.2) hold at test scale.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "baselines/hive.h"
#include "baselines/mrcube.h"
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

struct NamedRelation {
  const char* name;
  Relation (*make)();
};

// gtest would otherwise print the struct's raw bytes, pointers included,
// and those bytes become part of the test names CTest discovers.
void PrintTo(const NamedRelation& relation, std::ostream* os) {
  *os << relation.name;
}

Relation Wiki() { return GenWikiLike(3000, 101); }
Relation UsaGov() {
  return ProjectDims(GenUsaGovLike(3000, 102), {0, 1, 2, 3});
}
Relation BinomialMid() { return GenBinomial(3000, 4, 0.4, 103); }
Relation Zipf() { return GenZipfPaper(3000, 104); }
Relation Monotonic() { return GenMonotonicSkew(3000, 4, 0.4, 300, 105); }

class AllAlgorithmsAgreeTest
    : public ::testing::TestWithParam<NamedRelation> {};

TEST_P(AllAlgorithmsAgreeTest, IdenticalCubes) {
  Relation rel = GetParam().make();
  CubeResult reference = ComputeCubeReference(rel, AggregateKind::kCount);

  SpCubeAlgorithm sp;
  NaiveCubeAlgorithm naive;
  MrCubeAlgorithm mrcube;
  HiveCubeAlgorithm hive;
  for (CubeAlgorithm* algorithm : std::initializer_list<CubeAlgorithm*>{
           &sp, &naive, &mrcube, &hive}) {
    DistributedFileSystem dfs;
    Engine engine(TestConfig(), &dfs);
    auto output = algorithm->Run(engine, rel, {});
    ASSERT_TRUE(output.ok()) << algorithm->name() << ": " << output.status();
    std::string diff;
    EXPECT_TRUE(
        CubeResult::ApproxEqual(reference, *output->cube, 1e-6, &diff))
        << algorithm->name() << " on " << GetParam().name << ":\n"
        << diff;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, AllAlgorithmsAgreeTest,
    ::testing::Values(NamedRelation{"wiki", Wiki},
                      NamedRelation{"usagov", UsaGov},
                      NamedRelation{"binomial", BinomialMid},
                      NamedRelation{"zipf", Zipf},
                      NamedRelation{"monotonic", Monotonic}),
    [](const ::testing::TestParamInfo<NamedRelation>& info) {
      return info.param.name;
    });

int64_t SpCubeRound2Records(const Relation& rel, int workers) {
  DistributedFileSystem dfs;
  Engine engine(TestConfig(workers), &dfs);
  SpCubeAlgorithm sp;
  CubeRunOptions options;
  options.collect_output = false;
  auto output = sp.Run(engine, rel, options);
  EXPECT_TRUE(output.ok()) << output.status();
  return output->metrics.rounds[1].map_output_records;
}

// Theorem 5.3's regime: when skew stops exactly at the middle lattice
// level, every tuple's minimal non-skewed groups are the ~C(d, d/2+1)
// middle-level cuboids, so traffic is a constant fraction of 2^d * n.
// A binary-domain uniform relation realizes this cleanly: level-l group
// sizes concentrate around n / 2^l, so choosing m between the level-3 and
// level-4 sizes (d = 6) makes all level-<=3 groups skewed and (almost) all
// level->=4 groups non-skewed.
TEST(TrafficBoundsTest, WorstCaseRelationIsExponential) {
  const int d = 6;
  const int64_t n = 4000;
  Relation rel = GenUniform(n, d, 2, 109);

  DistributedFileSystem dfs;
  Engine engine(TestConfig(4), &dfs);
  SpCubeOptions options;
  // Level-3 groups hold ~500 tuples, level-4 groups ~250.
  options.sketch.memory_tuples_m = 300;
  options.sketch.sample_rate_multiplier = 8.0;  // tight skew estimates
  SpCubeAlgorithm sp(options);
  CubeRunOptions run_options;
  run_options.collect_output = false;
  auto output = sp.Run(engine, rel, run_options);
  ASSERT_TRUE(output.ok()) << output.status();

  const int64_t records = output->metrics.rounds[1].map_output_records;
  // ~C(6,4) = 15 emissions per tuple: well above any O(d) regime and a
  // sizable fraction of the trivial 2^d cap.
  EXPECT_GT(records, n * (d + 2));
  EXPECT_LE(records, n * (int64_t{1} << d));
}

// Proposition 5.5: on skewness-monotonic relations traffic is O(d^2 n) —
// in fact each tuple ships at most d+1 times here.
TEST(TrafficBoundsTest, MonotonicSkewIsLinearish) {
  const int d = 6;
  Relation rel = GenMonotonicSkew(4000, d, 0.5, 1000, 111);
  const int64_t records = SpCubeRound2Records(rel, 5);
  EXPECT_LE(records, rel.num_rows() * (d + 2));
}

// Proposition 5.6 regime: independently skewed attributes still yield
// polynomial traffic, far below naive's 2^d factor.
TEST(TrafficBoundsTest, IndependentSkewIsPolynomial) {
  const int d = 6;
  Relation rel = GenIndependentSkew(4000, d, 0.3, 200, 113);
  const int64_t records = SpCubeRound2Records(rel, 5);
  EXPECT_LT(records, rel.num_rows() * d * d);
  EXPECT_LT(records, rel.num_rows() * (int64_t{1} << d) / 2);
}

// The headline comparison the evaluation repeats everywhere: SP-Cube moves
// less intermediate data than every baseline, on every distribution.
TEST(TrafficComparisonTest, SpCubeShipsLeast) {
  for (auto make : {Wiki, BinomialMid, Zipf}) {
    Relation rel = make();
    DistributedFileSystem dfs;
    Engine engine(TestConfig(), &dfs);
    CubeRunOptions options;
    options.collect_output = false;

    SpCubeAlgorithm sp;
    NaiveCubeAlgorithm naive;
    HiveCubeAlgorithm hive;
    auto sp_out = sp.Run(engine, rel, options);
    auto naive_out = naive.Run(engine, rel, options);
    auto hive_out = hive.Run(engine, rel, options);
    ASSERT_TRUE(sp_out.ok());
    ASSERT_TRUE(naive_out.ok());
    ASSERT_TRUE(hive_out.ok());
    EXPECT_LT(sp_out->metrics.ShuffleBytes(),
              naive_out->metrics.ShuffleBytes());
    EXPECT_LT(sp_out->metrics.ShuffleBytes(),
              hive_out->metrics.ShuffleBytes());
  }
}

// The sketch is aggregate-independent (§4): one sketch, many measures.
// Run SP-Cube with different aggregates on the same relation and verify
// each against the reference.
TEST(SketchReuseTest, SameRelationManyAggregates) {
  Relation rel = GenWikiLike(2000, 117);
  for (AggregateKind kind :
       {AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
        AggregateKind::kMax, AggregateKind::kAvg}) {
    DistributedFileSystem dfs;
    Engine engine(TestConfig(), &dfs);
    SpCubeAlgorithm sp;
    CubeRunOptions options;
    options.aggregate = kind;
    auto output = sp.Run(engine, rel, options);
    ASSERT_TRUE(output.ok());
    CubeResult reference = ComputeCubeReference(rel, kind);
    std::string diff;
    EXPECT_TRUE(
        CubeResult::ApproxEqual(reference, *output->cube, 1e-6, &diff))
        << diff;
  }
}

// Output sizes: every algorithm must produce exactly one tuple per c-group.
TEST(OutputCardinalityTest, MatchesReferenceGroupCount) {
  Relation rel = GenZipfPaper(2500, 119);
  const int64_t expected =
      ComputeCubeReference(rel, AggregateKind::kCount).num_groups();
  SpCubeAlgorithm sp;
  NaiveCubeAlgorithm naive;
  MrCubeAlgorithm mrcube;
  HiveCubeAlgorithm hive;
  for (CubeAlgorithm* algorithm : std::initializer_list<CubeAlgorithm*>{
           &sp, &naive, &mrcube, &hive}) {
    DistributedFileSystem dfs;
    Engine engine(TestConfig(), &dfs);
    auto output = algorithm->Run(engine, rel, {});
    ASSERT_TRUE(output.ok()) << algorithm->name();
    EXPECT_EQ(output->cube->num_groups(), expected) << algorithm->name();
  }
}

}  // namespace
}  // namespace spcube
