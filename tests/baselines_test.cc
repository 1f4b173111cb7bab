// Tests for the baseline algorithms: naive (Algorithm 1), MR-Cube (Pig)
// and the Hive surrogate. All must agree exactly with the reference cube;
// their characteristic behaviours (2^d blowup, cuboid-granularity skew
// detection, strict-memory failures) are asserted on top.

#include <gtest/gtest.h>

#include "baselines/combiners.h"
#include "baselines/hive.h"
#include "baselines/mrcube.h"
#include "baselines/naive.h"
#include "common/random.h"
#include "core/cube_algorithm.h"
#include "core/cube_output.h"
#include "cube/cube_result.h"
#include "mapreduce/shuffle.h"
#include "relation/generators.h"

namespace spcube {
namespace {

EngineConfig TestConfig(int workers = 5) {
  EngineConfig config;
  config.num_workers = workers;
  config.memory_budget_bytes = 4 << 20;
  config.network_bandwidth_bytes_per_sec = 0;
  return config;
}

void ExpectMatchesReference(CubeAlgorithm& algorithm, const Relation& rel,
                            AggregateKind kind) {
  DistributedFileSystem dfs;
  Engine engine(TestConfig(), &dfs);
  CubeRunOptions options;
  options.aggregate = kind;
  auto output = algorithm.Run(engine, rel, options);
  ASSERT_TRUE(output.ok()) << algorithm.name() << ": " << output.status();
  ASSERT_NE(output->cube, nullptr);
  CubeResult reference = ComputeCubeReference(rel, kind);
  std::string diff;
  EXPECT_TRUE(
      CubeResult::ApproxEqual(reference, *output->cube, 1e-6, &diff))
      << algorithm.name() << ":\n"
      << diff;
}

TEST(NaiveTest, MatchesReferenceOnUniform) {
  NaiveCubeAlgorithm naive;
  ExpectMatchesReference(naive, GenUniform(2000, 3, 20, 1),
                         AggregateKind::kCount);
}

TEST(NaiveTest, MatchesReferenceOnSkewed) {
  NaiveCubeAlgorithm naive;
  ExpectMatchesReference(naive, GenBinomial(2000, 4, 0.6, 3),
                         AggregateKind::kCount);
}

TEST(NaiveTest, MatchesReferenceForAllAggregates) {
  Relation rel = GenZipfPaper(1200, 5);
  for (AggregateKind kind :
       {AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
        AggregateKind::kMax, AggregateKind::kAvg}) {
    NaiveCubeAlgorithm naive;
    ExpectMatchesReference(naive, rel, kind);
  }
}

TEST(NaiveTest, EmitsExactly2ToTheDPairsPerTuple) {
  Relation rel = GenUniform(1000, 4, 100, 7);
  DistributedFileSystem dfs;
  Engine engine(TestConfig(), &dfs);
  NaiveCubeAlgorithm naive;
  auto output = naive.Run(engine, rel, {});
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->metrics.rounds[0].map_output_records, 1000 * 16);
  EXPECT_EQ(output->metrics.rounds[0].shuffle_records, 1000 * 16);
}

TEST(NaiveTest, CombinerVariantMatchesAndShrinksTraffic) {
  Relation rel = GenBinomial(2000, 3, 0.7, 9);
  NaiveCubeAlgorithm with_combiner(NaiveCubeOptions{true});
  ExpectMatchesReference(with_combiner, rel, AggregateKind::kCount);

  DistributedFileSystem dfs;
  Engine engine(TestConfig(), &dfs);
  NaiveCubeAlgorithm plain;
  auto plain_out = plain.Run(engine, rel, {});
  auto combined_out = with_combiner.Run(engine, rel, {});
  ASSERT_TRUE(plain_out.ok());
  ASSERT_TRUE(combined_out.ok());
  EXPECT_LT(combined_out->metrics.ShuffleBytes(),
            plain_out->metrics.ShuffleBytes());
}

TEST(MrCubeTest, MatchesReferenceOnUniform) {
  MrCubeAlgorithm mrcube;
  ExpectMatchesReference(mrcube, GenUniform(2000, 3, 20, 11),
                         AggregateKind::kCount);
}

TEST(MrCubeTest, MatchesReferenceOnHeavySkew) {
  MrCubeAlgorithm mrcube;
  ExpectMatchesReference(mrcube, GenBinomial(3000, 4, 0.7, 13),
                         AggregateKind::kCount);
}

TEST(MrCubeTest, MatchesReferenceOnPlantedSkew) {
  MrCubeAlgorithm mrcube;
  ExpectMatchesReference(mrcube,
                         GenPlantedSkew(3000, 3, {0.5}, {15, 15, 15}, 15),
                         AggregateKind::kSum);
}

TEST(MrCubeTest, MatchesReferenceForAvg) {
  MrCubeAlgorithm mrcube;
  ExpectMatchesReference(mrcube, GenZipfPaper(1500, 17),
                         AggregateKind::kAvg);
}

TEST(MrCubeTest, FriendlyDataNeedsNoThirdRound) {
  Relation rel = GenUniform(2000, 3, 5000, 19);  // no big groups
  DistributedFileSystem dfs;
  Engine engine(TestConfig(), &dfs);
  MrCubeAlgorithm mrcube;
  auto output = mrcube.Run(engine, rel, {});
  ASSERT_TRUE(output.ok());
  // Only apex-ish cuboids can be unfriendly; with uniform data the apex
  // still is (n > m), so allow 2 or 3 rounds but verify the detection
  // count matches the rounds run.
  if (mrcube.last_unfriendly_cuboids() == 0) {
    EXPECT_EQ(output->metrics.rounds.size(), 2u);
  } else {
    EXPECT_EQ(output->metrics.rounds.size(), 3u);
  }
}

TEST(MrCubeTest, SkewTriggersValuePartitioningAndPostAggregation) {
  Relation rel = GenPlantedSkew(4000, 3, {0.6}, {20, 20, 20}, 21);
  DistributedFileSystem dfs;
  Engine engine(TestConfig(4), &dfs);
  MrCubeAlgorithm mrcube;
  auto output = mrcube.Run(engine, rel, {});
  ASSERT_TRUE(output.ok());
  EXPECT_GT(mrcube.last_unfriendly_cuboids(), 0);
  ASSERT_EQ(output->metrics.rounds.size(), 3u);
  EXPECT_EQ(output->metrics.rounds[2].job_name, "mrcube-postagg");
}

TEST(MrCubeTest, CuboidGranularityIsCoarserThanGroupGranularity) {
  // One planted heavy group makes its whole cuboid unfriendly, so MR-Cube
  // value-partitions *all* groups of that cuboid — the inefficiency the
  // paper contrasts SP-Cube against (§1).
  Relation rel = GenPlantedSkew(4000, 2, {0.5}, {50, 50}, 23);
  DistributedFileSystem dfs;
  Engine engine(TestConfig(4), &dfs);
  MrCubeAlgorithm mrcube;
  auto output = mrcube.Run(engine, rel, {});
  ASSERT_TRUE(output.ok());
  // All four cuboids contain the planted group's projection with 50% mass,
  // so every cuboid is unfriendly.
  EXPECT_EQ(mrcube.last_unfriendly_cuboids(), 4);
}

TEST(MrCubeTest, AnnotationsSerializationRoundTrip) {
  MrCubeAnnotations annotations;
  annotations.num_dims = 3;
  annotations.partition_factor = {1, 2, 1, 4, 1, 1, 8, 1};
  auto decoded = MrCubeAnnotations::Deserialize(annotations.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_dims, 3);
  EXPECT_EQ(decoded->partition_factor, annotations.partition_factor);
  EXPECT_FALSE(MrCubeAnnotations::Deserialize("junk").ok());
}

/// A reduce group with no values.
class EmptyValueStream : public ValueStream {
 public:
  Result<bool> Next(std::string* /*value*/) override { return false; }
};

class DiscardingReduceContext : public ReduceContext {
 public:
  Status Output(std::string_view, std::string_view) override {
    return Status::OK();
  }
};

/// Yields a fixed list of values.
class ListValueStream : public ValueStream {
 public:
  explicit ListValueStream(const std::vector<std::string>& values)
      : values_(values) {}

  Result<bool> Next(std::string* value) override {
    if (next_ == values_.size()) return false;
    *value = values_[next_++];
    return true;
  }

 private:
  const std::vector<std::string>& values_;
  size_t next_ = 0;
};

std::string EncodeState(const AggState& state) {
  ByteWriter writer;
  state.EncodeTo(writer);
  return writer.TakeData();
}

constexpr AggregateKind kAllAggregates[] = {
    AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
    AggregateKind::kMax, AggregateKind::kAvg};

TEST(AggStateCombinerTest, LeftFoldEqualsMergeStates) {
  // The shuffle folds each key's states left to right as they arrive; the
  // result must be the bytes MergeStates gives for the whole list, empty
  // states (a min/max state with v1 == 0) included anywhere in it.
  Rng rng(61);
  for (const AggregateKind kind : kAllAggregates) {
    const Aggregator& agg = GetAggregator(kind);
    AggStateCombiner combiner(kind);
    for (int trial = 0; trial < 20; ++trial) {
      SCOPED_TRACE(std::string(agg.name()) + " trial " +
                   std::to_string(trial));
      std::vector<std::string> states;
      const int count = 1 + static_cast<int>(rng.NextBounded(8));
      for (int i = 0; i < count; ++i) {
        AggState state = agg.Empty();
        const int measures = static_cast<int>(rng.NextBounded(4));
        for (int m = 0; m < measures; ++m) {
          agg.Add(state, rng.NextInRange(-100000, 100000));
        }
        states.push_back(EncodeState(state));
      }
      std::string acc = states[0];
      for (size_t i = 1; i < states.size(); ++i) {
        ByteWriter folded;
        ASSERT_TRUE(combiner.Fold(acc, states[i], &folded).ok());
        acc = folded.TakeData();
      }
      ListValueStream stream(states);
      auto merged = MergeStates(agg, stream);
      ASSERT_TRUE(merged.ok()) << merged.status();
      EXPECT_EQ(acc, EncodeState(*merged));
    }
    // Two empty states fold to the empty state.
    ByteWriter folded;
    ASSERT_TRUE(combiner
                    .Fold(EncodeState(agg.Empty()), EncodeState(agg.Empty()),
                          &folded)
                    .ok());
    EXPECT_EQ(folded.data(), EncodeState(agg.Empty())) << agg.name();
  }
}

TEST(AggStateCombinerTest, TruncatedStateFailsAddWithCorruption) {
  // A value cut inside its varints reaches the combiner when a second value
  // of its key arrives, from either side of the fold: Add reports it.
  const std::string valid = EncodeState(AggState{1000, 1});
  const std::string truncated = valid.substr(0, 1);
  for (const AggregateKind kind : kAllAggregates) {
    SCOPED_TRACE(GetAggregator(kind).name());
    AggStateCombiner combiner(kind);
    TempFileManager temp("fold_corrupt");
    ShuffleCounters counters;
    ShuffleBuffer buffer(1, int64_t{1} << 20, &combiner, &temp, &counters);
    ASSERT_TRUE(buffer.Add(0, "late", valid).ok());
    EXPECT_EQ(buffer.Add(0, "late", truncated).code(),
              StatusCode::kCorruption);
    ASSERT_TRUE(buffer.Add(0, "early", truncated).ok());
    EXPECT_EQ(buffer.Add(0, "early", valid).code(), StatusCode::kCorruption);
    EXPECT_EQ(buffer.Add(0, "empty", "").code(), StatusCode::kOk);
    EXPECT_EQ(buffer.Add(0, "empty", valid).code(), StatusCode::kCorruption);
  }
}

TEST(MrCubeTest, AnnotateReducerRejectsKeysOtherThanTheSampleKey) {
  MrCubeAnnotateReducer reducer(3, 100, SketchBuildConfig{}, "annotations");
  ASSERT_TRUE(reducer.Setup(TaskContext{}).ok());
  DiscardingReduceContext context;
  EmptyValueStream sample;
  EXPECT_TRUE(reducer.Reduce(kSampleKey, sample, context).ok());
  EmptyValueStream stray;
  const Status status = reducer.Reduce("not-the-sample", stray, context);
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status;
}

TEST(MrCubeTest, RoutesFriendlyCellsToOutputAndPartialsToPostAggregation) {
  // Each attribute is 0 in 40% of the rows: the apex and the
  // one-attribute cuboids hold groups too big for a machine and are value-
  // partitioned; the finer cuboids stay friendly.
  Relation rel = GenIndependentSkew(4000, 3, 0.4, 1000, 29);
  DistributedFileSystem dfs;
  Engine engine(TestConfig(4), &dfs);
  MrCubeAlgorithm mrcube;
  CubeRunOptions options;
  options.dfs_output_root = "mrcube/out";
  auto output = mrcube.Run(engine, rel, options);
  ASSERT_TRUE(output.ok()) << output.status();
  const int64_t num_cuboids = NumCuboids(rel.num_dims());
  ASSERT_GT(mrcube.last_unfriendly_cuboids(), 0);
  ASSERT_LT(mrcube.last_unfriendly_cuboids(), num_cuboids);
  ASSERT_EQ(output->metrics.rounds.size(), 3u);

  const CubeResult reference =
      ComputeCubeReference(rel, AggregateKind::kCount);
  ASSERT_NE(output->cube, nullptr);
  std::string diff;
  EXPECT_TRUE(CubeResult::ApproxEqual(reference, *output->cube, 1e-9, &diff))
      << diff;
  // ReadCubeFromDfs rejects a cell written twice, so an exact match means
  // every cell, friendly or post-aggregated, reached the DFS exactly once.
  auto from_dfs = ReadCubeFromDfs(dfs, options.dfs_output_root,
                                  rel.num_dims());
  ASSERT_TRUE(from_dfs.ok()) << from_dfs.status();
  EXPECT_TRUE(CubeResult::ApproxEqual(reference, *from_dfs, 1e-9, &diff))
      << diff;

  // Round 3 reads exactly the round-2 cells of partitioned cuboids: all of
  // round 2's output except one final cell per friendly group.
  const std::vector<std::string> annotation_files =
      dfs.List("mrcube/annotations/");
  ASSERT_EQ(annotation_files.size(), 1u);
  auto bytes = dfs.Read(annotation_files[0]);
  ASSERT_TRUE(bytes.ok());
  auto annotations = MrCubeAnnotations::Deserialize(*bytes);
  ASSERT_TRUE(annotations.ok());
  int64_t friendly_cells = 0;
  int64_t partitioned_groups = 0;
  for (CuboidMask mask = 0; mask < num_cuboids; ++mask) {
    const int64_t groups = reference.CuboidGroupCount(mask);
    if (annotations->partition_factor[mask] <= 1) {
      friendly_cells += groups;
    } else {
      partitioned_groups += groups;
    }
  }
  const JobMetrics& round2 = output->metrics.rounds[1];
  const JobMetrics& round3 = output->metrics.rounds[2];
  EXPECT_EQ(round3.map_input_records, round2.output_records - friendly_cells);
  EXPECT_GE(round3.map_input_records, partitioned_groups);
  EXPECT_EQ(round3.output_records, partitioned_groups);
}

TEST(HiveTest, MatchesReferenceOnUniform) {
  HiveCubeAlgorithm hive;
  ExpectMatchesReference(hive, GenUniform(2000, 3, 20, 25),
                         AggregateKind::kCount);
}

TEST(HiveTest, MatchesReferenceOnSkewed) {
  HiveCubeAlgorithm hive;
  ExpectMatchesReference(hive, GenBinomial(2500, 4, 0.5, 27),
                         AggregateKind::kCount);
}

TEST(HiveTest, MatchesReferenceForSumAndAvg) {
  Relation rel = GenZipfPaper(1500, 29);
  for (AggregateKind kind : {AggregateKind::kSum, AggregateKind::kAvg}) {
    HiveCubeAlgorithm hive;
    ExpectMatchesReference(hive, rel, kind);
  }
}

TEST(HiveTest, MapHashCollapsesDuplicateHeavyRows) {
  // All rows identical: the map hash should collapse nearly everything.
  Relation rel(MakeAnonymousSchema(3));
  for (int i = 0; i < 4000; ++i) {
    rel.AppendRow(std::vector<int64_t>{1, 2, 3}, 1);
  }
  DistributedFileSystem dfs;
  Engine engine(TestConfig(4), &dfs);
  HiveCubeAlgorithm hive;
  auto output = hive.Run(engine, rel, {});
  ASSERT_TRUE(output.ok());
  // 4 mappers x 8 groups (plus a few flush boundaries) — far below n*2^d.
  EXPECT_LT(output->metrics.rounds[0].shuffle_records, 200);
}

TEST(HiveTest, UniformDataChurnsTheMapHash) {
  // Distinct-heavy input defeats map-side aggregation: emitted records are
  // a large fraction of n * 2^d (the paper's "Hive map output largest").
  Relation rel = GenUniform(3000, 4, 1 << 30, 31);
  EngineConfig config = TestConfig(4);
  config.memory_budget_bytes = 64 << 10;  // small hash -> heavy churn
  DistributedFileSystem dfs;
  Engine engine(config, &dfs);
  HiveCubeAlgorithm hive;
  auto output = hive.Run(engine, rel, {});
  ASSERT_TRUE(output.ok());
  EXPECT_GT(output->metrics.rounds[0].shuffle_records, 3000 * 16 / 2);
}

TEST(HiveTest, StrictMemoryFailsUnderHeavySkewAndSmallMemory) {
  // The configuration the paper reports for gen-binomial p >= 0.4: with
  // strict reducer memory and budgets sized to the skew, the job dies with
  // ResourceExhausted instead of finishing.
  Relation rel = GenUniform(4000, 4, 1 << 30, 33);
  EngineConfig config = TestConfig(4);
  config.memory_budget_bytes = 32 << 10;
  DistributedFileSystem dfs;
  Engine engine(config, &dfs);
  HiveCubeOptions options;
  options.strict_reducer_memory = true;
  HiveCubeAlgorithm hive(options);
  auto output = hive.Run(engine, rel, {});
  ASSERT_FALSE(output.ok());
  EXPECT_EQ(output.status().code(), StatusCode::kResourceExhausted);
}

TEST(AllBaselinesTest, AgreeWithEachOtherOnMixedWorkload) {
  Relation rel = GenIndependentSkew(2500, 4, 0.3, 50, 35);
  CubeResult reference = ComputeCubeReference(rel, AggregateKind::kCount);

  NaiveCubeAlgorithm naive;
  MrCubeAlgorithm mrcube;
  HiveCubeAlgorithm hive;
  for (CubeAlgorithm* algorithm :
       std::initializer_list<CubeAlgorithm*>{&naive, &mrcube, &hive}) {
    DistributedFileSystem dfs;
    Engine engine(TestConfig(), &dfs);
    auto output = algorithm->Run(engine, rel, {});
    ASSERT_TRUE(output.ok()) << algorithm->name();
    std::string diff;
    EXPECT_TRUE(
        CubeResult::ApproxEqual(reference, *output->cube, 1e-6, &diff))
        << algorithm->name() << ":\n"
        << diff;
  }
}

}  // namespace
}  // namespace spcube
