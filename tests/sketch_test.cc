// Tests for the SP-Sketch data structure and its sampling-based builder
// (paper §4): skew detection, partition elements, ownership rule, accuracy
// propositions 4.4-4.7 at test scale.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cube/cube_result.h"
#include "relation/generators.h"
#include "relation/tuple_codec.h"
#include "sketch/builder.h"
#include "sketch/sp_sketch.h"

namespace spcube {
namespace {

TEST(SpSketchTest, SkewAddAndQuery) {
  SpSketch sketch(3, 4);
  const std::vector<int64_t> tuple = {7, 8, 9};
  sketch.AddSkew(GroupKey::Project(0b011, tuple), 100);
  EXPECT_TRUE(sketch.IsSkewedTuple(0b011, tuple));
  EXPECT_TRUE(sketch.IsSkewedKey(GroupKey(0b011, {7, 8})));
  EXPECT_FALSE(sketch.IsSkewedTuple(0b111, tuple));
  EXPECT_FALSE(sketch.IsSkewedTuple(0b011, std::vector<int64_t>{7, 9, 9}));
  // Same projected values under a different mask are a different group.
  EXPECT_FALSE(sketch.IsSkewedKey(GroupKey(0b101, {7, 8})));
  EXPECT_EQ(sketch.TotalSkewedGroups(), 1);
  EXPECT_EQ(sketch.SkewedGroupsInCuboid(0b011), 1);
  EXPECT_EQ(sketch.SkewedGroupsInCuboid(0b111), 0);
}

TEST(SpSketchTest, AddSkewIsIdempotentKeepingLargerEstimate) {
  SpSketch sketch(2, 2);
  GroupKey key(0b01, {5});
  sketch.AddSkew(key, 10);
  sketch.AddSkew(key, 30);
  sketch.AddSkew(key, 20);
  EXPECT_EQ(sketch.TotalSkewedGroups(), 1);
}

TEST(SpSketchTest, ProjectedLookupMatchesKeyLookup) {
  // The allocation-free tuple lookup must agree with the key lookup for
  // every mask (they share the hash function by construction).
  SpSketch sketch(4, 4);
  const std::vector<int64_t> tuple = {1, -2, 3, 400000000000LL};
  for (CuboidMask mask = 0; mask < 16; ++mask) {
    if (mask % 3 == 0) {
      sketch.AddSkew(GroupKey::Project(mask, tuple), 50);
    }
  }
  for (CuboidMask mask = 0; mask < 16; ++mask) {
    EXPECT_EQ(sketch.IsSkewedTuple(mask, tuple),
              sketch.IsSkewedKey(GroupKey::Project(mask, tuple)))
        << mask;
  }
}

TEST(SpSketchTest, PartitionElementsValidation) {
  SpSketch sketch(2, 3);
  // Wrong mask inside elements.
  EXPECT_FALSE(
      sketch.SetPartitionElements(0b01, {GroupKey(0b10, {1})}).ok());
  // Too many elements (k-1 = 2 allowed).
  EXPECT_FALSE(sketch
                   .SetPartitionElements(0b01, {GroupKey(0b01, {1}),
                                                GroupKey(0b01, {2}),
                                                GroupKey(0b01, {3})})
                   .ok());
  // Unsorted.
  EXPECT_FALSE(sketch
                   .SetPartitionElements(0b01, {GroupKey(0b01, {5}),
                                                GroupKey(0b01, {2})})
                   .ok());
  // Valid.
  EXPECT_TRUE(sketch
                  .SetPartitionElements(0b01, {GroupKey(0b01, {2}),
                                               GroupKey(0b01, {5})})
                  .ok());
}

TEST(SpSketchTest, PartitionOfImplementsDefinition41) {
  SpSketch sketch(1, 4);
  ASSERT_TRUE(sketch
                  .SetPartitionElements(0b1, {GroupKey(0b1, {10}),
                                              GroupKey(0b1, {20}),
                                              GroupKey(0b1, {30})})
                  .ok());
  // Partition i = number of elements strictly smaller than the tuple:
  // t <= 10 -> 0; 10 < t <= 20 -> 1; 20 < t <= 30 -> 2; t > 30 -> 3.
  auto partition_of = [&](int64_t v) {
    return sketch.PartitionOfTuple(0b1, std::vector<int64_t>{v});
  };
  EXPECT_EQ(partition_of(5), 0);
  EXPECT_EQ(partition_of(10), 0);
  EXPECT_EQ(partition_of(11), 1);
  EXPECT_EQ(partition_of(20), 1);
  EXPECT_EQ(partition_of(25), 2);
  EXPECT_EQ(partition_of(30), 2);
  EXPECT_EQ(partition_of(31), 3);
  EXPECT_EQ(sketch.PartitionOfKey(GroupKey(0b1, {15})), 1);
  EXPECT_EQ(sketch.PartitionOfKey(GroupKey(0b1, {10})), 0);
}

TEST(SpSketchTest, PartitionOfEmptyElementsIsZero) {
  SpSketch sketch(2, 4);
  EXPECT_EQ(sketch.PartitionOfTuple(0b11, std::vector<int64_t>{1, 2}), 0);
}

TEST(SpSketchTest, OwnerMaskIsBfsFirstNonSkewedSubset) {
  SpSketch sketch(3, 4);
  const std::vector<int64_t> tuple = {1, 2, 3};
  // Make the apex and both single-attribute groups of dims 0/1 skewed.
  sketch.AddSkew(GroupKey::Project(0b000, tuple), 100);
  sketch.AddSkew(GroupKey::Project(0b001, tuple), 100);
  sketch.AddSkew(GroupKey::Project(0b010, tuple), 100);

  // Owner of (1,2,*): subsets in BFS order: {}, {0}, {1}, {0,1} — first
  // three are skewed, so the owner is {0,1} = the group itself.
  EXPECT_EQ(sketch.OwnerMask(GroupKey::Project(0b011, tuple)), 0b011u);
  // Owner of (*,*,3): subsets {} (skewed), {2} (not skewed) -> {2}.
  EXPECT_EQ(sketch.OwnerMask(GroupKey::Project(0b100, tuple)), 0b100u);
  // Owner of (1,*,3): subsets {}, {0} skewed; {2} non-skewed -> {2}.
  EXPECT_EQ(sketch.OwnerMask(GroupKey::Project(0b101, tuple)), 0b100u);
  // Owner of the full group: {2} is its BFS-first non-skewed subset.
  EXPECT_EQ(sketch.OwnerMask(GroupKey::Project(0b111, tuple)), 0b100u);
}

TEST(SpSketchTest, OwnerMaskNoOwnerWhenAllSubsetsSkewed) {
  SpSketch sketch(2, 4);
  const std::vector<int64_t> tuple = {4, 5};
  for (CuboidMask mask = 0; mask < 4; ++mask) {
    sketch.AddSkew(GroupKey::Project(mask, tuple), 100);
  }
  EXPECT_EQ(sketch.OwnerMask(GroupKey::Project(0b11, tuple)), kNoOwner);
  EXPECT_EQ(sketch.OwnerMask(GroupKey::Project(0b01, tuple)), kNoOwner);
}

TEST(SpSketchTest, OwnerMaskWithEmptySketchIsApex) {
  SpSketch sketch(3, 4);
  EXPECT_EQ(sketch.OwnerMask(GroupKey(0b111, {1, 2, 3})), 0u);
}

// Every non-skewed group's owner must itself be a "minimal non-skewed"
// group (all strict subsets skewed) — the uniqueness the routing relies on.
TEST(SpSketchTest, OwnerIsAlwaysMinimalNonSkewed) {
  Relation rel = GenBinomial(2000, 4, 0.5, 3);
  SketchBuildConfig config;
  config.num_partitions = 4;
  config.memory_tuples_m = 100;
  auto sketch = BuildSketchLocal(rel, config);
  ASSERT_TRUE(sketch.ok());
  for (int64_t r = 0; r < 200; ++r) {
    const auto tuple = rel.row(r);
    for (CuboidMask mask = 0; mask < 16; ++mask) {
      GroupKey key = GroupKey::Project(mask, tuple);
      const CuboidMask owner = sketch->OwnerMask(key);
      if (owner == kNoOwner) {
        EXPECT_TRUE(sketch->IsSkewedTuple(mask, tuple));
        continue;
      }
      EXPECT_TRUE(IsSubsetMask(owner, mask));
      EXPECT_FALSE(sketch->IsSkewedTuple(owner, tuple));
      for (CuboidMask sub : ImmediateDescendants(owner)) {
        EXPECT_TRUE(sketch->IsSkewedTuple(sub, tuple))
            << "owner not minimal";
      }
    }
  }
}

TEST(SpSketchTest, SerializeDeserializeRoundTrip) {
  SpSketch sketch(3, 4);
  const std::vector<int64_t> tuple = {10, 20, 30};
  sketch.AddSkew(GroupKey::Project(0b001, tuple), 1234);
  sketch.AddSkew(GroupKey::Project(0b111, tuple), 77);
  ASSERT_TRUE(sketch
                  .SetPartitionElements(0b010, {GroupKey(0b010, {1}),
                                                GroupKey(0b010, {9})})
                  .ok());

  const std::string bytes = sketch.Serialize();
  auto decoded = SpSketch::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->num_dims(), 3);
  EXPECT_EQ(decoded->num_partitions(), 4);
  EXPECT_EQ(decoded->TotalSkewedGroups(), 2);
  EXPECT_TRUE(decoded->IsSkewedTuple(0b001, tuple));
  EXPECT_TRUE(decoded->IsSkewedTuple(0b111, tuple));
  EXPECT_FALSE(decoded->IsSkewedTuple(0b011, tuple));
  ASSERT_EQ(decoded->PartitionElements(0b010).size(), 2u);
  EXPECT_EQ(decoded->PartitionElements(0b010)[1].values[0], 9);
  EXPECT_EQ(decoded->SerializedByteSize(),
            static_cast<int64_t>(bytes.size()));
}

TEST(SpSketchTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(SpSketch::Deserialize("not a sketch").ok());
  EXPECT_FALSE(SpSketch::Deserialize("").ok());
  SpSketch sketch(2, 2);
  std::string bytes = sketch.Serialize();
  bytes += "trailing";
  EXPECT_FALSE(SpSketch::Deserialize(bytes).ok());
}

TEST(SketchBuildConfigTest, AlphaBetaMath) {
  SketchBuildConfig config;
  config.num_partitions = 10;
  config.memory_tuples_m = 1000;
  const int64_t n = 100000;
  // alpha = ln(n*k)/m = ln(1e6)/1000 ~ 0.0138.
  EXPECT_NEAR(config.SampleAlpha(n), std::log(1e6) / 1000.0, 1e-9);
  // beta = alpha * m = ln(nk).
  EXPECT_NEAR(config.SkewBeta(n), std::log(1e6), 1e-9);
  EXPECT_EQ(config.EffectiveM(n), 1000);

  // Tiny inputs: alpha caps at 1 and beta degrades to m, the exact
  // threshold (ln(8*2) / 1 > 1).
  SketchBuildConfig exact;
  exact.num_partitions = 2;
  exact.memory_tuples_m = 1;
  EXPECT_EQ(exact.SampleAlpha(8), 1.0);
  EXPECT_EQ(exact.SkewBeta(8), 1.0);

  // m defaults to n/k.
  SketchBuildConfig derived;
  derived.num_partitions = 4;
  EXPECT_EQ(derived.EffectiveM(1000), 250);
}

TEST(SketchBuilderTest, ExactSketchWithFullSample) {
  // With alpha = 1 the sketch is the utopian one: skews are exactly the
  // groups with |set(g)| > m.
  Relation rel(MakeAnonymousSchema(2));
  for (int i = 0; i < 30; ++i) rel.AppendRow(std::vector<int64_t>{1, 1}, 1);
  for (int i = 0; i < 5; ++i) rel.AppendRow(std::vector<int64_t>{2, i}, 1);

  SketchBuildConfig config;
  config.num_partitions = 2;
  config.memory_tuples_m = 10;
  config.sample_rate_multiplier = 1e9;  // force alpha = 1
  auto sketch = BuildSketchLocal(rel, config);
  ASSERT_TRUE(sketch.ok());

  // Skewed groups: apex (35), (1,*,) (30), (*,1) (30), (1,1) (30).
  EXPECT_EQ(sketch->TotalSkewedGroups(), 4);
  EXPECT_TRUE(sketch->IsSkewedKey(GroupKey(0b00, {})));
  EXPECT_TRUE(sketch->IsSkewedKey(GroupKey(0b01, {1})));
  EXPECT_TRUE(sketch->IsSkewedKey(GroupKey(0b10, {1})));
  EXPECT_TRUE(sketch->IsSkewedKey(GroupKey(0b11, {1, 1})));
  EXPECT_FALSE(sketch->IsSkewedKey(GroupKey(0b01, {2})));
}

// Proposition 4.5 at test scale: all truly skewed groups are detected
// (with a comfortable margin, planted groups are far above the threshold).
TEST(SketchBuilderTest, DetectsAllPlantedSkews) {
  const int64_t n = 50000;
  Relation rel = GenPlantedSkew(n, 4, {0.3, 0.15}, {50, 50, 50, 50}, 7);
  SketchBuildConfig config;
  config.num_partitions = 8;  // m = 6250; planted groups are 15000/7500
  auto sketch = BuildSketchLocal(rel, config);
  ASSERT_TRUE(sketch.ok());
  // Every projection of both planted tuples must be recorded as skewed.
  for (int pattern = 1; pattern <= 2; ++pattern) {
    const std::vector<int64_t> tuple(4, -pattern);
    for (CuboidMask mask = 0; mask < 16; ++mask) {
      EXPECT_TRUE(sketch->IsSkewedTuple(mask, tuple))
          << "pattern " << pattern << " mask " << mask;
    }
  }
}

// No false positives far below the threshold: uniform data with tiny
// groups yields (almost) no skews besides coarse cuboids.
TEST(SketchBuilderTest, UniformDataHasOnlyCoarseSkews) {
  const int64_t n = 50000;
  Relation rel = GenUniform(n, 4, 1000, 11);
  SketchBuildConfig config;
  config.num_partitions = 8;  // m = 6250
  auto sketch = BuildSketchLocal(rel, config);
  ASSERT_TRUE(sketch.ok());
  // The apex (n tuples) is skewed; single-attribute groups hold ~n/1000
  // tuples, far below m, and should not be flagged.
  EXPECT_TRUE(sketch->IsSkewedKey(GroupKey(0, {})));
  for (const GroupKey& key : sketch->AllSkewedGroups()) {
    EXPECT_EQ(key.mask, 0u) << key.ToString(4);
  }
}

// Proposition 4.4 at test scale: the Bernoulli sample is close to alpha*n.
TEST(SketchBuilderTest, SampleSizeConcentration) {
  const int64_t n = 200000;
  SketchBuildConfig config;
  config.num_partitions = 10;
  const double alpha = config.SampleAlpha(n);
  Rng rng(13);
  int64_t sampled = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (rng.NextBernoulli(alpha)) ++sampled;
  }
  const double expected = alpha * static_cast<double>(n);
  EXPECT_NEAR(static_cast<double>(sampled), expected,
              4 * std::sqrt(expected));
}

// Proposition 4.6 at test scale: on skew-free data the partition elements
// split every cuboid into near-equal ranges.
TEST(SketchBuilderTest, PartitionsAreBalancedOnUniformData) {
  const int64_t n = 40000;
  const int k = 8;
  Relation rel = GenUniform(n, 3, 10000, 17);
  SketchBuildConfig config;
  config.num_partitions = k;
  auto sketch = BuildSketchLocal(rel, config);
  ASSERT_TRUE(sketch.ok());

  for (CuboidMask mask = 1; mask < 8; ++mask) {
    std::vector<int64_t> sizes(static_cast<size_t>(k), 0);
    for (int64_t r = 0; r < n; ++r) {
      ++sizes[static_cast<size_t>(
          sketch->PartitionOfTuple(mask, rel.row(r)))];
    }
    const int64_t expected = n / k;
    for (int64_t size : sizes) {
      EXPECT_LT(size, 2 * expected) << "mask " << mask;
      EXPECT_GT(size, expected / 3) << "mask " << mask;
    }
  }
}

// Proposition 4.7 at test scale: the sketch stays tiny relative to the
// input (the paper reports 6 orders of magnitude on real data).
TEST(SketchBuilderTest, SketchIsSmall) {
  const int64_t n = 100000;
  Relation rel = GenWikiLike(n, 19);
  SketchBuildConfig config;
  config.num_partitions = 16;
  auto sketch = BuildSketchLocal(rel, config);
  ASSERT_TRUE(sketch.ok());
  const int64_t sketch_bytes = sketch->SerializedByteSize();
  const int64_t data_bytes = rel.ByteSize();
  EXPECT_LT(sketch_bytes * 50, data_bytes);
  // And bounded by O(2^d * k) entries worth of bytes.
  EXPECT_LT(sketch->TotalSkewedGroups(), NumCuboids(4) * 16);
}

TEST(SketchBuilderTest, EmptyRelation) {
  Relation rel(MakeAnonymousSchema(2));
  SketchBuildConfig config;
  config.num_partitions = 4;
  auto sketch = BuildSketchLocal(rel, config);
  ASSERT_TRUE(sketch.ok());
  EXPECT_EQ(sketch->TotalSkewedGroups(), 0);
}

TEST(SketchBuilderTest, DeterministicForSeed) {
  Relation rel = GenZipfPaper(20000, 23);
  SketchBuildConfig config;
  config.num_partitions = 8;
  config.seed = 99;
  auto a = BuildSketchLocal(rel, config);
  auto b = BuildSketchLocal(rel, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->Serialize(), b->Serialize());
}

TEST(SketchBuildConfigTest, ResolvedForFillsOnlyUnsetFields) {
  const SketchBuildConfig derived = SketchBuildConfig{}.ResolvedFor(4, 1000);
  EXPECT_EQ(derived.num_partitions, 4);
  EXPECT_EQ(derived.memory_tuples_m, 250);
  EXPECT_EQ(SketchBuildConfig{}.ResolvedFor(8, 3).memory_tuples_m, 1);

  SketchBuildConfig fixed;
  fixed.num_partitions = 3;
  fixed.memory_tuples_m = 7;
  const SketchBuildConfig kept = fixed.ResolvedFor(4, 1000);
  EXPECT_EQ(kept.num_partitions, 3);
  EXPECT_EQ(kept.memory_tuples_m, 7);
}

/// Serves a fixed list of values as one reduce group.
class ListValueStream : public ValueStream {
 public:
  explicit ListValueStream(std::vector<std::string> values)
      : values_(std::move(values)) {}

  Result<bool> Next(std::string* value) override {
    if (next_ == values_.size()) return false;
    *value = values_[next_++];
    return true;
  }

 private:
  std::vector<std::string> values_;
  size_t next_ = 0;
};

TEST(AppendTupleGroupTest, WrongArityIsCorruptionAndKeepsEarlierRows) {
  Relation relation(MakeAnonymousSchema(2));
  ListValueStream values({EncodeTuple(std::vector<int64_t>{1, 2}, 10),
                          EncodeTuple(std::vector<int64_t>{1, 2, 3}, 20),
                          EncodeTuple(std::vector<int64_t>{5, 6}, 30)});
  EXPECT_EQ(AppendTupleGroup(values, &relation).code(),
            StatusCode::kCorruption);
  ASSERT_EQ(relation.num_rows(), 1);
  EXPECT_EQ(relation.row(0)[0], 1);
  EXPECT_EQ(relation.row(0)[1], 2);
  EXPECT_EQ(relation.measure(0), 10);
}

TEST(AppendTupleGroupTest, TruncatedTupleIsCorruptionAndKeepsEarlierRows) {
  Relation relation(MakeAnonymousSchema(2));
  const std::string whole = EncodeTuple(std::vector<int64_t>{7, 8}, 9);
  ListValueStream values({whole, whole.substr(0, whole.size() - 1)});
  EXPECT_EQ(AppendTupleGroup(values, &relation).code(),
            StatusCode::kCorruption);
  ASSERT_EQ(relation.num_rows(), 1);
  EXPECT_EQ(relation.row(0)[0], 7);
  EXPECT_EQ(relation.measure(0), 9);
}

}  // namespace
}  // namespace spcube
