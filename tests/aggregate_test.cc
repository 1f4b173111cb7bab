// Tests for the aggregate functions: semantics, merge algebra, and the
// distributive/algebraic classification the paper relies on for mapper-side
// partial aggregation (§7).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <ostream>

#include "common/random.h"
#include "cube/aggregate.h"

namespace spcube {
namespace {

AggState FoldAll(const Aggregator& agg, const std::vector<int64_t>& values) {
  AggState state = agg.Empty();
  for (int64_t v : values) agg.Add(state, v);
  return state;
}

TEST(AggregateTest, CountSemantics) {
  const Aggregator& agg = GetAggregator(AggregateKind::kCount);
  EXPECT_STREQ(agg.name(), "count");
  EXPECT_FALSE(agg.is_algebraic());
  AggState state = FoldAll(agg, {5, -2, 7});
  EXPECT_EQ(agg.Finalize(state), 3.0);
  EXPECT_EQ(agg.Finalize(agg.Empty()), 0.0);
}

TEST(AggregateTest, SumSemantics) {
  const Aggregator& agg = GetAggregator(AggregateKind::kSum);
  AggState state = FoldAll(agg, {5, -2, 7});
  EXPECT_EQ(agg.Finalize(state), 10.0);
}

TEST(AggregateTest, MinSemantics) {
  const Aggregator& agg = GetAggregator(AggregateKind::kMin);
  AggState state = FoldAll(agg, {5, -2, 7});
  EXPECT_EQ(agg.Finalize(state), -2.0);
}

TEST(AggregateTest, MaxSemantics) {
  const Aggregator& agg = GetAggregator(AggregateKind::kMax);
  AggState state = FoldAll(agg, {5, -2, 7});
  EXPECT_EQ(agg.Finalize(state), 7.0);
}

TEST(AggregateTest, AvgSemantics) {
  const Aggregator& agg = GetAggregator(AggregateKind::kAvg);
  EXPECT_TRUE(agg.is_algebraic());
  AggState state = FoldAll(agg, {2, 4, 6});
  EXPECT_EQ(agg.Finalize(state), 4.0);
  EXPECT_EQ(agg.Finalize(agg.Empty()), 0.0);
}

TEST(AggregateTest, MinMaxEmptyMergeIsIdentity) {
  for (AggregateKind kind : {AggregateKind::kMin, AggregateKind::kMax}) {
    const Aggregator& agg = GetAggregator(kind);
    AggState state = FoldAll(agg, {3});
    AggState empty = agg.Empty();
    agg.Merge(state, empty);
    EXPECT_EQ(agg.Finalize(state), 3.0);
    AggState target = agg.Empty();
    agg.Merge(target, state);
    EXPECT_EQ(agg.Finalize(target), 3.0);
  }
}

TEST(AggregateTest, MinMaxNegativeOnlyValues) {
  // Regression guard: a zero-initialized lane must not leak a spurious 0.
  const Aggregator& min_agg = GetAggregator(AggregateKind::kMin);
  const Aggregator& max_agg = GetAggregator(AggregateKind::kMax);
  EXPECT_EQ(min_agg.Finalize(FoldAll(min_agg, {-5, -9, -1})), -9.0);
  EXPECT_EQ(max_agg.Finalize(FoldAll(max_agg, {-5, -9, -1})), -1.0);
}

TEST(AggregateTest, StateSerializationRoundTrip) {
  AggState state{-123456789, 42};
  ByteWriter writer;
  state.EncodeTo(writer);
  ByteReader reader(writer.data());
  AggState decoded;
  ASSERT_TRUE(AggState::DecodeFrom(reader, &decoded).ok());
  EXPECT_EQ(decoded, state);
}

TEST(AggregateTest, NameParsing) {
  EXPECT_EQ(AggregateKindFromName("count").value(), AggregateKind::kCount);
  EXPECT_EQ(AggregateKindFromName("sum").value(), AggregateKind::kSum);
  EXPECT_EQ(AggregateKindFromName("min").value(), AggregateKind::kMin);
  EXPECT_EQ(AggregateKindFromName("max").value(), AggregateKind::kMax);
  EXPECT_EQ(AggregateKindFromName("avg").value(), AggregateKind::kAvg);
  EXPECT_FALSE(AggregateKindFromName("median").ok());
}

struct MergeCase {
  AggregateKind kind;
  uint64_t seed;
};

// gtest would otherwise print the struct's raw bytes, padding included,
// and those bytes become part of the test names CTest discovers.
void PrintTo(const MergeCase& merge_case, std::ostream* os) {
  *os << GetAggregator(merge_case.kind).name() << "/seed" << merge_case.seed;
}

class MergePropertyTest : public ::testing::TestWithParam<MergeCase> {};

// The key algebraic property SP-Cube relies on: folding a multiset in one
// pass equals folding arbitrary sub-multisets on different machines and
// merging the partial states (mapper-side skew aggregation + skew-reducer
// merge must be exact).
TEST_P(MergePropertyTest, ArbitrarySplitsMergeExactly) {
  const Aggregator& agg = GetAggregator(GetParam().kind);
  Rng rng(GetParam().seed);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 1 + static_cast<int>(rng.NextBounded(100));
    std::vector<int64_t> values;
    for (int i = 0; i < n; ++i) {
      values.push_back(rng.NextInRange(-1000, 1000));
    }
    const double direct = agg.Finalize(FoldAll(agg, values));

    // Split into up to 8 random chunks, fold each, merge in random order.
    const int chunks = 1 + static_cast<int>(rng.NextBounded(8));
    std::vector<AggState> partials(static_cast<size_t>(chunks));
    for (auto& p : partials) p = agg.Empty();
    for (int64_t v : values) {
      agg.Add(partials[rng.NextBounded(static_cast<uint64_t>(chunks))], v);
    }
    AggState merged = agg.Empty();
    for (const AggState& partial : partials) agg.Merge(merged, partial);
    EXPECT_DOUBLE_EQ(agg.Finalize(merged), direct);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndSeeds, MergePropertyTest,
    ::testing::Values(MergeCase{AggregateKind::kCount, 1},
                      MergeCase{AggregateKind::kCount, 2},
                      MergeCase{AggregateKind::kSum, 1},
                      MergeCase{AggregateKind::kSum, 2},
                      MergeCase{AggregateKind::kMin, 1},
                      MergeCase{AggregateKind::kMin, 2},
                      MergeCase{AggregateKind::kMax, 1},
                      MergeCase{AggregateKind::kMax, 2},
                      MergeCase{AggregateKind::kAvg, 1},
                      MergeCase{AggregateKind::kAvg, 2}));

TEST(AggregateTest, MergeIsAssociative) {
  for (AggregateKind kind :
       {AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
        AggregateKind::kMax, AggregateKind::kAvg}) {
    const Aggregator& agg = GetAggregator(kind);
    AggState a = FoldAll(agg, {1, 2});
    AggState b = FoldAll(agg, {30});
    AggState c = FoldAll(agg, {-4, 7});

    AggState ab = agg.Empty();
    agg.Merge(ab, a);
    agg.Merge(ab, b);
    agg.Merge(ab, c);

    AggState bc = agg.Empty();
    agg.Merge(bc, b);
    agg.Merge(bc, c);
    AggState a_bc = agg.Empty();
    agg.Merge(a_bc, a);
    agg.Merge(a_bc, bc);

    EXPECT_DOUBLE_EQ(agg.Finalize(ab), agg.Finalize(a_bc)) << agg.name();
  }
}

}  // namespace
}  // namespace spcube
