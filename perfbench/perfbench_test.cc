// Unit tests of the benchmark's own arithmetic: medians, quartiles (which
// must agree with Python's statistics.quantiles), the tail-percentile rule
// and span self-time bookkeeping.

#include <vector>

#include "gtest/gtest.h"
#include "span_trace.h"
#include "stats.h"

namespace spcube {
namespace perfbench {
namespace {

TEST(StatsTest, MedianOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(StatsTest, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);
  Quartiles q = ComputeQuartiles(ten);
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  EXPECT_DOUBLE_EQ(q.RelativeSpread(), 5.5 / 5.5);

  // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
  q = ComputeQuartiles({3, 1, 2});
  EXPECT_DOUBLE_EQ(q.q1, 1.0);
  EXPECT_DOUBLE_EQ(q.q3, 3.0);

  // Two samples extrapolate: statistics.quantiles([1, 2], n=4) ==
  // [0.75, 1.5, 2.25]
  q = ComputeQuartiles({2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 0.75);
  EXPECT_DOUBLE_EQ(q.median, 1.5);
  EXPECT_DOUBLE_EQ(q.q3, 2.25);
}

TEST(StatsTest, SingleSampleHasNoSpread) {
  const Quartiles q = ComputeQuartiles({7});
  EXPECT_DOUBLE_EQ(q.q1, 7);
  EXPECT_DOUBLE_EQ(q.q3, 7);
  EXPECT_DOUBLE_EQ(q.RelativeSpread(), 0);
}

TEST(StatsTest, TailKeepsTenSamplesBeyond) {
  std::vector<double> values;
  for (int i = 1; i <= 40; ++i) values.push_back(i);
  const TailSample tail = ComputeTail(values);
  EXPECT_FALSE(tail.at_median);
  EXPECT_EQ(tail.samples, 40);
  EXPECT_EQ(tail.beyond, 10);
  EXPECT_DOUBLE_EQ(tail.value, 30);  // 10 samples (31..40) lie beyond it
  EXPECT_DOUBLE_EQ(tail.percentile, 75);
}

TEST(StatsTest, TailWithTwentyTwoSamplesIsTheUpperMedian) {
  std::vector<double> values;
  for (int i = 22; i >= 1; --i) values.push_back(i);
  const TailSample tail = ComputeTail(values);
  EXPECT_FALSE(tail.at_median);
  EXPECT_DOUBLE_EQ(tail.value, 12);
  EXPECT_EQ(tail.beyond, 10);
}

TEST(StatsTest, TailIsFlooredAtTheMedianBelowTwentySamples) {
  // With 19 samples rank 9 has 10 beyond it but lies under the median, so
  // the rank is floored at the median, 10.
  std::vector<double> values;
  for (int i = 1; i <= 19; ++i) values.push_back(i);
  TailSample tail = ComputeTail(values);
  EXPECT_TRUE(tail.at_median);
  EXPECT_DOUBLE_EQ(tail.value, 10);
  EXPECT_EQ(tail.beyond, 9);

  tail = ComputeTail({5, 9, 7, 6});
  EXPECT_TRUE(tail.at_median);
  EXPECT_DOUBLE_EQ(tail.value, 7);  // upper median of 5 6 7 9
  EXPECT_EQ(tail.beyond, 1);
  EXPECT_DOUBLE_EQ(tail.percentile, 75);
}

TEST(SpanAccumulatorTest, SelfTimeIsSpanMinusDirectChildren) {
  SpanAccumulator acc;
  // Map [0, 100) with two emits [10, 30) and [50, 60); the first emit calls
  // partition [12, 17).
  acc.Begin(Layer::kMapWalk, 0);
  acc.Begin(Layer::kEmit, 10);
  acc.Begin(Layer::kPartition, 12);
  acc.End(17);
  acc.End(30);
  acc.Begin(Layer::kEmit, 50);
  acc.End(60);
  acc.End(100);
  EXPECT_EQ(acc.depth(), 0);

  const LayerTotals& t = acc.totals();
  const auto at = [](Layer layer) { return static_cast<size_t>(layer); };
  EXPECT_EQ(t.total_ns[at(Layer::kMapWalk)], 100);
  EXPECT_EQ(t.self_ns[at(Layer::kMapWalk)], 70);  // 100 - 20 - 10
  EXPECT_EQ(t.total_ns[at(Layer::kEmit)], 30);
  EXPECT_EQ(t.self_ns[at(Layer::kEmit)], 25);  // 30 - partition's 5
  EXPECT_EQ(t.calls[at(Layer::kEmit)], 2);
  EXPECT_EQ(t.self_ns[at(Layer::kPartition)], 5);
  EXPECT_EQ(t.top_level_ns, 100);  // only the map span had no parent
}

TEST(SpanAccumulatorTest, SelfTimeNeverNegative) {
  SpanAccumulator acc;
  // A clock that steps backwards: the child appears longer than its parent
  // and the parent ends before it began.
  acc.Begin(Layer::kReduceRange, 100);
  acc.Begin(Layer::kValueNext, 100);
  acc.End(180);
  acc.End(150);
  acc.Begin(Layer::kOutput, 200);
  acc.End(190);
  const LayerTotals& t = acc.totals();
  const auto at = [](Layer layer) { return static_cast<size_t>(layer); };
  EXPECT_EQ(t.total_ns[at(Layer::kReduceRange)], 50);
  EXPECT_EQ(t.self_ns[at(Layer::kReduceRange)], 0);  // 50 - 80 clamps to 0
  EXPECT_EQ(t.total_ns[at(Layer::kOutput)], 0);
  EXPECT_EQ(t.self_ns[at(Layer::kOutput)], 0);
}

TEST(SpanAccumulatorTest, TakeReturnsAndZeroes) {
  SpanAccumulator acc;
  acc.Begin(Layer::kEmit, 0);
  acc.End(10);
  const LayerTotals taken = acc.Take();
  EXPECT_DOUBLE_EQ(taken.TotalSeconds(Layer::kEmit), 10e-9);
  EXPECT_EQ(taken.Calls(Layer::kEmit), 1);
  EXPECT_EQ(acc.totals().Calls(Layer::kEmit), 0);
  EXPECT_EQ(acc.totals().top_level_ns, 0);
}

TEST(ScopedSpanTest, DrainSumsThreadAccumulators) {
  DrainAllThreads();
  {
    ScopedSpan outer(Layer::kMapWalk);
    ScopedSpan inner(Layer::kEmit);
  }
  const LayerTotals totals = DrainAllThreads();
  EXPECT_EQ(totals.Calls(Layer::kMapWalk), 1);
  EXPECT_EQ(totals.Calls(Layer::kEmit), 1);
  EXPECT_LE(totals.SelfSeconds(Layer::kMapWalk),
            totals.TotalSeconds(Layer::kMapWalk));
  EXPECT_EQ(DrainAllThreads().Calls(Layer::kMapWalk), 0);
}

}  // namespace
}  // namespace perfbench
}  // namespace spcube
