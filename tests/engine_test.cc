// Tests for the engine's zero-copy input splits: every mapper must see a
// RelationView borrowing the job's input relation (pointer-identical column
// storage, no materialized sub-relations), with the splits together covering
// each input row exactly once.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "io/dfs.h"
#include "mapreduce/engine.h"
#include "relation/generators.h"
#include "relation/relation_view.h"

namespace spcube {
namespace {

/// What one Map call observed about its split.
struct SplitObservation {
  const Relation* base;             // identity of the view's base relation
  const int64_t* column0_data;      // storage identity of dimension 0
  int64_t begin;                    // first base row of the split
  int64_t num_rows;                 // split length
  int64_t materialized_byte_size;   // what a copying split would have cost
  int64_t global_row;               // base row of the mapped row
};

/// Records every Map call's view into shared state (sequential engine).
class SplitRecordingMapper : public Mapper {
 public:
  explicit SplitRecordingMapper(std::vector<SplitObservation>* observations)
      : observations_(observations) {}

  Status Map(const RelationView& input, int64_t row,
             MapContext& context) override {
    observations_->push_back(SplitObservation{
        &input.base(), input.base().column(0).data(),
        input.num_rows() > 0 ? input.base_row(0) : 0, input.num_rows(),
        input.MaterializedByteSize(), input.base_row(row)});
    return context.Emit("rows", "1");
  }

 private:
  std::vector<SplitObservation>* observations_;
};

class NullReducer : public Reducer {
 public:
  Status Reduce(const std::string& /*key*/, ValueStream& values,
                ReduceContext& /*context*/) override {
    std::string value;
    for (;;) {
      SPCUBE_ASSIGN_OR_RETURN(bool more, values.Next(&value));
      if (!more) break;
    }
    return Status::OK();
  }
};

EngineConfig SequentialConfig(int workers) {
  EngineConfig config;
  config.num_workers = workers;
  config.network_bandwidth_bytes_per_sec = 0;
  config.host_threads = 1;  // RecordingJob's mappers share one vector
  return config;
}

JobSpec RecordingJob(std::vector<SplitObservation>* observations) {
  JobSpec spec;
  spec.name = "split-audit";
  spec.mapper_factory = [observations] {
    return std::make_unique<SplitRecordingMapper>(observations);
  };
  spec.reducer_factory = [] { return std::make_unique<NullReducer>(); };
  return spec;
}

TEST(EngineSplitTest, MapperViewsBorrowTheInputRelation) {
  const Relation rel = GenUniform(/*rows=*/100, /*dims=*/3, /*card=*/7, 1);
  const int64_t byte_size_before = rel.ByteSize();

  DistributedFileSystem dfs;
  Engine engine(SequentialConfig(8), &dfs);
  std::vector<SplitObservation> observations;
  NullOutputCollector sink;
  auto metrics = engine.Run(RecordingJob(&observations), rel, &sink);
  ASSERT_TRUE(metrics.ok()) << metrics.status();

  ASSERT_EQ(observations.size(), 100u);
  for (const SplitObservation& obs : observations) {
    // The view's base IS the job input — same object, same column storage —
    // so constructing the split duplicated no tuple data.
    EXPECT_EQ(obs.base, &rel);
    EXPECT_EQ(obs.column0_data, rel.column(0).data());
  }
  // Nothing was appended to (or copied into) the input during the run.
  EXPECT_EQ(rel.ByteSize(), byte_size_before);
}

TEST(EngineSplitTest, SplitsPartitionTheInputExactlyOnce) {
  const Relation rel = GenUniform(/*rows=*/101, /*dims=*/2, /*card=*/5, 2);

  DistributedFileSystem dfs;
  Engine engine(SequentialConfig(7), &dfs);
  std::vector<SplitObservation> observations;
  NullOutputCollector sink;
  auto metrics = engine.Run(RecordingJob(&observations), rel, &sink);
  ASSERT_TRUE(metrics.ok()) << metrics.status();

  // Every global row mapped exactly once.
  std::set<int64_t> seen;
  for (const SplitObservation& obs : observations) {
    EXPECT_TRUE(seen.insert(obs.global_row).second)
        << "row " << obs.global_row << " mapped twice";
  }
  EXPECT_EQ(static_cast<int64_t>(seen.size()), rel.num_rows());

  // ByteSize accounting: had the engine materialized its splits (the old
  // Relation::Slice path), it would have copied the whole relation once per
  // round. The distinct splits' materialized sizes sum to exactly that.
  std::set<std::pair<int64_t, int64_t>> splits;
  int64_t would_have_copied = 0;
  for (const SplitObservation& obs : observations) {
    if (splits.insert({obs.begin, obs.num_rows}).second) {
      would_have_copied += obs.materialized_byte_size;
    }
  }
  EXPECT_EQ(would_have_copied, rel.ByteSize());
}

TEST(EngineSplitTest, UnevenSplitsCoverShortInputs) {
  // Fewer rows than workers: some splits are empty, none overlap.
  const Relation rel = GenUniform(/*rows=*/3, /*dims=*/1, /*card=*/2, 3);
  DistributedFileSystem dfs;
  Engine engine(SequentialConfig(8), &dfs);
  std::vector<SplitObservation> observations;
  NullOutputCollector sink;
  auto metrics = engine.Run(RecordingJob(&observations), rel, &sink);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  std::set<int64_t> seen;
  for (const SplitObservation& obs : observations) {
    EXPECT_TRUE(seen.insert(obs.global_row).second);
  }
  EXPECT_EQ(static_cast<int64_t>(seen.size()), rel.num_rows());
}

}  // namespace
}  // namespace spcube
