// Tests for the DFS cube output format (paper §3.1's "one file per cuboid,
// concatenating the reducers' part files").

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

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
  config.num_workers = 4;
  config.memory_budget_bytes = 4 << 20;
  config.network_bandwidth_bytes_per_sec = 0;
  return config;
}

CubeRunOptions DfsOnly(const std::string& root) {
  CubeRunOptions options;
  options.collect_output = false;
  options.dfs_output_root = root;
  return options;
}

TEST(DfsCubeWriterTest, WriteAndReadBack) {
  DistributedFileSystem dfs;
  CubeCollector writer(DfsOnly("out"), &dfs, 2);
  ByteWriter key_writer;
  GroupKey(0b01, {7}).EncodeTo(key_writer);
  ByteWriter value_writer;
  value_writer.PutDouble(3.5);
  ASSERT_TRUE(writer.Collect(2, key_writer.data(), value_writer.data()).ok());

  key_writer.Clear();
  GroupKey(0b11, {7, 8}).EncodeTo(key_writer);
  value_writer.Clear();
  value_writer.PutDouble(1.0);
  ASSERT_TRUE(writer.Collect(0, key_writer.data(), value_writer.data()).ok());

  // Layout: one directory per cuboid, part per reducer.
  EXPECT_TRUE(dfs.Exists("out/cuboid_1/part-2"));
  EXPECT_TRUE(dfs.Exists("out/cuboid_3/part-0"));
  EXPECT_EQ(CuboidPartCount(dfs, "out", 0b01), 1);
  EXPECT_EQ(CuboidPartCount(dfs, "out", 0b10), 0);

  auto cube = ReadCubeFromDfs(dfs, "out", 2);
  ASSERT_TRUE(cube.ok()) << cube.status();
  EXPECT_EQ(cube->num_groups(), 2);
  EXPECT_EQ(cube->Lookup(GroupKey(0b01, {7})).value(), 3.5);
  EXPECT_EQ(cube->Lookup(GroupKey(0b11, {7, 8})).value(), 1.0);
}

TEST(DfsCubeWriterTest, RejectsGarbageKeys) {
  DistributedFileSystem dfs;
  CubeCollector writer(DfsOnly("out"), &dfs, 2);
  EXPECT_FALSE(writer.Collect(0, "", "x").ok());
  // A well-formed key with a truncated value is rejected too.
  ByteWriter key_writer;
  GroupKey(0b1, {3}).EncodeTo(key_writer);
  EXPECT_EQ(writer.Collect(0, key_writer.data(), "abc").code(),
            StatusCode::kCorruption);
  EXPECT_EQ(dfs.file_count(), 0);
}

TEST(CubeCollectorTest, DiscardsWithoutDecodingWhenNothingRequested) {
  DistributedFileSystem dfs;
  CubeCollector collector(DfsOnly(""), &dfs, 2);
  EXPECT_FALSE(collector.wants_cells());
  // Garbage would fail to decode; discarding must not even look at it.
  EXPECT_TRUE(collector.Collect(0, "", "x").ok());
  EXPECT_EQ(collector.TakeCube(), nullptr);
  EXPECT_EQ(dfs.file_count(), 0);
}

TEST(CubeCollectorTest, ReserveKeepsTheCubeIdentical) {
  const Relation rel = GenBinomial(800, 3, 0.4, 57);
  const CubeResult reference = ComputeCubeReference(rel, AggregateKind::kSum);
  CubeRunOptions options;
  options.collect_output = true;
  DistributedFileSystem dfs;
  CubeCollector plain(options, &dfs, rel.num_dims());
  CubeCollector reserved(options, &dfs, rel.num_dims());
  // Two rounds' worth of Reserve calls, as a multi-round algorithm makes:
  // an exact count for the first half, an overshoot for the second.
  const int64_t half = reference.num_groups() / 2;
  reserved.Reserve(half);
  int64_t delivered = 0;
  ByteWriter key;
  ByteWriter value;
  for (const auto& [group, cell] : reference.groups()) {
    if (delivered++ == half) reserved.Reserve(reference.num_groups());
    key.Clear();
    group.EncodeTo(key);
    value.Clear();
    value.PutDouble(cell);
    ASSERT_TRUE(plain.Collect(0, key.data(), value.data()).ok());
    ASSERT_TRUE(reserved.Collect(0, key.data(), value.data()).ok());
  }
  const std::unique_ptr<CubeResult> expected = plain.TakeCube();
  const std::unique_ptr<CubeResult> actual = reserved.TakeCube();
  ASSERT_NE(actual, nullptr);
  std::string diff;
  EXPECT_TRUE(CubeResult::ApproxEqual(*expected, *actual, 0.0, &diff)) << diff;
  EXPECT_TRUE(CubeResult::ApproxEqual(reference, *actual, 0.0, &diff)) << diff;
  // A collector that keeps no cube ignores Reserve.
  CubeCollector discard(DfsOnly(""), &dfs, rel.num_dims());
  discard.Reserve(reference.num_groups());
  EXPECT_EQ(discard.TakeCube(), nullptr);
}

TEST(DfsCubeWriterTest, ReadRejectsCorruptPart) {
  DistributedFileSystem dfs;
  ASSERT_TRUE(dfs.Write("out/cuboid_0/part-0", "garbage!").ok());
  EXPECT_FALSE(ReadCubeFromDfs(dfs, "out", 2).ok());
}

class DfsOutputAlgorithmTest : public ::testing::Test {
 protected:
  void ExpectDfsMatchesCollected(CubeAlgorithm& algorithm) {
    Relation rel = GenBinomial(1500, 3, 0.4, 121);
    DistributedFileSystem dfs;
    Engine engine(TestConfig(), &dfs);
    CubeRunOptions options;
    options.dfs_output_root = "cube/out";
    auto output = algorithm.Run(engine, rel, options);
    ASSERT_TRUE(output.ok()) << algorithm.name() << ": " << output.status();
    auto from_dfs = ReadCubeFromDfs(dfs, "cube/out", 3);
    ASSERT_TRUE(from_dfs.ok()) << algorithm.name() << ": "
                               << from_dfs.status();
    std::string diff;
    EXPECT_TRUE(
        CubeResult::ApproxEqual(*output->cube, *from_dfs, 1e-9, &diff))
        << algorithm.name() << ":\n"
        << diff;
    // Every cuboid directory exists.
    for (CuboidMask mask = 0; mask < 8; ++mask) {
      EXPECT_GT(CuboidPartCount(dfs, "cube/out", mask), 0)
          << algorithm.name() << " cuboid " << mask;
    }
  }
};

TEST_F(DfsOutputAlgorithmTest, SpCube) {
  SpCubeAlgorithm algorithm;
  ExpectDfsMatchesCollected(algorithm);
}

TEST_F(DfsOutputAlgorithmTest, Naive) {
  NaiveCubeAlgorithm algorithm;
  ExpectDfsMatchesCollected(algorithm);
}

TEST_F(DfsOutputAlgorithmTest, Hive) {
  HiveCubeAlgorithm algorithm;
  ExpectDfsMatchesCollected(algorithm);
}

TEST_F(DfsOutputAlgorithmTest, MrCube) {
  MrCubeAlgorithm algorithm;
  ExpectDfsMatchesCollected(algorithm);
}

TEST_F(DfsOutputAlgorithmTest, TopDown) {
  TopDownCubeAlgorithm algorithm;
  ExpectDfsMatchesCollected(algorithm);
}

TEST(DfsOutputTest, WorksWithoutInMemoryCollection) {
  Relation rel = GenUniform(800, 2, 10, 123);
  CubeResult reference = ComputeCubeReference(rel, AggregateKind::kCount);
  SpCubeAlgorithm sp;
  NaiveCubeAlgorithm naive;
  HiveCubeAlgorithm hive;
  MrCubeAlgorithm mrcube;
  TopDownCubeAlgorithm topdown;
  for (CubeAlgorithm* algorithm :
       std::vector<CubeAlgorithm*>{&sp, &naive, &hive, &mrcube, &topdown}) {
    SCOPED_TRACE(algorithm->name());
    DistributedFileSystem dfs;
    Engine engine(TestConfig(), &dfs);
    auto output = algorithm->Run(engine, rel, DfsOnly("only/dfs"));
    ASSERT_TRUE(output.ok()) << output.status();
    EXPECT_EQ(output->cube, nullptr);
    auto from_dfs = ReadCubeFromDfs(dfs, "only/dfs", 2);
    ASSERT_TRUE(from_dfs.ok()) << from_dfs.status();
    std::string diff;
    EXPECT_TRUE(CubeResult::ApproxEqual(reference, *from_dfs, 1e-9, &diff))
        << diff;
  }
}

}  // namespace
}  // namespace spcube
