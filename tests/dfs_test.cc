// Tests for the simulated distributed file system and local spill files.

#include <gtest/gtest.h>

#include <filesystem>

#include "io/dfs.h"
#include "io/spill.h"

namespace spcube {
namespace {

TEST(DfsTest, WriteReadDelete) {
  DistributedFileSystem dfs;
  ASSERT_TRUE(dfs.Write("a/b", "hello").ok());
  EXPECT_TRUE(dfs.Exists("a/b"));
  EXPECT_EQ(dfs.Read("a/b").value(), "hello");
  ASSERT_TRUE(dfs.Delete("a/b").ok());
  EXPECT_FALSE(dfs.Exists("a/b"));
  EXPECT_FALSE(dfs.Read("a/b").ok());
  EXPECT_EQ(dfs.Delete("a/b").code(), StatusCode::kNotFound);
}

TEST(DfsTest, WriteRefusesOverwrite) {
  DistributedFileSystem dfs;
  ASSERT_TRUE(dfs.Write("x", "1").ok());
  EXPECT_EQ(dfs.Write("x", "2").code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(dfs.Overwrite("x", "2").ok());
  EXPECT_EQ(dfs.Read("x").value(), "2");
}

TEST(DfsTest, AppendCreatesAndExtends) {
  DistributedFileSystem dfs;
  ASSERT_TRUE(dfs.Append("log", "a").ok());
  ASSERT_TRUE(dfs.Append("log", "b").ok());
  EXPECT_EQ(dfs.Read("log").value(), "ab");
}

TEST(DfsTest, ListAndTotalsByPrefix) {
  DistributedFileSystem dfs;
  ASSERT_TRUE(dfs.Write("out/part-0", "aa").ok());
  ASSERT_TRUE(dfs.Write("out/part-1", "bbb").ok());
  ASSERT_TRUE(dfs.Write("other", "c").ok());
  EXPECT_EQ(dfs.List("out/"),
            (std::vector<std::string>{"out/part-0", "out/part-1"}));
  EXPECT_EQ(dfs.TotalBytes("out/"), 5);
  EXPECT_EQ(dfs.TotalBytes(""), 6);
  EXPECT_EQ(dfs.file_count(), 3);
  EXPECT_EQ(dfs.DeletePrefix("out/"), 2);
  EXPECT_EQ(dfs.file_count(), 1);
}

TEST(DfsTest, VerifyChecksumSeesStoredBytes) {
  DistributedFileSystem dfs;
  ASSERT_TRUE(dfs.Write("plain", "payload").ok());
  EXPECT_TRUE(dfs.VerifyChecksum("plain").ok());
  EXPECT_EQ(dfs.VerifyChecksum("missing").code(), StatusCode::kNotFound);
}

TEST(TempFileManagerTest, CreatesAndCleansUp) {
  std::string dir;
  {
    TempFileManager manager("test");
    dir = manager.dir();
    EXPECT_TRUE(std::filesystem::exists(dir));
    const std::string p1 = manager.NextPath();
    const std::string p2 = manager.NextPath();
    EXPECT_NE(p1, p2);
    EXPECT_EQ(p1.rfind(dir, 0), 0u);  // paths live under the managed dir
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(SpillTest, WriteReadRoundTrip) {
  TempFileManager manager("spill");
  const std::string path = manager.NextPath();
  {
    SpillWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Append("one").ok());
    ASSERT_TRUE(writer.Append("").ok());
    ASSERT_TRUE(writer.Append(std::string(100000, 'x')).ok());
    EXPECT_EQ(writer.record_count(), 3);
    ASSERT_TRUE(writer.Close().ok());
  }
  SpillReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  std::string record;
  ASSERT_TRUE(reader.Next(&record).value());
  EXPECT_EQ(record, "one");
  ASSERT_TRUE(reader.Next(&record).value());
  EXPECT_EQ(record, "");
  ASSERT_TRUE(reader.Next(&record).value());
  EXPECT_EQ(record.size(), 100000u);
  EXPECT_FALSE(reader.Next(&record).value());  // end of file
  ASSERT_TRUE(reader.Close().ok());
}

TEST(SpillTest, BinaryRecordsSurvive) {
  TempFileManager manager("spill");
  const std::string path = manager.NextPath();
  std::string binary;
  for (int i = 0; i < 256; ++i) binary.push_back(static_cast<char>(i));
  {
    SpillWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Append(binary).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  SpillReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  std::string record;
  ASSERT_TRUE(reader.Next(&record).value());
  EXPECT_EQ(record, binary);
}

TEST(SpillTest, MissingFileIsIoError) {
  SpillReader reader("/nonexistent/path/file.bin");
  EXPECT_EQ(reader.Open().code(), StatusCode::kIoError);
  SpillWriter writer("/nonexistent/path/file.bin");
  EXPECT_EQ(writer.Open().code(), StatusCode::kIoError);
}

TEST(SpillTest, AppendBeforeOpenFails) {
  TempFileManager manager("spill");
  SpillWriter writer(manager.NextPath());
  EXPECT_EQ(writer.Append("x").code(), StatusCode::kFailedPrecondition);
}

TEST(SpillTest, TruncatedFileIsCorruption) {
  TempFileManager manager("spill");
  const std::string path = manager.NextPath();
  {
    SpillWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Append("hello world").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  // Chop the payload.
  std::filesystem::resize_file(path, 12);
  SpillReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  std::string record;
  auto result = reader.Next(&record);
  EXPECT_FALSE(result.ok());
}

TEST(SpillTest, RemoveFileIfExistsIsIdempotent) {
  TempFileManager manager("spill");
  const std::string path = manager.NextPath();
  {
    SpillWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  EXPECT_TRUE(std::filesystem::exists(path));
  RemoveFileIfExists(path);
  EXPECT_FALSE(std::filesystem::exists(path));
  RemoveFileIfExists(path);  // no crash on missing
}

}  // namespace
}  // namespace spcube
