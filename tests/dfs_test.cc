// Tests for the simulated distributed file system and local spill files.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "io/dfs.h"
#include "io/io_fault.h"
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
  EXPECT_TRUE(dfs.VerifyChecksum("log").ok());
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

/// Two runs written back to back into one file, as a spill writes them:
/// run A's three records occupy [0, a_bytes), run B's two the rest.
struct TwoRunFile {
  std::string path;
  int64_t a_bytes = 0;
  int64_t b_bytes = 0;
  std::vector<std::string> a = {"alpha", "bravo", "charlie"};
  std::vector<std::string> b = {"delta", "echo"};
};

TwoRunFile WriteTwoRuns(TempFileManager* manager) {
  TwoRunFile file;
  file.path = manager->NextPath();
  SpillWriter writer(file.path);
  EXPECT_TRUE(writer.Open().ok());
  for (const std::string& record : file.a) {
    EXPECT_TRUE(writer.Append(record).ok());
  }
  file.a_bytes = writer.bytes_written();
  for (const std::string& record : file.b) {
    EXPECT_TRUE(writer.Append(record).ok());
  }
  file.b_bytes = writer.bytes_written() - file.a_bytes;
  EXPECT_TRUE(writer.Close().ok());
  return file;
}

/// Every record `reader` yields until its end, or the first error.
Status ReadAll(SpillReader* reader, std::vector<std::string>* records) {
  SPCUBE_RETURN_IF_ERROR(reader->Open());
  std::string record;
  for (;;) {
    SPCUBE_ASSIGN_OR_RETURN(bool more, reader->Next(&record));
    if (!more) return Status::OK();
    records->push_back(record);
  }
}

TEST(SpillTest, RangedReaderStopsAtItsRunsEnd) {
  TempFileManager manager("spill");
  const TwoRunFile file = WriteTwoRuns(&manager);

  std::vector<std::string> a;
  SpillReader read_a(file.path, 0, file.a_bytes);
  ASSERT_TRUE(ReadAll(&read_a, &a).ok());
  EXPECT_EQ(a, file.a);
  std::vector<std::string> b;
  SpillReader read_b(file.path, file.a_bytes, file.b_bytes);
  ASSERT_TRUE(ReadAll(&read_b, &b).ok());
  EXPECT_EQ(b, file.b);

  // One byte past A's end is B's first frame, which crosses the range end;
  // one byte short cuts A's last frame.
  for (const int64_t length : {file.a_bytes + 1, file.a_bytes - 1}) {
    std::vector<std::string> records;
    SpillReader reader(file.path, 0, length);
    EXPECT_EQ(ReadAll(&reader, &records).code(), StatusCode::kCorruption)
        << "length " << length;
    EXPECT_EQ(records.size(), length > file.a_bytes ? 3u : 2u);
  }
  // A range that runs past the end of the file is truncated, not short.
  std::vector<std::string> records;
  SpillReader past_end(file.path, file.a_bytes, file.b_bytes + 1);
  EXPECT_EQ(ReadAll(&past_end, &records).code(), StatusCode::kCorruption);
  EXPECT_EQ(records, file.b);
}

/// Corrupts the first fetch of every record of the resources in `targets`,
/// and records every resource it is asked about.
class TargetedCorruptor : public IoFaultInjector {
 public:
  explicit TargetedCorruptor(std::set<std::string> targets)
      : targets_(std::move(targets)) {}

  Status OnDfsRead(const std::string& /*path*/) override {
    return Status::OK();
  }

  bool MaybeCorrupt(std::string_view resource, uint64_t /*item*/,
                    int fetch_attempt, std::string* payload) override {
    seen_.insert(std::string(resource));
    if (fetch_attempt > 0 || payload->empty() ||
        targets_.count(std::string(resource)) == 0) {
      return false;
    }
    (*payload)[0] = static_cast<char>((*payload)[0] ^ 0x01);
    return true;
  }

  const std::set<std::string>& seen() const { return seen_; }

 private:
  std::set<std::string> targets_;
  std::set<std::string> seen_;
};

TEST(SpillTest, CorruptionInOneRunLeavesItsNeighbourIntact) {
  TempFileManager manager("spill");
  const TwoRunFile file = WriteTwoRuns(&manager);

  // In flight: every fetch of run A is corrupted once and re-fetched; run
  // B, a byte range of the same file, is never touched.
  TargetedCorruptor corruptor({"run/a"});
  int64_t a_mismatches = 0;
  int64_t b_mismatches = 0;
  std::vector<std::string> a;
  SpillReader read_a(file.path, 0, file.a_bytes);
  read_a.SetFaultInjection(&corruptor, &a_mismatches, "run/a");
  ASSERT_TRUE(ReadAll(&read_a, &a).ok());
  EXPECT_EQ(a, file.a);
  EXPECT_EQ(a_mismatches, 3);
  std::vector<std::string> b;
  SpillReader read_b(file.path, file.a_bytes, file.b_bytes);
  read_b.SetFaultInjection(&corruptor, &b_mismatches, "run/b");
  ASSERT_TRUE(ReadAll(&read_b, &b).ok());
  EXPECT_EQ(b, file.b);
  EXPECT_EQ(b_mismatches, 0);

  // Without a logical name, the runs fall back to distinct identities
  // (path plus offset), so a decision about one never hits the other.
  TargetedCorruptor observer({});
  for (const auto& [offset, length] :
       {std::pair{int64_t{0}, file.a_bytes},
        std::pair{file.a_bytes, file.b_bytes}}) {
    std::vector<std::string> records;
    SpillReader reader(file.path, offset, length);
    reader.SetFaultInjection(&observer, nullptr);
    ASSERT_TRUE(ReadAll(&reader, &records).ok());
  }
  EXPECT_EQ(observer.seen().size(), 2u);

  // At rest: a flipped byte inside run A's range fails A for good, and B
  // still reads back whole with no mismatch counted.
  {
    std::fstream bytes(file.path,
                       std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(bytes.good());
    bytes.seekg(file.a_bytes - 1);
    char byte = 0;
    bytes.get(byte);
    bytes.seekp(file.a_bytes - 1);
    bytes.put(static_cast<char>(byte ^ 0x20));
  }
  a.clear();
  SpillReader reread_a(file.path, 0, file.a_bytes);
  EXPECT_EQ(ReadAll(&reread_a, &a).code(), StatusCode::kCorruption);
  b.clear();
  b_mismatches = 0;
  SpillReader reread_b(file.path, file.a_bytes, file.b_bytes);
  reread_b.SetFaultInjection(&corruptor, &b_mismatches, "run/b");
  ASSERT_TRUE(ReadAll(&reread_b, &b).ok());
  EXPECT_EQ(b, file.b);
  EXPECT_EQ(b_mismatches, 0);
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
