#ifndef SPCUBE_IO_SPILL_H_
#define SPCUBE_IO_SPILL_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "io/io_fault.h"

namespace spcube {

/// Creates uniquely-named files under a private temporary directory and
/// removes the directory on destruction. Each simulated worker gets one for
/// its shuffle spills, mirroring a Hadoop task's local scratch space.
class TempFileManager {
 public:
  /// `tag` appears in the directory name for debuggability.
  explicit TempFileManager(const std::string& tag);
  ~TempFileManager();

  TempFileManager(const TempFileManager&) = delete;
  TempFileManager& operator=(const TempFileManager&) = delete;

  /// Returns a fresh path inside the managed directory (file not created).
  std::string NextPath();

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::atomic<int64_t> counter_{0};
};

/// A spill file on local disk, shared by the sorted runs written into it:
/// a map-side spill writes every partition's run into one file, each run a
/// byte range of it (docs/INTERNALS.md §9). Runs hold it through a
/// `std::shared_ptr<const SpillFile>`, and destroying it deletes the file,
/// so the file goes when the last run referencing it is released, on
/// whichever thread releases it.
class SpillFile {
 public:
  explicit SpillFile(std::string path) : path_(std::move(path)) {}
  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Writes records to a local file as [varint length][u32 crc32c][payload]
/// (docs/INTERNALS.md §13: the length is a LEB128 varint, so small payloads
/// pay 1 frame length byte instead of 8). Spill runs hand this writer one
/// *block* of delta-encoded records per Append (SpillBlockEncoder), so the
/// frame + checksum amortize across the block; the per-payload checksum
/// lets readers detect corruption of the run both at rest and in
/// (simulated) transfer. Several runs may be written back to back into one
/// file; bytes_written() before and after a run delimits its byte range.
class SpillWriter {
 public:
  explicit SpillWriter(std::string path);
  ~SpillWriter();

  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  Status Open();
  Status Append(std::string_view record);
  /// Flushes and closes; further Appends are invalid.
  Status Close();

  const std::string& path() const { return path_; }
  int64_t bytes_written() const { return bytes_written_; }
  int64_t record_count() const { return record_count_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  int64_t bytes_written_ = 0;
  int64_t record_count_ = 0;
};

/// Streams the records of a spill file, or of one run's byte range of it,
/// back in write order, verifying each record's checksum. A ranged reader
/// stops at the range's end; a frame that crosses the end (or a file that
/// ends inside the range) is Corruption. With a fault injector installed, a
/// mismatch caused by an injected in-flight corruption is recovered by
/// re-fetching the pristine on-disk bytes (a reducer re-requesting the map
/// output segment); a mismatch in the bytes actually on disk is
/// unrecoverable and surfaces as Corruption.
class SpillReader {
 public:
  /// Reads the whole file.
  explicit SpillReader(std::string path);
  /// Reads the `length` bytes starting at byte `offset`.
  SpillReader(std::string path, int64_t offset, int64_t length);
  ~SpillReader();

  SpillReader(const SpillReader&) = delete;
  SpillReader& operator=(const SpillReader&) = delete;

  Status Open();

  /// Installs the corruption model for subsequent reads. `mismatch_counter`
  /// (may be null) is incremented once per detected-and-recovered mismatch;
  /// it is owned by the caller and must outlive the reader. `resource` is
  /// the identity fed to the injector's decision hash; pass a stable logical
  /// name (job/task/attempt/run) so injection is reproducible — host temp
  /// paths embed the pid and a process-global counter. Empty falls back to
  /// the file path (plus the range's offset for a ranged reader, so two
  /// runs of one file never share an identity).
  void SetFaultInjection(IoFaultInjector* injector, int64_t* mismatch_counter,
                         std::string resource = "");

  /// Reads the next record into `*record`. Returns true and OK status on
  /// success; false with OK status at the end of the file or range; false
  /// with error status on I/O failure or corruption.
  Result<bool> Next(std::string* record);

  Status Close();

 private:
  std::string path_;
  /// The path, plus "@<offset>" for a ranged reader: error messages and
  /// the fault-injection fallback identity.
  std::string location_;
  int64_t offset_ = 0;
  /// Bytes left in the range; -1 reads to the end of the file.
  int64_t remaining_ = -1;
  std::string resource_;
  std::FILE* file_ = nullptr;
  IoFaultInjector* injector_ = nullptr;
  int64_t* mismatch_counter_ = nullptr;
  uint64_t next_record_index_ = 0;
};

/// Deletes a file from the local filesystem, ignoring missing files.
void RemoveFileIfExists(const std::string& path);

}  // namespace spcube

#endif  // SPCUBE_IO_SPILL_H_
