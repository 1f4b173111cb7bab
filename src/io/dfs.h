#ifndef SPCUBE_IO_DFS_H_
#define SPCUBE_IO_DFS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "io/io_fault.h"

namespace spcube {

/// A process-local stand-in for the distributed file system the paper's
/// cluster shares (HDFS). It stores named immutable byte blobs and is safe
/// for concurrent access by the simulated workers. The MapReduce engine uses
/// it for job inputs/outputs; the SP-Cube driver uses it to broadcast the
/// serialized SP-Sketch to every worker, exactly as the paper describes
/// ("the sketch is stored in the distributed file system to be later cached
/// by all machines").
///
/// Every blob carries a CRC32C computed at write time. Reads verify the
/// checksum against the delivered bytes and re-fetch on mismatch (HDFS's
/// per-block checksum protocol); with a fault injector installed this is
/// what turns in-flight corruption into a counted, recovered event rather
/// than silent data loss. Corruption that survives every re-fetch surfaces
/// as a Corruption status.
class DistributedFileSystem {
 public:
  DistributedFileSystem() = default;

  DistributedFileSystem(const DistributedFileSystem&) = delete;
  DistributedFileSystem& operator=(const DistributedFileSystem&) = delete;

  /// Creates a file. Fails with AlreadyExists if the path is taken.
  Status Write(const std::string& path, std::string contents);

  /// Replaces a file, creating it if absent.
  Status Overwrite(const std::string& path, std::string contents);

  /// Appends to a file, creating it if absent.
  Status Append(const std::string& path, std::string_view contents);

  /// Reads a whole file, verifying its checksum (re-fetching on mismatch).
  Result<std::string> Read(const std::string& path) const;

  /// Read with bounded retry of *transient* I/O errors (an injected fault
  /// or a flaky replica). Other verdicts — NotFound, unrecoverable
  /// Corruption — propagate immediately; retrying cannot change them. Use
  /// this for driver-side reads that are not covered by task-attempt retry.
  Result<std::string> ReadWithRetry(const std::string& path,
                                    int max_attempts = 3) const;

  bool Exists(const std::string& path) const;

  Status Delete(const std::string& path);

  /// Removes every file whose path starts with `prefix`; returns the number
  /// of files removed.
  int64_t DeletePrefix(const std::string& prefix);

  /// Lists paths with the given prefix, in lexicographic order.
  std::vector<std::string> List(const std::string& prefix) const;

  /// Sum of stored file sizes under a prefix (pass "" for the whole FS) —
  /// the modeled storage/transfer cost.
  int64_t TotalBytes(const std::string& prefix) const;

  int64_t file_count() const;

  /// Verifies a blob's stored bytes against its checksum in place, without
  /// the whole-blob copy a Read pays. For checksum-only verification
  /// probes; does not model a transfer, so the fault injector is not
  /// consulted.
  Status VerifyChecksum(const std::string& path) const;

  /// Installs (or clears, with nullptr) the fault model consulted on reads.
  /// The injector must outlive the file system or be cleared first.
  void SetFaultInjector(IoFaultInjector* injector);

  /// Checksum mismatches observed on reads (each re-fetch that still
  /// mismatches counts once).
  int64_t checksum_mismatches() const;

  /// Reads that returned OK only after at least one mismatched fetch.
  int64_t reads_recovered() const;

 private:
  struct Blob {
    std::string data;
    uint32_t crc = 0;  // CRC32C of `data`
  };

  static Blob MakeBlob(std::string contents);

  mutable Mutex mu_;
  std::map<std::string, Blob> files_ SPCUBE_GUARDED_BY(mu_);
  IoFaultInjector* injector_ SPCUBE_GUARDED_BY(mu_) = nullptr;
  mutable int64_t checksum_mismatches_ SPCUBE_GUARDED_BY(mu_) = 0;
  mutable int64_t reads_recovered_ SPCUBE_GUARDED_BY(mu_) = 0;
};

}  // namespace spcube

#endif  // SPCUBE_IO_DFS_H_
