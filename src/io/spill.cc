#include "io/spill.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <system_error>

#include "common/hash.h"
#include "common/logging.h"

namespace spcube {
namespace {

std::atomic<int64_t> g_temp_dir_counter{0};

/// Re-fetches of one spill record a reader attempts before giving up on a
/// checksum mismatch (mirrors the DFS fetch-retry bound).
constexpr int kMaxFetchAttempts = 6;

}  // namespace

TempFileManager::TempFileManager(const std::string& tag) {
  // Relaxed: a pure uniqueness counter — no memory is published through it,
  // the distinct id is all that matters (docs/INTERNALS.md §12).
  const int64_t id = g_temp_dir_counter.fetch_add(1, std::memory_order_relaxed);
  std::error_code ec;
  std::filesystem::path base = std::filesystem::temp_directory_path(ec);
  if (ec) base = ".";
  dir_ = (base / ("spcube_" + tag + "_" + std::to_string(::getpid()) + "_" +
                  std::to_string(id)))
             .string();
  std::filesystem::create_directories(dir_, ec);
  SPCUBE_CHECK(!ec) << "failed to create temp dir " << dir_;
}

TempFileManager::~TempFileManager() {
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

std::string TempFileManager::NextPath() {
  // Relaxed, same contract as g_temp_dir_counter: uniqueness only.
  const int64_t id = counter_.fetch_add(1, std::memory_order_relaxed);
  return dir_ + "/spill_" + std::to_string(id) + ".bin";
}

SpillFile::~SpillFile() { RemoveFileIfExists(path_); }

SpillWriter::SpillWriter(std::string path) : path_(std::move(path)) {}

SpillWriter::~SpillWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status SpillWriter::Open() {
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::IoError("cannot open spill file for write: " + path_);
  }
  return Status::OK();
}

Status SpillWriter::Append(std::string_view record) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("spill writer not open");
  }
  uint64_t len = record.size();
  uint8_t frame[10];
  size_t frame_len = 0;
  while (len >= 0x80) {
    frame[frame_len++] = static_cast<uint8_t>(len) | 0x80;
    len >>= 7;
  }
  frame[frame_len++] = static_cast<uint8_t>(len);
  const uint32_t crc = Crc32c(record);
  if (std::fwrite(frame, 1, frame_len, file_) != frame_len ||
      std::fwrite(&crc, sizeof(crc), 1, file_) != 1 ||
      (!record.empty() &&
       std::fwrite(record.data(), 1, record.size(), file_) !=
           record.size())) {
    return Status::IoError("short write to spill file: " + path_);
  }
  bytes_written_ +=
      static_cast<int64_t>(frame_len + sizeof(crc) + record.size());
  ++record_count_;
  return Status::OK();
}

Status SpillWriter::Close() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("spill writer not open");
  }
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return Status::IoError("close failed for " + path_);
  return Status::OK();
}

SpillReader::SpillReader(std::string path)
    : path_(std::move(path)), location_(path_) {}

SpillReader::SpillReader(std::string path, int64_t offset, int64_t length)
    : path_(std::move(path)),
      location_(path_ + "@" + std::to_string(offset)),
      offset_(offset),
      remaining_(length) {}

SpillReader::~SpillReader() {
  if (file_ != nullptr) std::fclose(file_);
}

Status SpillReader::Open() {
  file_ = std::fopen(path_.c_str(), "rb");
  if (file_ == nullptr) {
    return Status::IoError("cannot open spill file for read: " + path_);
  }
  if (offset_ > 0 &&
      ::fseeko(file_, static_cast<off_t>(offset_), SEEK_SET) != 0) {
    return Status::IoError("cannot seek to the run at " + location_);
  }
  return Status::OK();
}

void SpillReader::SetFaultInjection(IoFaultInjector* injector,
                                    int64_t* mismatch_counter,
                                    std::string resource) {
  injector_ = injector;
  mismatch_counter_ = mismatch_counter;
  resource_ = resource.empty() ? location_ : std::move(resource);
}

Result<bool> SpillReader::Next(std::string* record) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("spill reader not open");
  }
  if (remaining_ == 0) return false;  // end of the run's range
  // Frame length is a LEB128 varint, read byte-wise: EOF before the first
  // byte is a clean end of a whole-file run, and a truncated ranged one;
  // EOF mid-varint is a truncated record.
  int c = std::fgetc(file_);
  if (c == EOF) {
    if (!std::feof(file_)) {
      return Status::IoError("read failed for " + location_);
    }
    if (remaining_ < 0) return false;
    return Status::Corruption("spill file ends inside the run at " +
                              location_);
  }
  uint64_t len = 0;
  int shift = 0;
  uint64_t header_bytes = 1;
  for (int i = 0;; ++i) {
    const auto byte = static_cast<uint8_t>(c);
    len |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    if (i >= 9) {
      return Status::Corruption("spill record length varint too long in " +
                                location_);
    }
    shift += 7;
    c = std::fgetc(file_);
    if (c == EOF) {
      return Status::Corruption("truncated spill record header in " +
                                location_);
    }
    ++header_bytes;
  }
  const uint64_t frame_bytes = header_bytes + sizeof(uint32_t) + len;
  if (remaining_ >= 0) {
    const auto remaining = static_cast<uint64_t>(remaining_);
    if (len > remaining || frame_bytes > remaining) {
      return Status::Corruption("spill frame crosses the end of the run at " +
                                location_);
    }
    remaining_ -= static_cast<int64_t>(frame_bytes);
  }
  uint32_t crc = 0;
  if (std::fread(&crc, sizeof(crc), 1, file_) != 1) {
    return Status::Corruption("truncated spill record header in " +
                              location_);
  }
  record->resize(len);
  if (len > 0 && std::fread(record->data(), 1, len, file_) != len) {
    return Status::Corruption("truncated spill record in " + location_);
  }
  const uint64_t item = next_record_index_++;
  if (injector_ == nullptr) {
    if (Crc32c(*record) != crc) {
      return Status::Corruption("spill record failed checksum in " +
                                location_);
    }
    return true;
  }
  // Model the shuffle fetch: the bytes on disk are the mapper's committed
  // output; each fetch delivers a copy the injector may corrupt in flight,
  // and a mismatch re-fetches the same segment.
  for (int fetch = 0; fetch < kMaxFetchAttempts; ++fetch) {
    std::string delivered = *record;
    injector_->MaybeCorrupt(resource_, item, fetch, &delivered);
    if (Crc32c(delivered) == crc) {
      *record = std::move(delivered);
      return true;
    }
    if (mismatch_counter_ != nullptr) ++*mismatch_counter_;
  }
  return Status::Corruption("spill record failed checksum after " +
                            std::to_string(kMaxFetchAttempts) +
                            " fetch attempts in " + location_);
}

Status SpillReader::Close() {
  if (file_ == nullptr) return Status::OK();
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return Status::IoError("close failed for " + path_);
  return Status::OK();
}

void RemoveFileIfExists(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

}  // namespace spcube
