#include "io/dfs.h"

#include <algorithm>

#include "common/hash.h"

namespace spcube {
namespace {

/// Re-fetches of the same blob a reader is willing to attempt before
/// declaring the corruption persistent.
constexpr int kMaxFetchAttempts = 6;

}  // namespace

DistributedFileSystem::Blob DistributedFileSystem::MakeBlob(
    std::string contents) {
  Blob blob;
  blob.data = std::move(contents);
  blob.crc = Crc32c(blob.data);
  return blob;
}

Status DistributedFileSystem::Write(const std::string& path,
                                    std::string contents) {
  MutexLock lock(&mu_);
  auto [it, inserted] =
      files_.try_emplace(path, MakeBlob(std::move(contents)));
  (void)it;
  if (!inserted) return Status::AlreadyExists("dfs file exists: " + path);
  return Status::OK();
}

Status DistributedFileSystem::Overwrite(const std::string& path,
                                        std::string contents) {
  MutexLock lock(&mu_);
  files_[path] = MakeBlob(std::move(contents));
  return Status::OK();
}

Status DistributedFileSystem::Append(const std::string& path,
                                     std::string_view contents) {
  MutexLock lock(&mu_);
  Blob& blob = files_[path];
  blob.crc = Crc32c(contents, blob.crc);
  blob.data.append(contents);
  return Status::OK();
}

Result<std::string> DistributedFileSystem::Read(const std::string& path)
    const {
  MutexLock lock(&mu_);
  if (injector_ != nullptr) {
    SPCUBE_RETURN_IF_ERROR(injector_->OnDfsRead(path));
  }
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound("dfs file not found: " + path);
  }
  const Blob& blob = it->second;
  if (injector_ == nullptr) return blob.data;

  // Model the transfer: each fetch delivers a copy of the stored bytes the
  // injector may corrupt in flight; a checksum mismatch triggers a re-fetch
  // of the same blob.
  bool mismatched = false;
  for (int fetch = 0; fetch < kMaxFetchAttempts; ++fetch) {
    std::string delivered = blob.data;
    injector_->MaybeCorrupt("dfs:" + path, /*item=*/0, fetch, &delivered);
    if (Crc32c(delivered) == blob.crc) {
      if (mismatched) ++reads_recovered_;
      return delivered;
    }
    ++checksum_mismatches_;
    mismatched = true;
  }
  return Status::Corruption("dfs blob failed checksum after " +
                            std::to_string(kMaxFetchAttempts) +
                            " fetch attempts: " + path);
}

Result<std::string> DistributedFileSystem::ReadWithRetry(
    const std::string& path, int max_attempts) const {
  Status last_error = Status::OK();
  for (int attempt = 0; attempt < std::max(1, max_attempts); ++attempt) {
    auto read = Read(path);
    if (read.ok()) return read;
    last_error = read.status();
    if (!last_error.IsIoError()) break;
  }
  return last_error;
}

bool DistributedFileSystem::Exists(const std::string& path) const {
  MutexLock lock(&mu_);
  return files_.count(path) > 0;
}

Status DistributedFileSystem::Delete(const std::string& path) {
  MutexLock lock(&mu_);
  if (files_.erase(path) == 0) {
    return Status::NotFound("dfs file not found: " + path);
  }
  return Status::OK();
}

int64_t DistributedFileSystem::DeletePrefix(const std::string& prefix) {
  MutexLock lock(&mu_);
  auto it = files_.lower_bound(prefix);
  int64_t removed = 0;
  while (it != files_.end() && it->first.compare(0, prefix.size(), prefix) == 0) {
    it = files_.erase(it);
    ++removed;
  }
  return removed;
}

std::vector<std::string> DistributedFileSystem::List(
    const std::string& prefix) const {
  MutexLock lock(&mu_);
  std::vector<std::string> out;
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() &&
       it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    out.push_back(it->first);
  }
  return out;
}

int64_t DistributedFileSystem::TotalBytes(const std::string& prefix) const {
  MutexLock lock(&mu_);
  int64_t total = 0;
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() &&
       it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    total += static_cast<int64_t>(it->second.data.size());
  }
  return total;
}

int64_t DistributedFileSystem::file_count() const {
  MutexLock lock(&mu_);
  return static_cast<int64_t>(files_.size());
}

Status DistributedFileSystem::VerifyChecksum(const std::string& path) const {
  MutexLock lock(&mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound("dfs file not found: " + path);
  }
  if (Crc32c(it->second.data) != it->second.crc) {
    return Status::Corruption("dfs blob at rest fails checksum: " + path);
  }
  return Status::OK();
}

void DistributedFileSystem::SetFaultInjector(IoFaultInjector* injector) {
  MutexLock lock(&mu_);
  injector_ = injector;
}

int64_t DistributedFileSystem::checksum_mismatches() const {
  MutexLock lock(&mu_);
  return checksum_mismatches_;
}

int64_t DistributedFileSystem::reads_recovered() const {
  MutexLock lock(&mu_);
  return reads_recovered_;
}

}  // namespace spcube
