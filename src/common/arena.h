#ifndef SPCUBE_COMMON_ARENA_H_
#define SPCUBE_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "common/lifetime.h"

namespace spcube {

/// Chunked bump allocator for byte payloads. Appended bytes live at stable
/// addresses until Reset(): chunks are never reallocated or freed while the
/// arena is alive, so callers may hold `const char*` / `string_view` into
/// the arena across further appends. Reset() rewinds to empty but keeps the
/// chunks, so a steady-state fill/Reset cycle performs no heap allocations
/// once the high-water mark has been reached.
///
/// Oversized payloads (larger than the chunk size) get a dedicated chunk;
/// small payloads never straddle a chunk boundary, which is what lets
/// AppendPair hand out one contiguous `[a|b]` region.
class Arena {
 public:
  static constexpr size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes == 0 ? kDefaultChunkBytes : chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  Arena(Arena&& other) noexcept { *this = std::move(other); }
  Arena& operator=(Arena&& other) noexcept {
    if (this == &other) return *this;
    chunk_bytes_ = other.chunk_bytes_;
    chunks_ = std::move(other.chunks_);
    active_ = other.active_;
    offset_ = other.offset_;
    bytes_used_ = other.bytes_used_;
    bytes_reserved_ = other.bytes_reserved_;
    // The generation travels with the chunks: addresses handed out by
    // `other` stay valid through `*this`, and `other` (now empty) must fail
    // any stale-generation comparison against them.
    generation_ = other.generation_;
    other.generation_ += 1;
    other.chunks_.clear();
    other.active_ = 0;
    other.offset_ = 0;
    other.bytes_used_ = 0;
    other.bytes_reserved_ = 0;
    return *this;
  }

  /// Copies `bytes` into the arena; returns the stable start address,
  /// writable in place until the next Reset.
  char* Append(std::string_view bytes) {
    char* dst = Allocate(bytes.size());
    if (!bytes.empty()) std::memcpy(dst, bytes.data(), bytes.size());
    return dst;
  }

  /// Copies `a` immediately followed by `b` into one contiguous region;
  /// returns the stable address of `a` (so `b` starts at result+a.size()).
  char* AppendPair(std::string_view a, std::string_view b) {
    char* dst = Allocate(a.size() + b.size());
    if (!a.empty()) std::memcpy(dst, a.data(), a.size());
    if (!b.empty()) std::memcpy(dst + a.size(), b.data(), b.size());
    return dst;
  }

  /// Rewinds to empty. Keeps every chunk, so previously reached capacity is
  /// reused allocation-free; all addresses handed out before the Reset are
  /// invalidated (the bytes may be overwritten by later appends). Under
  /// SPCUBE_LIFETIME_CHECKS the retained chunks are poisoned with
  /// kLifetimePoisonByte so a stale read is recognizable instead of
  /// silently returning the previous cycle's bytes.
  void Reset() {
    generation_ += 1;
#if SPCUBE_LIFETIME_CHECKS
    // Chunks past `active_` were never written this cycle (they still hold
    // the previous Reset's poison), so poisoning [0, active_] is complete.
    for (size_t c = 0; c < chunks_.size() && c <= active_; ++c) {
      std::memset(chunks_[c].data.get(), kLifetimePoisonByte,
                  chunks_[c].capacity);
    }
#endif
    active_ = 0;
    offset_ = 0;
    bytes_used_ = 0;
  }

  /// Payload bytes appended since the last Reset.
  int64_t bytes_used() const { return bytes_used_; }

  /// Total chunk capacity held (survives Reset).
  int64_t bytes_reserved() const { return bytes_reserved_; }

  /// Bumped by every Reset() (and for the source of a move): two equal
  /// generations mean addresses taken at the first are still valid at the
  /// second. ShuffleSegment stamps this to catch stale borrows under
  /// SPCUBE_LIFETIME_CHECKS; maintained unconditionally so mixed-TU builds
  /// agree on layout and values.
  uint64_t generation() const { return generation_; }

 private:
  struct Chunk {
    std::unique_ptr<char[]> data;
    size_t capacity = 0;
  };

  char* Allocate(size_t n) {
    // After a Reset, earlier chunks are revisited in order; one that cannot
    // fit `n` (e.g. it was sized for a smaller oversize payload) is skipped
    // for this cycle rather than resized, keeping every address stable.
    while (active_ < chunks_.size() &&
           chunks_[active_].capacity - offset_ < n) {
      ++active_;
      offset_ = 0;
    }
    if (active_ == chunks_.size()) {
      const size_t cap = n > chunk_bytes_ ? n : chunk_bytes_;
      Chunk chunk;
      chunk.data = std::unique_ptr<char[]>(new char[cap]);
      chunk.capacity = cap;
      bytes_reserved_ += static_cast<int64_t>(cap);
      chunks_.push_back(std::move(chunk));
      offset_ = 0;
    }
    char* out = chunks_[active_].data.get() + offset_;
    offset_ += n;
    bytes_used_ += static_cast<int64_t>(n);
    return out;
  }

  size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  size_t active_ = 0;   // index of the chunk currently bump-allocating
  size_t offset_ = 0;   // bytes used within the active chunk
  int64_t bytes_used_ = 0;
  int64_t bytes_reserved_ = 0;
  uint64_t generation_ = 0;  // see generation()
};

}  // namespace spcube

#endif  // SPCUBE_COMMON_ARENA_H_
