#ifndef SPCUBE_COMMON_HASH_H_
#define SPCUBE_COMMON_HASH_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace spcube {

/// Mixes a 64-bit value (Murmur3 finalizer). Good avalanche behaviour for
/// hash-partitioning keys across reducers.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Combines a hash state with another value, order-sensitively.
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return Mix64(seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                       (seed >> 2)));
}

/// Hashes a byte string (FNV-1a 64, then mixed). Used for raw shuffle keys.
inline uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

namespace internal {

/// Slicing-by-8 tables for the Castagnoli CRC (reflected polynomial
/// 0x82F63B78), built at compile time so the header stays dependency-free.
/// Table 0 is the classic byte-at-a-time table; table k advances a byte's
/// contribution past k further zero bytes, so eight lookups fold eight
/// input bytes into the CRC at once.
using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32cTables MakeCrc32cTables() {
  Crc32cTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

inline constexpr Crc32cTables kCrc32cTables = MakeCrc32cTables();

/// Little-endian u32 of the four bytes at `p`, any alignment.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace internal

/// CRC32C (Castagnoli) of a byte string. Guards spill frames, DFS blobs
/// and the serialized sketch against corruption in flight or at rest.
/// Software slicing-by-8 (eight table lookups per eight input bytes, ~5x
/// the byte-at-a-time loop), so no platform intrinsics are required; the
/// value is the standard CRC32C, identical to the byte-at-a-time result.
/// `crc` continues a checksum already taken over a prefix:
/// Crc32c(b, Crc32c(a)) == Crc32c(a + b), so an appended blob re-checksums
/// only its new bytes.
inline uint32_t Crc32c(std::string_view bytes, uint32_t crc = 0) {
  const auto& t = internal::kCrc32cTables;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  size_t n = bytes.size();
  crc ^= 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ internal::LoadLe32(p);
    const uint32_t hi = internal::LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

/// Hashes a span of 64-bit values.
inline uint64_t HashSpan(const int64_t* data, size_t count) {
  uint64_t h = 0x9ae16a3b2f90404fULL;
  for (size_t i = 0; i < count; ++i) {
    h = HashCombine(h, static_cast<uint64_t>(data[i]));
  }
  return h;
}

}  // namespace spcube

#endif  // SPCUBE_COMMON_HASH_H_
