// Property tests for the spill codec of docs/INTERNALS.md §13:
// varint/zigzag primitives at integer extremes and the delta spill-record
// codec over adversarial key sequences. All randomness flows through
// seeded spcube::Rng.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "cube/group_key.h"
#include "io/spill.h"
#include "mapreduce/shuffle.h"
#include "relation/generators.h"

namespace spcube {
namespace {

// ---------------------------------------------------------------------------
// Varint / zigzag primitives.
// ---------------------------------------------------------------------------

TEST(VarintTest, UnsignedExtremesRoundTrip) {
  const std::vector<uint64_t> extremes = {
      0,
      1,
      127,
      128,
      (1ull << 14) - 1,
      1ull << 14,
      (1ull << 21) - 1,
      (1ull << 32) - 1,
      1ull << 32,
      (1ull << 63) - 1,
      1ull << 63,
      std::numeric_limits<uint64_t>::max()};
  for (const uint64_t v : extremes) {
    ByteWriter writer;
    writer.PutVarint(v);
    EXPECT_LE(writer.size(), 10u) << v;
    ByteReader reader(writer.data());
    uint64_t back = 0;
    ASSERT_TRUE(reader.GetVarint(&back).ok()) << v;
    EXPECT_EQ(back, v);
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST(VarintTest, SignedExtremesAndSignFlipsRoundTrip) {
  const std::vector<int64_t> extremes = {
      0,
      1,
      -1,
      63,
      64,
      -64,
      -65,
      std::numeric_limits<int32_t>::max(),
      std::numeric_limits<int32_t>::min(),
      std::numeric_limits<int64_t>::max(),
      std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::min() + 1};
  for (const int64_t v : extremes) {
    ByteWriter writer;
    writer.PutVarintSigned(v);
    ByteReader reader(writer.data());
    int64_t back = 0;
    ASSERT_TRUE(reader.GetVarintSigned(&back).ok()) << v;
    EXPECT_EQ(back, v);
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST(VarintTest, ZigzagKeepsSmallMagnitudesShort) {
  // Zigzag's point: values near zero of either sign stay 1 byte, so a
  // sign-flipping stream costs no more than its magnitudes warrant.
  for (int64_t v = -64; v < 64; ++v) {
    ByteWriter writer;
    writer.PutVarintSigned(v);
    EXPECT_EQ(writer.size(), 1u) << v;
  }
}

TEST(VarintTest, RandomSignFlipStreamRoundTrips) {
  Rng rng(20260808);
  std::vector<int64_t> values;
  ByteWriter writer;
  for (int i = 0; i < 5000; ++i) {
    // Mix magnitudes across the whole range, flipping signs, with the two
    // extreme values planted periodically.
    int64_t v;
    switch (rng.NextBounded(5)) {
      case 0:
        v = std::numeric_limits<int64_t>::min();
        break;
      case 1:
        v = std::numeric_limits<int64_t>::max();
        break;
      default:
        v = rng.NextInRange(-1000000, 1000000);
        break;
    }
    if (rng.NextBernoulli(0.5) && v != std::numeric_limits<int64_t>::min()) {
      v = -v;
    }
    values.push_back(v);
    writer.PutVarintSigned(v);
  }
  ByteReader reader(writer.data());
  for (const int64_t expected : values) {
    int64_t back = 0;
    ASSERT_TRUE(reader.GetVarintSigned(&back).ok());
    EXPECT_EQ(back, expected);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(VarintTest, TruncatedVarintIsCorruptionNotCrash) {
  ByteWriter writer;
  writer.PutVarint(std::numeric_limits<uint64_t>::max());
  const std::string full = writer.data();
  for (size_t len = 0; len < full.size(); ++len) {
    ByteReader reader(std::string_view(full).substr(0, len));
    uint64_t out = 0;
    EXPECT_FALSE(reader.GetVarint(&out).ok()) << "prefix " << len;
  }
}

// ---------------------------------------------------------------------------
// Delta spill-record codec (docs/INTERNALS.md §13).
// ---------------------------------------------------------------------------

std::string RandomKey(Rng& rng, size_t max_len) {
  std::string out(rng.NextBounded(max_len + 1), '\0');
  for (char& c : out) c = static_cast<char>(rng.NextBounded(256));
  return out;
}

TEST(DeltaCodecTest, RunsOfEqualKeysRoundTripAndStayTiny) {
  // A hot group's spill run: the same key thousands of times. Every record
  // after the first must cost O(value) bytes, independent of key length.
  Rng rng(71);
  const std::string key = RandomKey(rng, 64) + std::string(64, 'K');
  SpillRecordEncoder encoder;
  SpillRecordDecoder decoder;
  ByteWriter out;
  for (int i = 0; i < 2000; ++i) {
    const std::string value = std::to_string(i);
    out.Clear();
    encoder.Append(key, value, &out);
    if (i > 0) {
      EXPECT_LE(out.size(), 4 + value.size()) << "record " << i;
    }
    std::string_view k;
    std::string_view v;
    ASSERT_TRUE(decoder.Parse(out.data(), &k, &v).ok());
    EXPECT_EQ(k, key);
    EXPECT_EQ(v, value);
  }
}

TEST(DeltaCodecTest, SortedExtremeIntegerKeysRoundTrip) {
  // Keys built from varint-signed extremes — INT64_MIN/MAX neighbours and
  // sign flips — sorted bytewise, as a real run would be.
  Rng rng(72);
  std::vector<std::pair<std::string, std::string>> records;
  const std::vector<int64_t> pool = {
      std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::min() + 1,
      -1,
      0,
      1,
      std::numeric_limits<int64_t>::max() - 1,
      std::numeric_limits<int64_t>::max()};
  for (int i = 0; i < 500; ++i) {
    ByteWriter key;
    for (int d = 0; d < 4; ++d) {
      key.PutVarintSigned(pool[rng.NextBounded(pool.size())]);
    }
    records.emplace_back(key.TakeData(), RandomKey(rng, 16));
  }
  std::sort(records.begin(), records.end());

  SpillRecordEncoder encoder;
  SpillRecordDecoder decoder;
  ByteWriter out;
  for (const auto& [key, value] : records) {
    out.Clear();
    encoder.Append(key, value, &out);
    std::string_view k;
    std::string_view v;
    ASSERT_TRUE(decoder.Parse(out.data(), &k, &v).ok());
    EXPECT_EQ(k, key);
    EXPECT_EQ(v, value);
  }
}

TEST(DeltaCodecTest, UnsortedRandomRecordsRoundTrip) {
  // The codec must be correct for ANY sequence, not just sorted ones (the
  // merge path replays runs in run order, but nothing in the contract
  // requires monotone keys).
  Rng rng(73);
  SpillRecordEncoder encoder;
  SpillRecordDecoder decoder;
  ByteWriter out;
  for (int i = 0; i < 3000; ++i) {
    const std::string key = RandomKey(rng, 40);
    const std::string value = RandomKey(rng, 40);
    out.Clear();
    encoder.Append(key, value, &out);
    std::string_view k;
    std::string_view v;
    ASSERT_TRUE(decoder.Parse(out.data(), &k, &v).ok());
    EXPECT_EQ(k, key);
    EXPECT_EQ(v, value);
  }
}

// On-disk bytes of one record in the fixed-frame spill format the delta
// codec replaced: an 8-byte length and a 4-byte CRC around
// [varint key_len | key | varint value_len | value].
int64_t FixedFrameRecordBytes(size_t key_len, size_t value_len) {
  ByteWriter varints;
  varints.PutVarint(key_len);
  varints.PutVarint(value_len);
  return 8 + 4 + static_cast<int64_t>(varints.size() + key_len + value_len);
}

TEST(DeltaCodecTest, FileBytesNeverExceedLegacyTwin) {
  // The §13 guarantee: a delta-coded record never costs more on disk than
  // the same record in the fixed-frame format, so run files cannot grow.
  Rng rng(74);
  SpillRecordEncoder encoder;
  ByteWriter out;
  for (int i = 0; i < 2000; ++i) {
    const std::string key = RandomKey(rng, 100);
    const std::string value = RandomKey(rng, 100);
    out.Clear();
    encoder.Append(key, value, &out);
    // Actual frame: varint(len) + u32 crc + payload.
    int64_t frame = 1 + 4 + static_cast<int64_t>(out.size());
    if (out.size() >= 128) frame += 1;
    EXPECT_LE(frame, FixedFrameRecordBytes(key.size(), value.size()));
  }
}

TEST(SpillCodecTest, DeltaNeverExceedsLegacyFileBytes) {
  // The same bound over many short record sequences, sorted or not: frame
  // (varint length + u32 crc) plus delta payload never exceeds the
  // fixed-frame cost.
  Rng rng(193);
  for (int trial = 0; trial < 50; ++trial) {
    SpillRecordEncoder encoder;
    ByteWriter out;
    for (int i = 0; i < 20; ++i) {
      const std::string key = RandomKey(rng, 64);
      const std::string value = RandomKey(rng, 64);
      out.Clear();
      encoder.Append(key, value, &out);
      // Frame: <= 2 varint bytes for any payload this size, + 4 crc bytes.
      const int64_t framed =
          static_cast<int64_t>((out.size() < 128 ? 1 : 2) + 4 + out.size());
      EXPECT_LE(framed, FixedFrameRecordBytes(key.size(), value.size()))
          << "key_len=" << key.size() << " value_len=" << value.size();
    }
  }
}

TEST(SpillCodecTest, ZipfGroupRunBeatsFixedFrameBytes) {
  // The headline spill stream of the paper's Zipf workload: one (group
  // key, count partial) record per row and cuboid over the full 4-dim
  // lattice, sorted by key, so hot groups form long runs of equal keys.
  // Written through the real SpillWriter in delta blocks, the file must be
  // at least 1.4x smaller than the same records in the fixed-frame format.
  const Relation rel = GenZipfPaper(5000, /*seed=*/1207);
  const CuboidMask num_masks = CuboidMask{1} << rel.num_dims();
  std::vector<std::pair<std::string, std::string>> records;
  ByteWriter key;
  ByteWriter value;
  value.PutVarintSigned(1);
  for (int64_t i = 0; i < rel.num_rows(); ++i) {
    for (CuboidMask mask = 0; mask < num_masks; ++mask) {
      key.Clear();
      GroupKey::Project(mask, rel.row(i)).EncodeTo(key);
      records.emplace_back(std::string(key.data()), std::string(value.data()));
    }
  }
  std::sort(records.begin(), records.end());

  TempFileManager temp("codec_gate");
  SpillWriter writer(temp.NextPath());
  ASSERT_TRUE(writer.Open().ok());
  SpillBlockEncoder encoder;
  int64_t fixed_frame_bytes = 0;
  for (const auto& [k, v] : records) {
    fixed_frame_bytes += FixedFrameRecordBytes(k.size(), v.size());
    encoder.Add(k, v);
    if (encoder.BlockFull()) {
      ASSERT_TRUE(writer.Append(encoder.block()).ok());
      encoder.NextBlock();
    }
  }
  if (!encoder.BlockEmpty()) {
    ASSERT_TRUE(writer.Append(encoder.block()).ok());
  }
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_LE(static_cast<double>(writer.bytes_written()) * 1.4,
            static_cast<double>(fixed_frame_bytes))
      << writer.bytes_written() << " B delta vs " << fixed_frame_bytes
      << " B fixed-frame over " << records.size() << " records";
}

}  // namespace
}  // namespace spcube
