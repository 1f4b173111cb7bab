// Unit tests for src/common: Status/Result, byte codec, PRNG, hashing.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <string_view>
#include <unordered_set>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"

namespace spcube {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad k");
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_EQ(status.message(), "bad k");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int code = 0; code <= 10; ++code) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(code)), "Unknown");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::IoError("x"));
}

Status FailIfNegative(int value) {
  if (value < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UsesReturnIfError(int value) {
  SPCUBE_RETURN_IF_ERROR(FailIfNegative(value));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_TRUE(UsesReturnIfError(-1).IsInvalidArgument());
}

Result<int> ParsePositive(int value) {
  if (value <= 0) return Status::InvalidArgument("not positive");
  return value;
}

Result<int> DoublePositive(int value) {
  SPCUBE_ASSIGN_OR_RETURN(int parsed, ParsePositive(value));
  return parsed * 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = ParsePositive(21);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 21);
  EXPECT_EQ(*result, 21);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result = ParsePositive(0);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(ResultTest, AssignOrReturnThreadsValues) {
  EXPECT_EQ(DoublePositive(4).value(), 8);
  EXPECT_FALSE(DoublePositive(-4).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> result = std::make_unique<int>(7);
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> owned = std::move(result).value();
  EXPECT_EQ(*owned, 7);
}

TEST(BytesTest, FixedWidthRoundTrip) {
  ByteWriter writer;
  writer.PutU8(0xab);
  writer.PutU32(0xdeadbeef);
  writer.PutU64(0x0123456789abcdefULL);
  writer.PutI64(-42);
  writer.PutDouble(3.25);

  ByteReader reader(writer.data());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double d = 0;
  ASSERT_TRUE(reader.GetU8(&u8).ok());
  ASSERT_TRUE(reader.GetU32(&u32).ok());
  ASSERT_TRUE(reader.GetU64(&u64).ok());
  ASSERT_TRUE(reader.GetI64(&i64).ok());
  ASSERT_TRUE(reader.GetDouble(&d).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(d, 3.25);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BytesTest, VarintBoundaries) {
  const uint64_t cases[] = {0,       1,          127,        128,
                            16383,   16384,      (1ull << 32) - 1,
                            1ull << 32, UINT64_MAX};
  for (uint64_t value : cases) {
    ByteWriter writer;
    writer.PutVarint(value);
    ByteReader reader(writer.data());
    uint64_t decoded = 0;
    ASSERT_TRUE(reader.GetVarint(&decoded).ok()) << value;
    EXPECT_EQ(decoded, value);
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST(BytesTest, SignedVarintBoundaries) {
  const int64_t cases[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX, -123456};
  for (int64_t value : cases) {
    ByteWriter writer;
    writer.PutVarintSigned(value);
    ByteReader reader(writer.data());
    int64_t decoded = 0;
    ASSERT_TRUE(reader.GetVarintSigned(&decoded).ok()) << value;
    EXPECT_EQ(decoded, value);
  }
}

TEST(BytesTest, BytesAndVectors) {
  ByteWriter writer;
  writer.PutBytes("hello");
  writer.PutBytes("");
  writer.PutI64Vector({1, -2, 3000000000LL});
  ByteReader reader(writer.data());
  std::string_view a;
  std::string_view b;
  std::vector<int64_t> v;
  ASSERT_TRUE(reader.GetBytes(&a).ok());
  ASSERT_TRUE(reader.GetBytes(&b).ok());
  ASSERT_TRUE(reader.GetI64Vector(&v).ok());
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(v, (std::vector<int64_t>{1, -2, 3000000000LL}));
}

TEST(BytesTest, TruncationIsCorruption) {
  ByteWriter writer;
  writer.PutU64(1);
  ByteReader reader(std::string_view(writer.data()).substr(0, 3));
  uint64_t out = 0;
  EXPECT_EQ(reader.GetU64(&out).code(), StatusCode::kCorruption);
}

TEST(BytesTest, TruncatedStringIsCorruption) {
  ByteWriter writer;
  writer.PutBytes("abcdef");
  std::string data = writer.TakeData();
  data.resize(data.size() - 2);
  ByteReader reader(data);
  std::string_view out;
  EXPECT_EQ(reader.GetBytes(&out).code(), StatusCode::kCorruption);
}

TEST(BytesTest, OverlongVarintIsCorruption) {
  std::string bad(11, static_cast<char>(0x80));
  ByteReader reader(bad);
  uint64_t out = 0;
  EXPECT_EQ(reader.GetVarint(&out).code(), StatusCode::kCorruption);
}

class BytesPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BytesPropertyTest, RandomRoundTrip) {
  Rng rng(GetParam());
  ByteWriter writer;
  std::vector<int64_t> signed_values;
  std::vector<uint64_t> unsigned_values;
  for (int i = 0; i < 200; ++i) {
    const int64_t sv = static_cast<int64_t>(rng.Next());
    const uint64_t uv = rng.Next() >> static_cast<int>(rng.NextBounded(64));
    signed_values.push_back(sv);
    unsigned_values.push_back(uv);
    writer.PutVarintSigned(sv);
    writer.PutVarint(uv);
  }
  ByteReader reader(writer.data());
  for (int i = 0; i < 200; ++i) {
    int64_t sv = 0;
    uint64_t uv = 0;
    ASSERT_TRUE(reader.GetVarintSigned(&sv).ok());
    ASSERT_TRUE(reader.GetVarint(&uv).ok());
    EXPECT_EQ(sv, signed_values[static_cast<size_t>(i)]);
    EXPECT_EQ(uv, unsigned_values[static_cast<size_t>(i)]);
  }
  EXPECT_TRUE(reader.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BytesPropertyTest,
                         ::testing::Values(1, 2, 3, 42, 1234567));

TEST(RngTest, DeterministicForSeed) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Next() != b.Next()) ++differences;
  }
  EXPECT_GT(differences, 28);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> histogram(10, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    ++histogram[rng.NextBounded(10)];
  }
  for (int count : histogram) {
    EXPECT_NEAR(count, trials / 10, trials / 100);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(17);
  int successes = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    if (rng.NextBernoulli(0.3)) ++successes;
  }
  EXPECT_NEAR(static_cast<double>(successes) / trials, 0.3, 0.01);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(23);
  Rng child = parent.Fork();
  int equal = 0;
  for (int i = 0; i < 32; ++i) {
    if (parent.Next() == child.Next()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(ZipfTest, FirstElementIsMostFrequent) {
  Rng rng(29);
  ZipfDistribution zipf(1000, 1.1);
  std::vector<int> histogram(1000, 0);
  for (int i = 0; i < 100000; ++i) {
    ++histogram[static_cast<size_t>(zipf.Sample(rng))];
  }
  EXPECT_GT(histogram[0], histogram[1]);
  EXPECT_GT(histogram[0], histogram[10]);
  EXPECT_GT(histogram[0], 100000 / 50);  // heavy head
}

TEST(ZipfTest, TheoreticalHeadMass) {
  // P(first element) = 1 / H_{1000, 1.1}; the generalized harmonic number
  // H_{1000,1.1} is about 5.58, so the head mass is about 0.179.
  Rng rng(31);
  ZipfDistribution zipf(1000, 1.1);
  int head = 0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) {
    if (zipf.Sample(rng) == 0) ++head;
  }
  EXPECT_NEAR(static_cast<double>(head) / trials, 0.179, 0.01);
}

TEST(ZipfTest, SamplesWithinDomain) {
  Rng rng(37);
  ZipfDistribution zipf(5, 2.0);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = zipf.Sample(rng);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 5);
  }
}

TEST(HashTest, Mix64Avalanche) {
  // Flipping one input bit should flip many output bits on average.
  int total_flips = 0;
  for (int bit = 0; bit < 64; ++bit) {
    const uint64_t a = Mix64(0x1234567890abcdefULL);
    const uint64_t b = Mix64(0x1234567890abcdefULL ^ (1ULL << bit));
    total_flips += __builtin_popcountll(a ^ b);
  }
  EXPECT_GT(total_flips / 64, 20);
}

TEST(HashTest, HashBytesDistinguishes) {
  std::unordered_set<uint64_t> hashes;
  for (int i = 0; i < 1000; ++i) {
    hashes.insert(HashBytes("key" + std::to_string(i)));
  }
  EXPECT_EQ(hashes.size(), 1000u);
}

TEST(HashTest, HashSpanOrderSensitive) {
  const int64_t ab[] = {1, 2};
  const int64_t ba[] = {2, 1};
  EXPECT_NE(HashSpan(ab, 2), HashSpan(ba, 2));
}

TEST(HashTest, EmptySpanIsStable) {
  EXPECT_EQ(HashSpan(nullptr, 0), HashSpan(nullptr, 0));
}

/// The byte-at-a-time CRC32C the sliced Crc32c must agree with: the
/// reflected Castagnoli polynomial applied one bit at a time.
uint32_t BitwiseCrc32c(std::string_view bytes) {
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char c : bytes) {
    crc ^= c;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(HashTest, Crc32cKnownAnswer) {
  // The CRC-32C check value (RFC 3720, Appendix B.4).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST(HashTest, Crc32cSlicedEqualsBytewiseReference) {
  // Every length from 0 to 300 (all tail lengths around the 8-byte
  // stride) at every start offset mod 8, over seeded random bytes; each
  // string is also checksummed in two chained parts at every split point.
  Rng rng(3720);
  std::string buffer(300 + 8, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.NextBounded(256));
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; len <= 300; ++len) {
      const std::string_view bytes(buffer.data() + start, len);
      const uint32_t whole = Crc32c(bytes);
      ASSERT_EQ(whole, BitwiseCrc32c(bytes))
          << "start " << start << " length " << len;
      // Continuing from a prefix's CRC equals the CRC of the whole.
      for (size_t split = 0; split <= len; ++split) {
        ASSERT_EQ(Crc32c(bytes.substr(split), Crc32c(bytes.substr(0, split))),
                  whole)
            << "start " << start << " length " << len << " split " << split;
      }
    }
  }
}

TEST(LoggingTest, LevelRoundTrip) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(original);
}

}  // namespace
}  // namespace spcube
