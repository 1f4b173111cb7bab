// Dynamic half of the lifetime & borrow contracts (docs/INTERNALS.md §10):
// this target is compiled with SPCUBE_LIFETIME_CHECKS=1 (see
// tests/CMakeLists.txt), so Arena::Reset() poisons retained chunks and
// ShuffleSegment / RelationView verify their generation/epoch stamps on
// access. Reading poisoned bytes is NOT undefined behavior here — the
// chunks stay allocated across Reset — which is what makes the poison
// pattern deterministically observable.

#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/lifetime.h"
#include "gtest/gtest.h"
#include "mapreduce/shuffle.h"
#include "relation/relation.h"
#include "relation/relation_view.h"

namespace spcube {
namespace {

static_assert(SPCUBE_LIFETIME_CHECKS == 1,
              "lifetime_test must build with the checks enabled");

TEST(ArenaLifetimeTest, ResetPoisonsRetainedChunks) {
  Arena arena;
  const std::string payload = "cube|group|17";
  const char* data = arena.Append(payload);
  ASSERT_EQ(payload, std::string_view(data, payload.size()));

  arena.Reset();
  for (size_t i = 0; i < payload.size(); ++i) {
    // spcube-analyzer: allow(arena-escape): deliberate read after Reset; the test asserts the stale bytes are poisoned
    EXPECT_EQ(static_cast<unsigned char>(data[i]), kLifetimePoisonByte)
        << "byte " << i << " not poisoned after Reset";
  }
}

TEST(ArenaLifetimeTest, ResetPoisonsEveryChunkWrittenThisCycle) {
  Arena arena(/*chunk_bytes=*/64);
  // Spans several chunks, including a dedicated oversize chunk.
  const char* small = arena.Append(std::string(48, 'a'));
  const char* oversize = arena.Append(std::string(300, 'b'));
  const char* tail = arena.Append(std::string(48, 'c'));

  arena.Reset();
  // spcube-analyzer: allow(arena-escape): deliberate read after Reset; asserts the first chunk is poisoned
  EXPECT_EQ(static_cast<unsigned char>(small[0]), kLifetimePoisonByte);
  // spcube-analyzer: allow(arena-escape): deliberate read after Reset; asserts the oversize chunk is poisoned
  EXPECT_EQ(static_cast<unsigned char>(oversize[299]), kLifetimePoisonByte);
  // spcube-analyzer: allow(arena-escape): deliberate read after Reset; asserts the last chunk is poisoned
  EXPECT_EQ(static_cast<unsigned char>(tail[47]), kLifetimePoisonByte);
}

TEST(ArenaLifetimeTest, GenerationBumpsOnResetAndTravelsWithMove) {
  Arena arena;
  const uint64_t g0 = arena.generation();
  arena.Reset();
  EXPECT_EQ(arena.generation(), g0 + 1);

  arena.Append("payload");
  Arena moved = std::move(arena);
  // The destination carries the generation its addresses were stamped
  // with; the hollow source can no longer satisfy a stale comparison.
  EXPECT_EQ(moved.generation(), g0 + 1);
  EXPECT_NE(arena.generation(), moved.generation());
}

// The dynamic twin of the seeded static fixture
// (tests/analyzer/fixtures/src/dangling_segment_view.cc): derive a group
// key from an arena, Reset, and observe that the stale borrow now reads
// poison instead of plausible stale payload.
TEST(ArenaLifetimeTest, PoisonCatchesTheSeededDanglingViewFixture) {
  Arena arena;
  const char* key = arena.Append("cube|group|42");
  arena.Reset();  // the take/compact cycle rewinds the partition arena
  // spcube-analyzer: allow(arena-escape): the seeded stale borrow itself; the test asserts it reads poison
  const std::string_view stale(key, 13);
  for (char c : stale) {
    EXPECT_EQ(static_cast<unsigned char>(c), kLifetimePoisonByte);
  }
}

ShuffleSegment TakeOneRecordSegment(ShuffleCounters* counters) {
  ShuffleBuffer buffer(/*num_partitions=*/1,
                       /*memory_budget_bytes=*/int64_t{1} << 30,
                       /*combiner=*/nullptr, /*temp_files=*/nullptr,
                       counters);
  EXPECT_TRUE(buffer.Add(0, "key", "value").ok());
  EXPECT_TRUE(buffer.FinalizeMapOutput().ok());
  return buffer.TakeMemorySegment(0);
}

TEST(ShuffleSegmentLifetimeTest, FreshSegmentReadsFine) {
  ShuffleCounters counters;
  ShuffleSegment segment = TakeOneRecordSegment(&counters);
  ASSERT_EQ(segment.num_records(), 1);
  EXPECT_EQ(segment.refs()[0].key(), "key");
  EXPECT_EQ(segment.refs()[0].value(), "value");
}

TEST(ShuffleSegmentLifetimeDeathTest, StaleSegmentReadAborts) {
  ShuffleCounters counters;
  ShuffleSegment segment = TakeOneRecordSegment(&counters);
  // Correct code cannot make a segment stale (it owns its arena), so the
  // test seam manufactures the state the generation check guards against.
  internal::DebugExpireSegment(&segment);
  EXPECT_DEATH((void)segment.refs(), "stale ShuffleSegment");
}

TEST(SegmentBuilderTest, FinishHandsOffRefsPayloadAndGeneration) {
  SegmentBuilder builder;
  EXPECT_TRUE(builder.Finish().empty());
  // Enough records to fill several arena chunks, values of 0-6 bytes.
  std::vector<std::pair<std::string, std::string>> expected;
  int64_t payload_bytes = 0;
  for (int i = 0; i < 10000; ++i) {
    expected.emplace_back("cell/" + std::to_string(i),
                          std::string(static_cast<size_t>(i % 7), 'v'));
    builder.Add(expected.back().first, expected.back().second);
    payload_bytes +=
        RecordBytes(expected.back().first, expected.back().second);
  }
  EXPECT_EQ(builder.num_records(), 10000);
  const ShuffleSegment first = builder.Finish();
  EXPECT_EQ(builder.num_records(), 0);
  // The builder starts over on a fresh arena, whose generation the second
  // segment stamps; refs() below verifies each stamp.
  builder.Add("later", "x");
  const ShuffleSegment second = builder.Finish();
  builder.Add("unfinished", "y");

  ASSERT_EQ(first.num_records(), 10000);
  EXPECT_EQ(first.payload_bytes(), payload_bytes);
  for (size_t i = 0; i < expected.size(); ++i) {
    const ShuffleRecordRef& ref = first.refs()[i];
    ASSERT_EQ(ref.key(), expected[i].first);
    ASSERT_EQ(ref.value(), expected[i].second);
  }
  ASSERT_EQ(second.num_records(), 1);
  EXPECT_EQ(second.payload_bytes(), 6);
  EXPECT_EQ(second.refs()[0].key(), "later");
  EXPECT_EQ(second.refs()[0].value(), "x");
}

TEST(SegmentBuilderDeathTest, ExpiredBuiltSegmentReadAborts) {
  SegmentBuilder builder;
  builder.Add("key", "value");
  ShuffleSegment segment = builder.Finish();
  internal::DebugExpireSegment(&segment);
  EXPECT_DEATH((void)segment.refs(), "stale ShuffleSegment");
}

TEST(RelationViewLifetimeTest, StableViewReadsFine) {
  Relation rel(Schema::Make({"d0", "d1"}, "m").value());
  rel.AppendRow(std::vector<int64_t>{1, 2}, 10);
  rel.AppendRow(std::vector<int64_t>{3, 4}, 20);
  const RelationView view(rel);
  EXPECT_EQ(view.dim(1, 0), 3);
  EXPECT_EQ(view.measure(0), 10);
}

TEST(RelationViewLifetimeDeathTest, AppendAfterViewTakenAborts) {
  Relation rel(Schema::Make({"d0", "d1"}, "m").value());
  rel.AppendRow(std::vector<int64_t>{1, 2}, 10);
  const RelationView view(rel);
  rel.AppendRow(std::vector<int64_t>{3, 4}, 20);  // may reallocate columns
  EXPECT_DEATH((void)view.dim(0, 0), "stale RelationView");
}

}  // namespace
}  // namespace spcube
