// Direct unit tests for the shuffle machinery: map-side buffers (combine /
// spill behaviour) and reduce-side grouped streams (in-memory, absorbed
// runs, external merge).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "baselines/combiners.h"
#include "common/bytes.h"
#include "common/random.h"
#include "cube/aggregate.h"
#include "io/dfs.h"
#include "mapreduce/engine.h"
#include "mapreduce/fault.h"
#include "mapreduce/shuffle.h"
#include "relation/generators.h"
#include "sum_combiner.h"

namespace spcube {
namespace {

std::map<std::string, std::vector<std::string>> DrainStream(
    GroupedRecordStream& stream) {
  std::map<std::string, std::vector<std::string>> groups;
  std::string key;
  std::string value;
  for (;;) {
    auto more = stream.NextGroup(&key);
    EXPECT_TRUE(more.ok());
    if (!more.ok() || !more.value()) break;
    auto& values = groups[key];
    for (;;) {
      auto has_value = stream.NextValue(&value);
      EXPECT_TRUE(has_value.ok());
      if (!has_value.ok() || !has_value.value()) break;
      values.push_back(value);
    }
  }
  return groups;
}

TEST(ShuffleBufferTest, RoutesToPartitionsAndCounts) {
  TempFileManager temp("shuffle");
  ShuffleCounters counters;
  ShuffleBuffer buffer(3, 1 << 20, nullptr, &temp, &counters);
  ASSERT_TRUE(buffer.Add(0, "a", "1").ok());
  ASSERT_TRUE(buffer.Add(2, "b", "22").ok());
  ASSERT_TRUE(buffer.Add(0, "c", "333").ok());
  ASSERT_TRUE(buffer.FinalizeMapOutput().ok());

  EXPECT_EQ(counters.map_output_records, 3);
  EXPECT_EQ(counters.map_output_bytes, 2 + 3 + 4);
  EXPECT_EQ(counters.spill_bytes, 0);

  EXPECT_EQ(buffer.TakeMemorySegment(0).num_records(), 2);
  EXPECT_EQ(buffer.TakeMemorySegment(1).num_records(), 0);
  EXPECT_EQ(buffer.TakeMemorySegment(2).num_records(), 1);
}

TEST(ShuffleBufferTest, CombinerCollapsesDuplicates) {
  TempFileManager temp("shuffle");
  ShuffleCounters counters;
  SumCombiner combiner;
  ShuffleBuffer buffer(1, 1 << 20, &combiner, &temp, &counters);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(buffer.Add(0, "k" + std::to_string(i % 4), "1").ok());
  }
  ASSERT_TRUE(buffer.FinalizeMapOutput().ok());
  const ShuffleSegment segment = buffer.TakeMemorySegment(0);
  ASSERT_EQ(segment.num_records(), 4);
  int64_t total = 0;
  for (const ShuffleRecordRef& ref : segment.refs()) {
    total += std::stoll(std::string(ref.value()));
  }
  EXPECT_EQ(total, 100);
  EXPECT_EQ(counters.combine_input_records, 100);
  EXPECT_EQ(counters.combine_output_records, 4);
}

TEST(ShuffleBufferTest, OverflowSpillsSortedRuns) {
  TempFileManager temp("shuffle");
  ShuffleCounters counters;
  ShuffleBuffer buffer(2, /*memory_budget_bytes=*/64, nullptr, &temp,
                       &counters);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(buffer
                    .Add(i % 2, "key" + std::to_string(99 - i),
                         "v" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(buffer.FinalizeMapOutput().ok());
  EXPECT_GT(counters.spill_bytes, 0);

  int64_t spilled_records = 0;
  for (int p = 0; p < 2; ++p) {
    for (const RunInfo& run : buffer.TakeSpillRuns(p)) {
      EXPECT_GT(run.records, 0);
      EXPECT_GT(run.file_bytes, 0);
      spilled_records += run.records;
      // Each run is sorted by key (delta-encoded records in CRC-framed
      // blocks, §13).
      SpillReader reader(run.path(), run.offset, run.file_bytes);
      ASSERT_TRUE(reader.Open().ok());
      SpillBlockDecoder decoder;
      std::string raw;
      std::string last_key;
      int64_t decoded = 0;
      for (;;) {
        auto more = reader.Next(&raw);
        ASSERT_TRUE(more.ok());
        if (!more.value()) break;
        decoder.SetBlock(raw);
        for (;;) {
          std::string_view key;
          std::string_view value;
          auto record = decoder.Next(&key, &value);
          ASSERT_TRUE(record.ok());
          if (!record.value()) break;
          EXPECT_GE(std::string(key), last_key);
          last_key = std::string(key);
          ++decoded;
        }
      }
      EXPECT_EQ(decoded, run.records);
    }
  }
  const int64_t memory_records = buffer.TakeMemorySegment(0).num_records() +
                                 buffer.TakeMemorySegment(1).num_records();
  EXPECT_EQ(spilled_records + memory_records, 50);
}

TEST(ShuffleBufferTest, CombineThenSpillWhenStillOverBudget) {
  TempFileManager temp("shuffle");
  ShuffleCounters counters;
  SumCombiner combiner;
  // Distinct keys: combining frees nothing, so the buffer must spill.
  ShuffleBuffer buffer(1, 128, &combiner, &temp, &counters);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(
        buffer.Add(0, "unique_key_" + std::to_string(i), "1").ok());
  }
  ASSERT_TRUE(buffer.FinalizeMapOutput().ok());
  EXPECT_GT(counters.spill_bytes, 0);
  EXPECT_GT(counters.combine_input_records, 0);
}

/// Adds `segment` to `input` as one unsorted in-memory source.
void AddSegment(ShuffleSegment segment, ReduceInput* input) {
  input->total_bytes += segment.payload_bytes();
  input->total_records += segment.num_records();
  if (!segment.empty()) input->memory_segments.push_back(std::move(segment));
}

/// An in-memory reduce input holding `records` in emission order, built the
/// way the engine builds one: through a map-side buffer's segment hand-off.
ReduceInput MakeInput(const std::vector<Record>& records) {
  TempFileManager temp("make_input");
  ShuffleCounters counters;
  ShuffleBuffer buffer(1, int64_t{1} << 40, nullptr, &temp, &counters);
  for (const Record& record : records) {
    EXPECT_TRUE(buffer.Add(0, record.key, record.value).ok());
  }
  EXPECT_TRUE(buffer.FinalizeMapOutput().ok());
  ReduceInput input;
  AddSegment(buffer.TakeMemorySegment(0), &input);
  return input;
}

TEST(GroupedStreamTest, InMemoryGroupsSortedKeysOrderedValues) {
  TempFileManager temp("stream");
  ShuffleCounters counters;
  auto stream = MakeGroupedStream(
      MakeInput({{"b", "1"}, {"a", "x"}, {"b", "2"}, {"a", "y"}}),
      1 << 20, MemoryPolicy::kSpill, &temp, &counters);
  ASSERT_TRUE(stream.ok());
  // Keys must arrive sorted.
  std::string key;
  ASSERT_TRUE((*stream)->NextGroup(&key).value());
  EXPECT_EQ(key, "a");
  std::string value;
  ASSERT_TRUE((*stream)->NextValue(&value).value());
  EXPECT_EQ(value, "x");  // stable: first-emitted first
  ASSERT_TRUE((*stream)->NextValue(&value).value());
  EXPECT_EQ(value, "y");
  EXPECT_FALSE((*stream)->NextValue(&value).value());
  ASSERT_TRUE((*stream)->NextGroup(&key).value());
  EXPECT_EQ(key, "b");
}

TEST(GroupedStreamTest, NextGroupSkipsUnreadValues) {
  TempFileManager temp("stream");
  ShuffleCounters counters;
  auto stream = MakeGroupedStream(
      MakeInput({{"a", "1"}, {"a", "2"}, {"a", "3"}, {"b", "9"}}),
      1 << 20, MemoryPolicy::kSpill, &temp, &counters);
  ASSERT_TRUE(stream.ok());
  std::string key;
  ASSERT_TRUE((*stream)->NextGroup(&key).value());
  // Read nothing from group "a"; jump straight to the next group.
  ASSERT_TRUE((*stream)->NextGroup(&key).value());
  EXPECT_EQ(key, "b");
  std::string value;
  ASSERT_TRUE((*stream)->NextValue(&value).value());
  EXPECT_EQ(value, "9");
  EXPECT_FALSE((*stream)->NextGroup(&key).value());
}

TEST(GroupedStreamTest, ExternalMergeEqualsInMemory) {
  // Build the same logical input twice: once within budget, once with a
  // tiny budget forcing mapper spills + external merge; results must agree.
  auto build_records = []() {
    std::vector<Record> records;
    for (int i = 0; i < 200; ++i) {
      records.push_back(Record{"key" + std::to_string(i % 17),
                               "v" + std::to_string(i)});
    }
    return records;
  };

  TempFileManager temp("stream");
  ShuffleCounters counters;

  auto in_memory =
      MakeGroupedStream(MakeInput(build_records()), 1 << 20,
                        MemoryPolicy::kSpill, &temp, &counters);
  ASSERT_TRUE(in_memory.ok());
  auto expected = DrainStream(**in_memory);

  // External: pre-spill half the records as two sorted runs.
  ShuffleBuffer buffer(1, 64, nullptr, &temp, &counters);
  for (const Record& record : build_records()) {
    ASSERT_TRUE(buffer.Add(0, record.key, record.value).ok());
  }
  ASSERT_TRUE(buffer.FinalizeMapOutput().ok());
  ReduceInput external_input;
  AddSegment(buffer.TakeMemorySegment(0), &external_input);
  for (RunInfo& run : buffer.TakeSpillRuns(0)) {
    external_input.total_bytes += run.payload_bytes;
    external_input.total_records += run.records;
    external_input.spill_runs.push_back(std::move(run));
  }
  auto merged =
      MakeGroupedStream(std::move(external_input), /*budget=*/256,
                        MemoryPolicy::kSpill, &temp, &counters);
  ASSERT_TRUE(merged.ok());
  auto actual = DrainStream(**merged);

  ASSERT_EQ(actual.size(), expected.size());
  for (auto& [key, values] : expected) {
    auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << key;
    // Multisets of values must match (merge order may differ).
    std::multiset<std::string> a(values.begin(), values.end());
    std::multiset<std::string> b(it->second.begin(), it->second.end());
    EXPECT_EQ(a, b) << key;
  }
}

TEST(GroupedStreamTest, AbsorbsRunsWhenTheyFit) {
  TempFileManager temp("stream");
  ShuffleCounters counters;
  ShuffleBuffer buffer(1, 64, nullptr, &temp, &counters);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(buffer.Add(0, "k" + std::to_string(i % 5), "1").ok());
  }
  ASSERT_TRUE(buffer.FinalizeMapOutput().ok());
  ReduceInput input;
  input.memory_segments.push_back(buffer.TakeMemorySegment(0));
  for (RunInfo& run : buffer.TakeSpillRuns(0)) {
    input.spill_runs.push_back(std::move(run));
  }
  input.total_bytes = 0;  // definitely fits in a 1MB budget
  auto stream = MakeGroupedStream(std::move(input), 1 << 20,
                                  MemoryPolicy::kSpill, &temp, &counters);
  ASSERT_TRUE(stream.ok());
  auto groups = DrainStream(**stream);
  EXPECT_EQ(groups.size(), 5u);
  int64_t total = 0;
  for (auto& [key, values] : groups) {
    total += static_cast<int64_t>(values.size());
  }
  EXPECT_EQ(total, 40);
}

TEST(GroupedStreamTest, StrictPolicyRejectsOverBudget) {
  TempFileManager temp("stream");
  ShuffleCounters counters;
  auto stream = MakeGroupedStream(MakeInput({{"a", std::string(1000, 'x')}}),
                                  /*budget=*/16, MemoryPolicy::kStrict,
                                  &temp, &counters);
  ASSERT_FALSE(stream.ok());
  EXPECT_TRUE(stream.status().IsResourceExhausted());
}

TEST(GroupedStreamTest, EmptyInput) {
  TempFileManager temp("stream");
  ShuffleCounters counters;
  auto stream = MakeGroupedStream(MakeInput({}), 1 << 20,
                                  MemoryPolicy::kSpill, &temp, &counters);
  ASSERT_TRUE(stream.ok());
  std::string key;
  EXPECT_FALSE((*stream)->NextGroup(&key).value());
}

/// Split recovery's merge input over `records`: they are committed as
/// reduce output segments of `per_leaf` records each (one per leaf, in leaf
/// order) and grouped by the shuffle's in-memory stream, as engine.cc does.
std::unique_ptr<GroupedRecordStream> MergeStream(
    const std::vector<Record>& records, size_t per_leaf) {
  ReduceInput input;
  SegmentBuilder leaf;
  for (size_t i = 0; i < records.size(); ++i) {
    leaf.Add(records[i].key, records[i].value);
    if ((i + 1) % per_leaf == 0) AddSegment(leaf.Finish(), &input);
  }
  AddSegment(leaf.Finish(), &input);
  auto stream = MakeGroupedStream(std::move(input),
                                  std::numeric_limits<int64_t>::max(),
                                  MemoryPolicy::kStrict, nullptr, nullptr);
  EXPECT_TRUE(stream.ok()) << stream.status();
  return stream.ok() ? std::move(*stream) : nullptr;
}

TEST(SortedRecordStreamTest, GroupsInStringOrderAndKeepsRecordOrder) {
  using namespace std::string_literals;
  // Keys that tie on the zero-padded 8-byte sort prefix: "ab" vs "ab\0"
  // (the padding byte equals the real one) and two 9-byte keys that differ
  // only past the prefix. Equal keys must yield their values in record
  // (leaf) order.
  const std::vector<Record> records = {
      {"ab\0"s, "1"},      {"prefix12z", "2"}, {"ab", "3"},
      {"prefix12a", "4"}, {"ab\0"s, "5"},      {"ab", "6"},
      {"", "7"},          {"prefix12a", "8"}, {"ab", "9"},
  };
  const std::unique_ptr<GroupedRecordStream> merge =
      MergeStream(records, /*per_leaf=*/4);
  ASSERT_NE(merge, nullptr);
  GroupedRecordStream& stream = *merge;
  std::vector<std::pair<std::string, std::vector<std::string>>> groups;
  std::string key;
  std::string value;
  for (;;) {
    auto more = stream.NextGroup(&key);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    groups.emplace_back(key, std::vector<std::string>{});
    for (;;) {
      auto has_value = stream.NextValue(&value);
      ASSERT_TRUE(has_value.ok());
      if (!*has_value) break;
      groups.back().second.push_back(value);
    }
  }
  const std::vector<std::pair<std::string, std::vector<std::string>>>
      expected = {
          {"", {"7"}},
          {"ab", {"3", "6", "9"}},
          {"ab\0"s, {"1", "5"}},
          {"prefix12a", {"4", "8"}},
          {"prefix12z", {"2"}},
      };
  EXPECT_EQ(groups, expected);
}

TEST(SortedRecordStreamTest, NextGroupSkipsUnreadValues) {
  const std::vector<Record> records = {{"b", "9"}, {"a", "1"}, {"a", "2"}};
  const std::unique_ptr<GroupedRecordStream> merge =
      MergeStream(records, /*per_leaf=*/2);
  ASSERT_NE(merge, nullptr);
  GroupedRecordStream& stream = *merge;
  std::string key;
  ASSERT_TRUE(stream.NextGroup(&key).value());
  EXPECT_EQ(key, "a");
  ASSERT_TRUE(stream.NextGroup(&key).value());
  EXPECT_EQ(key, "b");
  std::string value;
  ASSERT_TRUE(stream.NextValue(&value).value());
  EXPECT_EQ(value, "9");
  EXPECT_FALSE(stream.NextValue(&value).value());
  EXPECT_FALSE(stream.NextGroup(&key).value());
}

/// Records whose keys stress every branch of the shuffle's radix key sort:
/// most keys share their first 8 bytes, bytes come from a small alphabet
/// that includes '\0' (so a zero-padded shorter key ties a longer one on
/// its chunk), lengths 0-24 cross the 7/8/9 and 16/17 chunk boundaries,
/// and a few keys repeat hundreds of times. Values number the records, so
/// the order of equal keys is visible.
std::vector<Record> RadixStressRecords(size_t count, uint64_t seed) {
  static constexpr char kAlphabet[] = {'\0', '\1', 'a', '\x7f', '\xff'};
  static constexpr size_t kLengths[] = {0, 1, 7, 8, 9, 15, 16, 17, 24};
  Rng rng(seed);
  std::vector<std::string> keys;
  for (int k = 0; k < 64; ++k) {
    const size_t length = rng.NextBernoulli(0.5)
                              ? kLengths[rng.NextBounded(std::size(kLengths))]
                              : rng.NextBounded(25);
    std::string key = rng.NextBernoulli(0.8) ? std::string("sp\0cube\0", 8)
                                             : std::string();
    while (key.size() < length) {
      key.push_back(kAlphabet[rng.NextBounded(std::size(kAlphabet))]);
    }
    key.resize(length);
    keys.push_back(std::move(key));
  }
  std::vector<Record> records;
  for (size_t i = 0; i < count; ++i) {
    // Keys 0-3 take half the records: long runs of one key.
    const size_t k = rng.NextBernoulli(0.5) ? rng.NextBounded(4)
                                            : rng.NextBounded(keys.size());
    records.push_back(Record{keys[k], std::to_string(i)});
  }
  return records;
}

std::vector<Record> DrainInOrder(GroupedRecordStream& stream) {
  std::vector<Record> records;
  std::string key;
  std::string value;
  for (;;) {
    auto more = stream.NextGroup(&key);
    EXPECT_TRUE(more.ok());
    if (!more.ok() || !*more) break;
    for (;;) {
      auto has_value = stream.NextValue(&value);
      EXPECT_TRUE(has_value.ok());
      if (!has_value.ok() || !*has_value) break;
      records.push_back(Record{key, value});
    }
  }
  return records;
}

TEST(ShuffleSortTest, RadixKeySortEqualsStableSortByKey) {
  // Sizes on both sides of the sort's insertion-sort cutoff.
  for (size_t count : {0, 1, 2, 31, 33, 300, 5000}) {
    SCOPED_TRACE("records=" + std::to_string(count));
    const std::vector<Record> records = RadixStressRecords(count, 17 + count);
    std::vector<Record> expected = records;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Record& a, const Record& b) {
                       return a.key < b.key;
                     });
    auto same = [&expected](const std::vector<Record>& actual) {
      ASSERT_EQ(actual.size(), expected.size());
      for (size_t i = 0; i < actual.size(); ++i) {
        ASSERT_EQ(actual[i].key, expected[i].key) << "position " << i;
        ASSERT_EQ(actual[i].value, expected[i].value) << "position " << i;
      }
    };

    // In memory: one unsorted segment, sorted by the reduce-side stream.
    TempFileManager temp("radix");
    ShuffleCounters counters;
    auto in_memory = MakeGroupedStream(MakeInput(records), int64_t{1} << 30,
                                       MemoryPolicy::kSpill, &temp,
                                       &counters);
    ASSERT_TRUE(in_memory.ok());
    same(DrainInOrder(**in_memory));

    // Spilled: map-side runs of a small buffer, external-merged in run
    // (emission) order.
    ShuffleBuffer buffer(1, /*memory_budget_bytes=*/512, nullptr, &temp,
                         &counters);
    for (const Record& record : records) {
      ASSERT_TRUE(buffer.Add(0, record.key, record.value).ok());
    }
    ASSERT_TRUE(buffer.FinalizeMapOutput().ok());
    ReduceInput spilled;
    AddSegment(buffer.TakeMemorySegment(0), &spilled);
    for (RunInfo& run : buffer.TakeSpillRuns(0)) {
      spilled.total_bytes += run.payload_bytes;
      spilled.total_records += run.records;
      spilled.spill_runs.push_back(std::move(run));
    }
    auto merged = MakeGroupedStream(std::move(spilled), /*budget=*/1,
                                    MemoryPolicy::kSpill, &temp, &counters);
    ASSERT_TRUE(merged.ok());
    same(DrainInOrder(**merged));
  }
}

/// Writes `records` as one sorted run (stable by key, so equal keys keep
/// their order) through the §13 block codec.
RunInfo WriteRun(std::vector<Record> records, TempFileManager* temp) {
  std::stable_sort(records.begin(), records.end(),
                   [](const Record& a, const Record& b) {
                     return a.key < b.key;
                   });
  RunInfo run;
  run.file = std::make_shared<const SpillFile>(temp->NextPath());
  SpillWriter writer(run.path());
  EXPECT_TRUE(writer.Open().ok());
  SpillBlockEncoder encoder;
  for (const Record& record : records) {
    encoder.Add(record.key, record.value);
    if (encoder.BlockFull()) {
      EXPECT_TRUE(writer.Append(encoder.block()).ok());
      encoder.NextBlock();
    }
    run.payload_bytes += RecordBytes(record.key, record.value);
  }
  if (!encoder.BlockEmpty()) {
    EXPECT_TRUE(writer.Append(encoder.block()).ok());
  }
  EXPECT_TRUE(writer.Close().ok());
  run.file_bytes = writer.bytes_written();
  run.records = static_cast<int64_t>(records.size());
  return run;
}

TEST(GroupedStreamTest, ExternalMergeOfManyMultiBlockRunsKeepsKeyThenRunOrder) {
  // Every key starts with the same 8 bytes, so the merge's prefix compare
  // always ties and the full keys decide, including keys that differ only
  // by a trailing '\0'. Each key recurs in many runs, and run 0 holds 80
  // records of one key, so that group spans several of its run's
  // 32-record blocks.
  const std::string prefix("merge\0by", 8);
  const std::vector<std::string> keys = {
      prefix,          prefix + '\0', prefix + "a",  prefix + "a" + '\0',
      prefix + "ab",   prefix + "b",  prefix + "ba", prefix + "\xff",
      prefix + "hot"};
  constexpr int kRuns = 41;
  TempFileManager temp("many_runs");
  Rng rng(29);
  std::vector<RunInfo> runs;
  std::vector<Record> expected;  // runs concatenated in run order
  for (int r = 0; r < kRuns; ++r) {
    std::vector<Record> records;
    const size_t count = 40 + rng.NextBounded(40);  // 2-3 blocks per run
    for (size_t i = 0; i < count; ++i) {
      records.push_back(Record{keys[rng.NextBounded(keys.size())],
                               std::to_string(r) + "/" + std::to_string(i)});
    }
    if (r == 0) {
      for (int i = 0; i < 80; ++i) {
        records.push_back(Record{prefix + "hot", "hot/" + std::to_string(i)});
      }
    }
    runs.push_back(WriteRun(records, &temp));
    std::stable_sort(records.begin(), records.end(),
                     [](const Record& a, const Record& b) {
                       return a.key < b.key;
                     });
    expected.insert(expected.end(), records.begin(), records.end());
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Record& a, const Record& b) {
                     return a.key < b.key;
                   });
  auto open = [&runs, &temp]() {
    ReduceInput input;
    for (const RunInfo& run : runs) {
      input.total_bytes += run.payload_bytes;
      input.total_records += run.records;
      input.spill_runs.push_back(run);
    }
    ShuffleCounters counters;
    auto stream = MakeGroupedStream(std::move(input), /*budget=*/1,
                                    MemoryPolicy::kSpill, &temp, &counters);
    EXPECT_TRUE(stream.ok());
    // Nothing in memory: no run of the stream's own was written.
    EXPECT_EQ(counters.spill_bytes, 0);
    return std::move(stream).value();
  };

  const std::vector<Record> drained = DrainInOrder(*open());
  ASSERT_EQ(drained.size(), expected.size());
  for (size_t i = 0; i < drained.size(); ++i) {
    ASSERT_EQ(drained[i].key, expected[i].key) << "position " << i;
    ASSERT_EQ(drained[i].value, expected[i].value) << "position " << i;
  }

  // Group g reads g % 3 values before moving on: NextGroup skips the rest,
  // fetching new blocks for them where a group crosses one.
  std::vector<Record> wanted;
  for (size_t begin = 0, g = 0; begin < expected.size(); ++g) {
    size_t end = begin;
    while (end < expected.size() && expected[end].key == expected[begin].key) {
      ++end;
    }
    for (size_t i = begin; i < std::min(end, begin + g % 3); ++i) {
      wanted.push_back(expected[i]);
    }
    begin = end;
  }
  std::unique_ptr<GroupedRecordStream> stream = open();
  std::vector<Record> read;
  std::string key;
  std::string value;
  size_t groups = 0;
  for (size_t g = 0;; ++g) {
    auto more = stream->NextGroup(&key);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ++groups;
    for (size_t i = 0; i < g % 3; ++i) {
      auto has_value = stream->NextValue(&value);
      ASSERT_TRUE(has_value.ok());
      if (!*has_value) break;
      read.push_back(Record{key, value});
    }
  }
  EXPECT_EQ(groups, keys.size());
  ASSERT_EQ(read.size(), wanted.size());
  for (size_t i = 0; i < read.size(); ++i) {
    EXPECT_EQ(read[i].key, wanted[i].key) << "position " << i;
    EXPECT_EQ(read[i].value, wanted[i].value) << "position " << i;
  }
}

// ---- Split-recovery scatter -------------------------------------------------

using KeyValue = std::pair<std::string, std::string>;

/// Every record of one sorted run, in file order, read through its range.
std::vector<KeyValue> ReadRun(const RunInfo& run) {
  std::vector<KeyValue> records;
  SpillReader reader(run.path(), run.offset, run.file_bytes);
  EXPECT_TRUE(reader.Open().ok());
  SpillBlockDecoder decoder;
  std::string raw;
  for (;;) {
    auto more = reader.Next(&raw);
    EXPECT_TRUE(more.ok());
    if (!more.ok() || !*more) break;
    decoder.SetBlock(raw);
    for (;;) {
      std::string_view key;
      std::string_view value;
      auto record = decoder.Next(&key, &value);
      EXPECT_TRUE(record.ok());
      if (!record.ok() || !*record) break;
      records.emplace_back(key, value);
    }
  }
  return records;
}

/// `SplitReduceInput`'s sub-inputs, each as the records of its one run.
std::vector<std::vector<KeyValue>> SplitRecords(const ReduceInput& input,
                                             int fanout, int64_t budget,
                                             TempFileManager* temp) {
  ShuffleCounters counters;
  auto subs = SplitReduceInput(input, fanout, budget, temp, &counters,
                               /*injector=*/nullptr, "split");
  EXPECT_TRUE(subs.ok()) << subs.status();
  std::vector<std::vector<KeyValue>> out;
  if (!subs.ok()) return out;
  EXPECT_EQ(subs->size(), static_cast<size_t>(fanout));
  for (const ReduceInput& sub : *subs) {
    EXPECT_TRUE(sub.memory_segments.empty());
    EXPECT_LE(sub.spill_runs.size(), 1u);
    out.emplace_back();
    for (const RunInfo& run : sub.spill_runs) {
      out.back() = ReadRun(run);
      EXPECT_EQ(static_cast<int64_t>(out.back().size()), sub.total_records);
    }
  }
  return out;
}

TEST(SplitReduceInputTest, SpreadsOnlyGroupsTooBigForASubInput) {
  constexpr int kFanout = 3;
  constexpr int64_t kBudget = 1500;  // groups above 500 bytes spread
  // One hot group of 301 records (~2.4 KB) and 120 cold groups of 1-5
  // records (<= 50 bytes each), emitted interleaved.
  std::vector<Record> records;
  for (int i = 0; i < 301; ++i) {
    records.push_back(Record{"hot", "h" + std::to_string(i)});
    if (i < 120) {
      for (int r = 0; r <= i % 5; ++r) {
        records.push_back(
            Record{"cold" + std::to_string(i), "c" + std::to_string(r)});
      }
    }
  }
  // Half the records through a spilling map-side buffer (sorted runs), the
  // rest as an unsorted in-memory segment.
  TempFileManager temp("split");
  ShuffleCounters map_counters;
  ShuffleBuffer buffer(1, /*memory_budget_bytes=*/256, nullptr, &temp,
                       &map_counters);
  for (size_t i = 0; i < records.size() / 2; ++i) {
    ASSERT_TRUE(buffer.Add(0, records[i].key, records[i].value).ok());
  }
  ASSERT_TRUE(buffer.FinalizeMapOutput().ok());
  ReduceInput input = MakeInput(std::vector<Record>(
      records.begin() + static_cast<std::ptrdiff_t>(records.size() / 2),
      records.end()));
  AddSegment(buffer.TakeMemorySegment(0), &input);
  std::vector<RunInfo> runs = buffer.TakeSpillRuns(0);
  ASSERT_FALSE(runs.empty());
  for (RunInfo& run : runs) {
    input.total_bytes += run.payload_bytes;
    input.total_records += run.records;
    input.spill_runs.push_back(std::move(run));
  }

  const auto subs = SplitRecords(input, kFanout, kBudget, &temp);
  ASSERT_EQ(subs.size(), static_cast<size_t>(kFanout));
  std::map<std::string, std::set<int>> subs_of_key;
  std::vector<int64_t> hot_per_sub(kFanout, 0);
  std::multiset<KeyValue> scattered;
  for (int k = 0; k < kFanout; ++k) {
    const std::vector<KeyValue>& run = subs[static_cast<size_t>(k)];
    for (size_t i = 0; i < run.size(); ++i) {
      if (i > 0) {
        EXPECT_LE(run[i - 1].first, run[i].first) << "sub " << k;
      }
      subs_of_key[run[i].first].insert(k);
      if (run[i].first == "hot") ++hot_per_sub[static_cast<size_t>(k)];
      scattered.insert(run[i]);
    }
  }
  std::multiset<KeyValue> expected;
  for (const Record& record : records) {
    expected.emplace(record.key, record.value);
  }
  EXPECT_EQ(scattered, expected);
  ASSERT_EQ(subs_of_key.size(), 121u);
  for (const auto& [key, where] : subs_of_key) {
    if (key == "hot") continue;
    EXPECT_EQ(where.size(), 1u) << key << " was split";
  }
  // The hot group covers every sub-input, dealt evenly.
  const auto [fewest, most] =
      std::minmax_element(hot_per_sub.begin(), hot_per_sub.end());
  EXPECT_GT(*fewest, 0);
  EXPECT_LE(*most - *fewest, 1);
  // The convergence bound: total/fanout + (budget/fanout)(1 - 1/fanout),
  // plus one hot record for the uneven round-robin share.
  int64_t total = 0;
  int64_t max_record = 0;
  for (const Record& record : records) {
    total += RecordBytes(record.key, record.value);
    max_record = std::max(max_record, RecordBytes(record.key, record.value));
  }
  for (int k = 0; k < kFanout; ++k) {
    int64_t bytes = 0;
    for (const KeyValue& record : subs[static_cast<size_t>(k)]) {
      bytes += RecordBytes(record.first, record.second);
    }
    EXPECT_LE(bytes, total / kFanout +
                         (kBudget / kFanout) * (kFanout - 1) / kFanout +
                         max_record)
        << "sub " << k;
  }

  // Deterministic: a second call writes identical runs.
  EXPECT_EQ(SplitRecords(input, kFanout, kBudget, &temp), subs);

  // Every sub-input reports the spread group's key after the keys it
  // inherits, in ascending order.
  ReduceInput nested = input;
  nested.spread_keys = {"cold0", "zz"};
  ShuffleCounters split_counters;
  auto split = SplitReduceInput(nested, kFanout, kBudget, &temp,
                                &split_counters, /*injector=*/nullptr,
                                "split");
  ASSERT_TRUE(split.ok()) << split.status();
  for (const ReduceInput& sub : *split) {
    EXPECT_EQ(sub.spread_keys,
              (std::vector<std::string>{"cold0", "hot", "zz"}));
  }
}

// ---- Checksums and attempt-private file lifetime ---------------------------

int64_t CountFilesIn(const std::string& dir) {
  int64_t count = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) ++count;
  }
  return count;
}

TEST(SpillChecksumTest, OnDiskCorruptionIsDetected) {
  TempFileManager temp("crc");
  const std::string path = temp.NextPath();
  SpillWriter writer(path);
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.Append("record one, long enough to land a flip").ok());
  ASSERT_TRUE(writer.Append("record two").ok());
  ASSERT_TRUE(writer.Close().ok());

  // Flip one payload byte on disk: [varint len][u32 crc] precede the
  // payload — 5 header bytes for a record shorter than 128.
  {
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(5 + 4);
    char byte = 0;
    file.seekg(5 + 4);
    file.get(byte);
    file.seekp(5 + 4);
    file.put(static_cast<char>(byte ^ 0x20));
  }

  SpillReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  std::string record;
  auto read = reader.Next(&record);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
}

TEST(ShuffleBufferTest, DestructorRemovesUntakenSpillRuns) {
  TempFileManager temp("cleanup");
  std::vector<RunInfo> taken;
  {
    ShuffleCounters counters;
    ShuffleBuffer buffer(2, /*memory_budget_bytes=*/64, nullptr, &temp,
                         &counters);
    // Partition 1 alone first, so the first spills' files hold only
    // partition 1 runs; then both partitions, so later files hold both.
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(buffer
                      .Add(1, "key" + std::to_string(i),
                           "value" + std::to_string(i))
                      .ok());
    }
    for (int i = 30; i < 90; ++i) {
      ASSERT_TRUE(buffer
                      .Add(i % 2, "key" + std::to_string(i),
                           "value" + std::to_string(i))
                      .ok());
    }
    ASSERT_TRUE(buffer.FinalizeMapOutput().ok());
    // Take partition 0's runs (ownership moves to us); leave partition 1's
    // with the buffer, as happens when a map attempt fails mid-shuffle.
    taken = buffer.TakeSpillRuns(0);
    ASSERT_GT(taken.size(), 0u);
    // Some files are referenced only by partition 1's untaken runs: more
    // files on disk than the taken runs reference.
    std::set<std::string> taken_files;
    for (const RunInfo& run : taken) taken_files.insert(run.path());
    ASSERT_GT(CountFilesIn(temp.dir()),
              static_cast<int64_t>(taken_files.size()));
  }
  // Destructor ran: only the files the taken runs reference remain.
  std::set<std::string> taken_files;
  for (const RunInfo& run : taken) {
    EXPECT_TRUE(std::filesystem::exists(run.path())) << run.path();
    taken_files.insert(run.path());
  }
  EXPECT_EQ(CountFilesIn(temp.dir()),
            static_cast<int64_t>(taken_files.size()));
  // Releasing the last run that references a file deletes it.
  taken.clear();
  EXPECT_EQ(CountFilesIn(temp.dir()), 0);
}

TEST(ShuffleBufferTest, OneSpillFileHoldsEveryPartitionsRun) {
  constexpr int kPartitions = 4;
  TempFileManager temp("one_file");
  ShuffleCounters counters;
  ShuffleBuffer buffer(kPartitions, /*memory_budget_bytes=*/256, nullptr,
                       &temp, &counters);
  // Round-robin emission: every spill has records for every partition.
  std::vector<std::multiset<KeyValue>> emitted(kPartitions);
  for (int i = 0; i < 400; ++i) {
    const int p = i % kPartitions;
    const std::string key =
        "p" + std::to_string(p) + "/k" + std::to_string((i * 7) % 23);
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(buffer.Add(p, key, value).ok());
    emitted[static_cast<size_t>(p)].emplace(key, value);
  }
  ASSERT_TRUE(buffer.FinalizeMapOutput().ok());

  std::vector<std::vector<RunInfo>> runs(kPartitions);
  for (int p = 0; p < kPartitions; ++p) {
    runs[static_cast<size_t>(p)] = buffer.TakeSpillRuns(p);
  }
  const size_t spills = runs[0].size();
  ASSERT_GT(spills, 1u);
  // N spills leave N files, not N x P: run r of every partition is a range
  // of spill r's file.
  EXPECT_EQ(CountFilesIn(temp.dir()), static_cast<int64_t>(spills));
  int64_t file_bytes = 0;
  for (int p = 0; p < kPartitions; ++p) {
    const std::vector<RunInfo>& own = runs[static_cast<size_t>(p)];
    ASSERT_EQ(own.size(), spills) << "partition " << p;
    for (size_t r = 0; r < spills; ++r) {
      EXPECT_EQ(own[r].path(), runs[0][r].path()) << "partition " << p;
      file_bytes += own[r].file_bytes;
    }
  }
  EXPECT_EQ(file_bytes, counters.spill_bytes);

  // Each run reads back exactly its own partition's records, in key order;
  // with the memory segment they are everything the partition received.
  for (int p = 0; p < kPartitions; ++p) {
    std::multiset<KeyValue> received;
    for (const RunInfo& run : runs[static_cast<size_t>(p)]) {
      const std::vector<KeyValue> records = ReadRun(run);
      EXPECT_EQ(static_cast<int64_t>(records.size()), run.records);
      for (size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].first.substr(0, 2), "p" + std::to_string(p));
        if (i > 0) {
          EXPECT_LE(records[i - 1].first, records[i].first);
        }
      }
      received.insert(records.begin(), records.end());
    }
    const ShuffleSegment segment = buffer.TakeMemorySegment(p);
    for (const ShuffleRecordRef& ref : segment.refs()) {
      received.emplace(ref.key(), ref.value());
    }
    EXPECT_EQ(received, emitted[static_cast<size_t>(p)]) << "partition " << p;
  }
  runs.clear();
  EXPECT_EQ(CountFilesIn(temp.dir()), 0);
}

/// A spill run or memory segment rendered as "key=count ..." in record
/// order, the values decoded as count states.
std::string RenderCounts(const std::vector<KeyValue>& records) {
  std::string out;
  for (const auto& [key, value] : records) {
    ByteReader reader(value);
    AggState state;
    EXPECT_TRUE(AggState::DecodeFrom(reader, &state).ok());
    EXPECT_TRUE(reader.AtEnd());
    out += " " + key + "=" + std::to_string(state.v0);
  }
  return out;
}

TEST(ShuffleBufferTest, FoldOnInsertKeepsCountersAndRuns) {
  // Golden counters and records of a seeded combine workload over 4
  // partitions: folding on insert must give the combine counters, spill
  // runs and segments of whole-buffer combine passes at the same trigger
  // points (docs/INTERNALS.md §9). The hot keys' counts
  // cross every varint width their states pass through (64 and 8192 for
  // the zigzag count, 128 and 16384 for a plain varint), so a folded value
  // outgrows its arena bytes and is appended again.
  constexpr int kPartitions = 4;
  TempFileManager temp("fold_golden");
  ShuffleCounters counters;
  AggStateCombiner combiner(AggregateKind::kCount);
  ShuffleBuffer buffer(kPartitions, /*memory_budget_bytes=*/512, &combiner,
                       &temp, &counters);
  ByteWriter one;
  AggState{1, 0}.EncodeTo(one);
  const auto add = [&](const std::string& key) {
    const int partition = static_cast<int>(key.back() - '0') % kPartitions;
    return buffer.Add(partition, key, one.data());
  };
  Rng rng(23);
  const auto shuffled = [&rng](std::vector<std::string> keys) {
    for (size_t i = keys.size(); i > 1; --i) {
      std::swap(keys[i - 1], keys[rng.NextBounded(i)]);
    }
    return keys;
  };

  // Few live keys: every overflow is a combine-only pass.
  std::vector<std::string> hot(16400, "h0");
  hot.insert(hot.end(), 130, "h1");
  for (int i = 0; i < 2000; ++i) {
    hot.push_back("w" + std::to_string(rng.NextBounded(10)));
  }
  for (const std::string& key : shuffled(hot)) ASSERT_TRUE(add(key).ok());
  ASSERT_EQ(counters.spill_bytes, 0) << "test invalid: a hot pass spilled";
  // Distinct keys: combining frees too little, so passes spill.
  std::vector<std::string> cold;
  for (int i = 0; i < 150; ++i) {
    cold.push_back("c" + std::to_string(i));
    cold.push_back("w" + std::to_string(rng.NextBounded(10)));
  }
  for (const std::string& key : shuffled(cold)) ASSERT_TRUE(add(key).ok());
  ASSERT_GT(counters.spill_bytes, 0) << "test invalid: nothing spilled";
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(add(i % 3 == 0 ? "h1" : "w" + std::to_string(i % 7)).ok());
  }
  ASSERT_TRUE(buffer.FinalizeMapOutput().ok());

  std::string rendered =
      "map " + std::to_string(counters.map_output_records) + "/" +
      std::to_string(counters.map_output_bytes) + " combine " +
      std::to_string(counters.combine_input_records) + "->" +
      std::to_string(counters.combine_output_records) + " spill " +
      std::to_string(counters.spill_bytes) + "\n";
  for (int p = 0; p < kPartitions; ++p) {
    const std::vector<RunInfo> runs = buffer.TakeSpillRuns(p);
    for (size_t r = 0; r < runs.size(); ++r) {
      rendered += "p" + std::to_string(p) + " run" + std::to_string(r) + " " +
                  std::to_string(runs[r].records) + "/" +
                  std::to_string(runs[r].payload_bytes) + "/" +
                  std::to_string(runs[r].file_bytes) + ":" +
                  RenderCounts(ReadRun(runs[r])) + "\n";
    }
    const ShuffleSegment segment = buffer.TakeMemorySegment(p);
    std::vector<KeyValue> records;
    for (const ShuffleRecordRef& ref : segment.refs()) {
      records.emplace_back(ref.key(), ref.value());
    }
    rendered += "p" + std::to_string(p) + " memory " +
                std::to_string(segment.num_records()) + "/" +
                std::to_string(segment.payload_bytes()) + ":" +
                RenderCounts(records) + "\n";
  }
  EXPECT_EQ(rendered,
      "map 19130/76710 combine 21224->2276 spill 1147\n"
      "p0 run0 20/108/144: c100=1 c120=1 c124=1 c128=1 c130=1 c134=1 "
      "c148=1 c18=1 c20=1 c28=1 c30=1 c40=1 c44=1 c70=1 c74=1 c90=1 "
      "h0=16400 w0=196 w4=191 w8=200\n"
      "p0 run1 31/157/203: c0=1 c10=1 c104=1 c108=1 c110=1 c114=1 c118=1 "
      "c138=1 c14=1 c140=1 c144=1 c24=1 c34=1 c38=1 c4=1 c48=1 c50=1 "
      "c54=1 c58=1 c60=1 c64=1 c78=1 c8=1 c80=1 c84=1 c88=1 c94=1 c98=1 "
      "w0=7 w4=4 w8=4\n"
      "p0 memory 4/17: w8=2 w0=29 c68=1 w4=31\n"
      "p1 run0 23/120/162: c1=1 c101=1 c105=1 c109=1 c111=1 c121=1 c139=1 "
      "c145=1 c15=1 c19=1 c25=1 c35=1 c41=1 c49=1 c5=1 c55=1 c75=1 c89=1 "
      "c99=1 h1=130 w1=213 w5=194 w9=195\n"
      "p1 run1 27/138/181: c11=1 c115=1 c119=1 c129=1 c131=1 c135=1 "
      "c141=1 c149=1 c29=1 c31=1 c39=1 c45=1 c51=1 c59=1 c61=1 c65=1 "
      "c69=1 c71=1 c79=1 c81=1 c85=1 c9=1 c91=1 c95=1 w1=10 w5=5 w9=3\n"
      "p1 memory 6/28: w9=1 c125=1 w5=31 c21=1 w1=30 h1=100\n"
      "p2 run0 12/64/90: c102=1 c112=1 c12=1 c132=1 c136=1 c22=1 c46=1 "
      "c66=1 c82=1 c96=1 w2=230 w6=205\n"
      "p2 run1 21/107/145: c106=1 c116=1 c122=1 c126=1 c142=1 c146=1 "
      "c16=1 c2=1 c26=1 c36=1 c42=1 c52=1 c56=1 c6=1 c62=1 c72=1 c76=1 "
      "c86=1 c92=1 w2=9 w6=8\n"
      "p2 memory 3/13: c32=1 w6=30 w2=30\n"
      "p3 run0 21/112/150: c103=1 c107=1 c113=1 c117=1 c123=1 c137=1 "
      "c147=1 c17=1 c23=1 c33=1 c37=1 c43=1 c53=1 c57=1 c67=1 c73=1 c83=1 "
      "c87=1 c93=1 w3=218 w7=232\n"
      "p3 run1 10/47/72: c13=1 c143=1 c27=1 c3=1 c47=1 c63=1 c7=1 c77=1 "
      "w3=8 w7=6\n"
      "p3 memory 4/21: c133=1 c127=1 c97=1 w3=28\n");
}

TEST(ShuffleLifetimeTest, RetriedChaosJobLeavesNoTempFiles) {
  // A job whose map and reduce attempts fail, spill heavily, and corrupt
  // fetches in flight must still reclaim every attempt-private temp file by
  // the time it returns — failed attempts' spills eagerly, survivors via
  // stream destruction.
  Relation rel = GenUniform(3000, 2, 30, 83);
  EngineConfig config;
  config.num_workers = 4;
  config.memory_budget_bytes = 1 << 10;  // force spills everywhere
  config.network_bandwidth_bytes_per_sec = 0;
  config.min_task_attempts = 3;

  FaultConfig chaos;
  chaos.seed = 21;
  chaos.map_failure_rate = 1.0;
  chaos.reduce_failure_rate = 1.0;
  chaos.payload_corruption_rate = 0.5;
  chaos.forced_worker_crashes = 1;
  FaultPlan plan(chaos);
  config.fault_plan = &plan;

  DistributedFileSystem dfs;
  Engine engine(config, &dfs);
  JobSpec spec;
  spec.name = "cleanup-check";
  spec.mapper_factory = [] {
    class TokenMapper : public Mapper {
      Status Map(const RelationView& input, int64_t row,
                 MapContext& context) override {
        return context.Emit(std::to_string(input.dim(row, 0)), "1");
      }
    };
    return std::make_unique<TokenMapper>();
  };
  spec.reducer_factory = [] {
    class CountReducer : public Reducer {
      Status Reduce(const std::string& key, ValueStream& values,
                    ReduceContext& context) override {
        int64_t count = 0;
        std::string value;
        for (;;) {
          SPCUBE_ASSIGN_OR_RETURN(bool more, values.Next(&value));
          if (!more) break;
          count += std::stoll(value);
        }
        return context.Output(key, std::to_string(count));
      }
    };
    return std::make_unique<CountReducer>();
  };
  VectorOutputCollector collector;
  auto metrics = engine.Run(spec, rel, &collector);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GT(metrics->task_retries, 0);
  EXPECT_GT(metrics->spill_bytes, 0);
  EXPECT_EQ(CountFilesIn(engine.temp_dir()), 0);
}

// ---------------------------------------------------------------------------
// Spill-record codec: the wire contract of run files.
// ---------------------------------------------------------------------------

std::string RandomBytes(Rng& rng, size_t max_len) {
  std::string out(rng.NextBounded(max_len + 1), '\0');
  for (char& c : out) c = static_cast<char>(rng.NextBounded(256));
  return out;
}

TEST(SpillCodecTest, DeltaCodecRoundTripsSortedRuns) {
  // Property: a SpillRecordDecoder fed a SpillRecordEncoder's payloads in
  // order reproduces every (key, value) exactly — including runs of equal
  // keys (shared prefix = whole key, empty suffix) and arbitrary binary
  // values (docs/INTERNALS.md §13).
  Rng rng(191);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::pair<std::string, std::string>> records;
    for (int i = 0; i < 40; ++i) {
      std::string key = RandomBytes(rng, 48);
      // Duplicate the previous key every third record: sorted runs of a
      // skewed workload are mostly repeated keys.
      if (!records.empty() && i % 3 == 0) key = records.back().first;
      records.emplace_back(std::move(key), RandomBytes(rng, 160));
    }
    std::sort(records.begin(), records.end());

    SpillRecordEncoder encoder;
    std::vector<std::string> payloads;
    ByteWriter out;
    for (const auto& [key, value] : records) {
      out.Clear();
      encoder.Append(key, value, &out);
      payloads.emplace_back(out.data());
    }

    SpillRecordDecoder decoder;
    for (size_t i = 0; i < payloads.size(); ++i) {
      std::string_view key;
      std::string_view value;
      ASSERT_TRUE(decoder.Parse(payloads[i], &key, &value).ok());
      EXPECT_EQ(key, records[i].first);
      EXPECT_EQ(value, records[i].second);
    }
  }
}

TEST(SpillCodecTest, EqualKeysEncodeToEmptySuffix) {
  // The payoff case: a repeated key costs 2 varint bytes (shared=len,
  // suffix=0) regardless of key length.
  const std::string key(40, 'k');
  SpillRecordEncoder encoder;
  ByteWriter first;
  encoder.Append(key, "v", &first);
  ByteWriter second;
  encoder.Append(key, "v", &second);
  EXPECT_GT(first.size(), key.size());  // first record carries the full key
  EXPECT_EQ(second.size(), 2 + 1 + 1);  // shared, suffix_len=0, value_len, v

  SpillRecordDecoder decoder;
  std::string_view k;
  std::string_view v;
  ASSERT_TRUE(decoder.Parse(first.data(), &k, &v).ok());
  EXPECT_EQ(k, key);
  ASSERT_TRUE(decoder.Parse(second.data(), &k, &v).ok());
  EXPECT_EQ(k, key);
  EXPECT_EQ(v, "v");
}

TEST(SpillCodecTest, ResetRestartsTheDeltaChain) {
  // Run boundaries: after Reset, the next record must carry its whole key
  // (a fresh decoder has no prior-key state to resolve a shared prefix
  // against).
  SpillRecordEncoder encoder;
  ByteWriter first;
  encoder.Append("shared_prefix_key", "1", &first);
  encoder.Reset();
  ByteWriter second;
  encoder.Append("shared_prefix_key", "2", &second);
  // Identical framing and full key both times; only the value byte differs.
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(first.data().substr(0, first.size() - 1),
            second.data().substr(0, second.size() - 1));

  SpillRecordDecoder decoder;  // fresh, as a new run's reader would be
  std::string_view k;
  std::string_view v;
  ASSERT_TRUE(decoder.Parse(second.data(), &k, &v).ok());
  EXPECT_EQ(k, "shared_prefix_key");
  EXPECT_EQ(v, "2");
}

TEST(SpillCodecTest, BlockCodecRoundTripsAndSelfContains) {
  // Property: SpillBlockEncoder's blocks, decoded in order, reproduce every
  // record; and each block decodes with a *fresh* decoder too — blocks are
  // self-contained (the delta chain resets per block), which is what lets a
  // re-fetched block re-parse without cross-block state (§13).
  Rng rng(197);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::pair<std::string, std::string>> records;
    const int n = 1 + static_cast<int>(rng.NextBounded(3 * kSpillBlockRecords));
    for (int i = 0; i < n; ++i) {
      std::string key = RandomBytes(rng, 32);
      if (!records.empty() && i % 2 == 0) key = records.back().first;
      records.emplace_back(std::move(key), RandomBytes(rng, 64));
    }
    std::sort(records.begin(), records.end());

    SpillBlockEncoder encoder;
    std::vector<std::string> blocks;
    for (const auto& [key, value] : records) {
      encoder.Add(key, value);
      if (encoder.BlockFull()) {
        blocks.emplace_back(encoder.block());
        encoder.NextBlock();
      }
    }
    if (!encoder.BlockEmpty()) {
      blocks.emplace_back(encoder.block());
      encoder.NextBlock();
    }
    EXPECT_EQ(blocks.size(),
              (records.size() + kSpillBlockRecords - 1) / kSpillBlockRecords);

    // Sequential decode with one decoder, and per-block decode with a fresh
    // decoder, must both reproduce the stream exactly.
    for (const bool fresh_decoder_per_block : {false, true}) {
      SpillBlockDecoder decoder;
      size_t i = 0;
      for (const std::string& block : blocks) {
        if (fresh_decoder_per_block) decoder = SpillBlockDecoder();
        decoder.SetBlock(block);
        for (;;) {
          std::string_view key;
          std::string_view value;
          auto record = decoder.Next(&key, &value);
          ASSERT_TRUE(record.ok());
          if (!record.value()) break;
          ASSERT_LT(i, records.size());
          EXPECT_EQ(key, records[i].first);
          EXPECT_EQ(value, records[i].second);
          ++i;
        }
      }
      EXPECT_EQ(i, records.size());
    }
  }
}

TEST(SpillCodecTest, RejectsTruncationAndBogusSharedPrefix) {
  SpillRecordEncoder encoder;
  ByteWriter out;
  encoder.Append("some_key", "some_value", &out);
  const std::string raw(out.data());

  for (size_t len = 0; len < raw.size(); ++len) {
    SpillRecordDecoder decoder;
    std::string_view key;
    std::string_view value;
    EXPECT_FALSE(decoder.Parse(raw.substr(0, len), &key, &value).ok())
        << "prefix of length " << len << " parsed as a whole record";
  }
  {
    // Trailing garbage is corruption, not silently ignored.
    SpillRecordDecoder decoder;
    std::string padded(raw);
    padded.push_back('\0');
    std::string_view key;
    std::string_view value;
    EXPECT_FALSE(decoder.Parse(padded, &key, &value).ok());
  }
  {
    // A shared-prefix length exceeding the decoder's current key state is
    // corruption: a fresh decoder has no bytes to share.
    ByteWriter bogus;
    bogus.PutVarint(5);   // shared prefix of 5 against an empty prior key
    bogus.PutVarint(0);   // no suffix
    bogus.PutBytes("v");
    SpillRecordDecoder decoder;
    std::string_view key;
    std::string_view value;
    EXPECT_FALSE(decoder.Parse(bogus.data(), &key, &value).ok());
  }
}

// ---------------------------------------------------------------------------
// Spill-forcing equivalence grid: the reduce input must be independent of
// whether records travelled via the in-memory arena, combined survivors, or
// checksummed spill runs — with and without in-flight corruption.
// ---------------------------------------------------------------------------

/// Runs `records` through a ShuffleBuffer + MakeGroupedStream round trip and
/// returns the reduce-side groups, summing each group's values so the result
/// is invariant under map-side combining.
std::map<std::string, int64_t> RoundTrip(
    const std::vector<Record>& records, bool use_combiner,
    int64_t map_budget_bytes, IoFaultInjector* injector,
    ShuffleCounters* counters) {
  TempFileManager temp("shuffle_equiv");
  SumCombiner combiner;
  ShuffleBuffer buffer(1, map_budget_bytes,
                       use_combiner ? &combiner : nullptr, &temp, counters);
  buffer.SetSpillResourcePrefix("equiv/m0/a0");
  for (const Record& record : records) {
    EXPECT_TRUE(buffer.Add(0, record.key, record.value).ok());
  }
  EXPECT_TRUE(buffer.FinalizeMapOutput().ok());

  ReduceInput input;
  ShuffleSegment segment = buffer.TakeMemorySegment(0);
  input.total_bytes += segment.payload_bytes();
  input.total_records += segment.num_records();
  if (!segment.empty()) input.memory_segments.push_back(std::move(segment));
  for (RunInfo& run : buffer.TakeSpillRuns(0)) {
    input.total_bytes += run.payload_bytes;
    input.total_records += run.records;
    input.spill_runs.push_back(std::move(run));
  }

  auto stream =
      MakeGroupedStream(std::move(input), int64_t{1} << 30,
                        MemoryPolicy::kSpill, &temp, counters, injector,
                        "equiv/r0");
  EXPECT_TRUE(stream.ok()) << stream.status();
  std::map<std::string, int64_t> sums;
  if (stream.ok()) {
    for (auto& [key, values] : DrainStream(**stream)) {
      int64_t total = 0;
      for (const std::string& value : values) total += std::stoll(value);
      sums[key] = total;
    }
  }
  return sums;
}

TEST(ShuffleEquivalenceTest, SpillsCombinerAndCorruptionPreserveReduceInput) {
  // Seeded skewed key distribution so some keys combine heavily and others
  // are singletons.
  Rng rng(404);
  std::vector<Record> records;
  std::map<std::string, int64_t> expected;
  for (int i = 0; i < 400; ++i) {
    const int64_t hot = rng.NextBounded(3);
    const std::string key =
        rng.NextBernoulli(0.5)
            ? "hot_key_" + std::to_string(hot)
            : "cold_key_" + std::to_string(rng.NextBounded(1000));
    const std::string value = std::to_string(rng.NextInRange(-50, 50));
    expected[key] += std::stoll(value);
    records.push_back(Record{key, value});
  }

  for (const bool use_combiner : {false, true}) {
    for (const bool tiny_budget : {false, true}) {
      for (const double corruption_rate : {0.0, 0.5}) {
        SCOPED_TRACE("combiner=" + std::to_string(use_combiner) +
                     " tiny=" + std::to_string(tiny_budget) +
                     " corruption=" + std::to_string(corruption_rate));
        FaultConfig config;
        config.seed = 77;
        config.payload_corruption_rate = corruption_rate;
        FaultPlan plan(config);
        ShuffleCounters counters;
        const int64_t budget = tiny_budget ? 256 : (int64_t{1} << 30);
        const auto sums =
            RoundTrip(records, use_combiner, budget,
                      corruption_rate > 0 ? &plan : nullptr, &counters);
        EXPECT_EQ(sums, expected);
        if (tiny_budget) {
          EXPECT_GT(counters.spill_bytes, 0) << "budget did not force spills";
        } else {
          EXPECT_EQ(counters.spill_bytes, 0);
        }
        if (corruption_rate > 0 && tiny_budget) {
          // Spilled fetches were corrupted in flight; the checksummed reader
          // must have detected and re-fetched every one of them.
          EXPECT_GT(counters.checksum_mismatches, 0);
          EXPECT_GT(plan.injected_corruptions(), 0);
        }
      }
    }
  }
}

TEST(ShuffleBufferTest, SegmentHandsOffSurvivingRecords) {
  // Without a combiner a partition's segment holds its records in emission
  // order; with one, one combined record per key. Either way payload_bytes
  // is the records' payload and a second take yields nothing.
  Rng rng(88);
  std::vector<Record> records;
  for (int i = 0; i < 120; ++i) {
    records.push_back(Record{"key_" + std::to_string(rng.NextBounded(20)),
                             std::to_string(rng.NextBounded(100))});
  }
  for (const bool use_combiner : {false, true}) {
    SCOPED_TRACE("combiner=" + std::to_string(use_combiner));
    TempFileManager temp("shuffle_seg");
    SumCombiner combiner;
    ShuffleCounters counters;
    ShuffleBuffer buffer(2, int64_t{1} << 30,
                         use_combiner ? &combiner : nullptr, &temp,
                         &counters);
    std::vector<std::vector<Record>> emitted(2);
    std::vector<std::map<std::string, int64_t>> sums(2);
    for (const Record& record : records) {
      const size_t partition = record.key.size() % 2;
      ASSERT_TRUE(buffer
                      .Add(static_cast<int>(partition), record.key,
                           record.value)
                      .ok());
      emitted[partition].push_back(record);
      sums[partition][record.key] += std::stoll(record.value);
    }
    ASSERT_TRUE(buffer.FinalizeMapOutput().ok());

    for (size_t p = 0; p < 2; ++p) {
      const ShuffleSegment segment =
          buffer.TakeMemorySegment(static_cast<int>(p));
      const size_t expected =
          use_combiner ? sums[p].size() : emitted[p].size();
      ASSERT_EQ(segment.refs().size(), expected);
      int64_t payload = 0;
      std::map<std::string, int64_t> taken_sums;
      for (size_t i = 0; i < expected; ++i) {
        const ShuffleRecordRef& ref = segment.refs()[i];
        payload += RecordBytes(ref.key(), ref.value());
        taken_sums[std::string(ref.key())] +=
            std::stoll(std::string(ref.value()));
        if (!use_combiner) {
          EXPECT_EQ(ref.key(), emitted[p][i].key);
          EXPECT_EQ(ref.value(), emitted[p][i].value);
        }
      }
      EXPECT_EQ(taken_sums, sums[p]);
      EXPECT_EQ(segment.payload_bytes(), payload);
      EXPECT_TRUE(buffer.TakeMemorySegment(static_cast<int>(p)).empty());
    }
  }
}

}  // namespace
}  // namespace spcube
