// Allocation-freedom tests for the arena-backed shuffle fast path: the
// steady-state Emit -> combine cycle must perform zero heap allocations, the
// spill path boundedly few (per spill, not per record), and the Arena must
// hand out stable addresses across growth and Reset cycles.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "io/dfs.h"
#include "io/spill.h"
#include "mapreduce/api.h"
#include "mapreduce/engine.h"
#include "mapreduce/metrics.h"
#include "mapreduce/shuffle.h"
#include "relation/generators.h"
#include "relation/relation.h"
#include "sum_combiner.h"

// ---------------------------------------------------------------------------
// Global allocation counter. Overriding the global operator new lets the
// tests assert that a code path performs no (or boundedly many) heap
// allocations; counting is toggled so gtest's own bookkeeping is excluded.
// ---------------------------------------------------------------------------

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<int64_t> g_alloc_count{0};

void* CountedAlloc(size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) std::abort();  // repo builds with -fno-exceptions
  return ptr;
}

}  // namespace

// The nothrow variants must be replaced alongside the plain ones: the
// default nothrow new forwards to the plain new, but sanitizer runtimes
// intercept any variant left unreplaced, and an ASan-allocated pointer
// freed by the replaced delete is an alloc-dealloc mismatch.
void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace spcube {
namespace {

/// Runs `fn` with allocation counting on; returns the number of operator-new
/// calls it made.
template <typename Fn>
int64_t CountAllocations(Fn&& fn) {
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  fn();
  g_count_allocs.store(false, std::memory_order_relaxed);
  return g_alloc_count.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Arena.
// ---------------------------------------------------------------------------

TEST(ArenaTest, AddressesStayStableAcrossGrowth) {
  // A tiny chunk size forces many chunk transitions; every previously handed
  // out address must keep its bytes.
  Arena arena(/*chunk_bytes=*/64);
  std::vector<std::pair<const char*, std::string>> appended;
  for (int i = 0; i < 500; ++i) {
    std::string payload = "payload_" + std::to_string(i);
    const char* ptr = arena.Append(payload);
    appended.emplace_back(ptr, std::move(payload));
  }
  for (const auto& [ptr, payload] : appended) {
    EXPECT_EQ(std::string_view(ptr, payload.size()), payload);
  }
  EXPECT_GT(arena.bytes_reserved(), 64);
}

TEST(ArenaTest, AppendPairIsContiguous) {
  Arena arena(/*chunk_bytes=*/32);
  for (int i = 0; i < 100; ++i) {
    const std::string a = "key" + std::to_string(i);
    const std::string b = "value" + std::to_string(i * 7);
    const char* ptr = arena.AppendPair(a, b);
    EXPECT_EQ(std::string_view(ptr, a.size()), a);
    EXPECT_EQ(std::string_view(ptr + a.size(), b.size()), b);
  }
}

TEST(ArenaTest, OversizedPayloadGetsItsOwnChunk) {
  Arena arena(/*chunk_bytes=*/16);
  const std::string big(1000, 'x');
  const char* ptr = arena.Append(big);
  EXPECT_EQ(std::string_view(ptr, big.size()), big);
  // Small appends after the oversize one still work and stay readable.
  const char* small = arena.Append("tail");
  EXPECT_EQ(std::string_view(small, 4), "tail");
}

TEST(ArenaTest, ResetReusesChunksAllocationFree) {
  Arena arena(/*chunk_bytes=*/1024);
  const std::string payload(100, 'p');
  for (int i = 0; i < 50; ++i) arena.Append(payload);  // high-water mark
  const int64_t reserved = arena.bytes_reserved();

  const int64_t allocs = CountAllocations([&] {
    for (int cycle = 0; cycle < 10; ++cycle) {
      arena.Reset();
      for (int i = 0; i < 50; ++i) arena.Append(payload);
    }
  });
  EXPECT_EQ(allocs, 0);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
  EXPECT_EQ(arena.bytes_used(), 50 * 100);
}

// ---------------------------------------------------------------------------
// ShuffleBuffer allocation behaviour.
// ---------------------------------------------------------------------------

TEST(ShuffleFastPathTest, SteadyStateEmitAndCombineAllocationFree) {
  TempFileManager temp("fastpath");
  ShuffleCounters counters;
  SumCombiner combiner;
  // Budget small enough that Add repeatedly overflows into combine passes,
  // but with only 8 distinct keys each pass shrinks the buffer far below
  // 3/4 budget, so the cycle never spills.
  ShuffleBuffer buffer(2, /*memory_budget_bytes=*/4096, &combiner, &temp,
                       &counters);

  std::vector<std::string> keys;
  for (int k = 0; k < 8; ++k) keys.push_back("group_key_" + std::to_string(k));
  const std::string value = "1";

  // Warm-up: reach the high-water mark of every internal buffer (arenas,
  // slot vectors, hash buckets, combine scratch) across several
  // overflow-combine cycles.
  constexpr int kEmits = 20000;
  for (int i = 0; i < kEmits; ++i) {
    ASSERT_TRUE(buffer.Add(i % 2, keys[static_cast<size_t>(i % 8)], value).ok());
  }

  const int64_t allocs = CountAllocations([&] {
    for (int i = 0; i < kEmits; ++i) {
      ASSERT_TRUE(
          buffer.Add(i % 2, keys[static_cast<size_t>(i % 8)], value).ok());
    }
  });
  EXPECT_EQ(allocs, 0) << "steady-state Add -> combine cycle allocated";
  EXPECT_GT(counters.combine_input_records, 0) << "combine never ran";
  EXPECT_EQ(counters.spill_bytes, 0) << "test invalid: the cycle spilled";

  ASSERT_TRUE(buffer.FinalizeMapOutput().ok());
}

TEST(ShuffleFastPathTest, SpillPathAllocatesPerSpillNotPerRecord) {
  TempFileManager temp("fastpath_spill");
  ShuffleCounters counters;
  // No combiner and distinct keys: every overflow must sort-and-spill.
  ShuffleBuffer buffer(1, /*memory_budget_bytes=*/4096, nullptr, &temp,
                       &counters);

  // Pre-build the keys so the test's own string formatting is not counted.
  constexpr int kEmits = 8192;
  std::vector<std::string> keys;
  keys.reserve(kEmits);
  for (int i = 0; i < kEmits; ++i) {
    keys.push_back("spill_key_" + std::to_string(i % 512));
  }
  const std::string value = "payload8";

  // Warm-up through a few spill cycles.
  for (int i = 0; i < kEmits; ++i) {
    ASSERT_TRUE(buffer.Add(0, keys[static_cast<size_t>(i)], value).ok());
  }
  for ([[maybe_unused]] RunInfo& run : buffer.TakeSpillRuns(0)) {
  }

  const int64_t allocs = CountAllocations([&] {
    for (int i = 0; i < kEmits; ++i) {
      ASSERT_TRUE(buffer.Add(0, keys[static_cast<size_t>(i)], value).ok());
    }
  });
  EXPECT_GT(counters.spill_bytes, 0) << "test invalid: nothing spilled";
  // Each spill opens a run file and registers it (a handful of allocations);
  // the per-record path — arena append, slot push, sort, stream write — must
  // not allocate. ~20 B/record against a 4 KiB budget means a spill every
  // ~200 records, so even 8 allocations per spill stays under kEmits / 16.
  EXPECT_LT(allocs, kEmits / 16)
      << "spill cycle allocates per record, not per spill";

  ASSERT_TRUE(buffer.FinalizeMapOutput().ok());
}

TEST(ShuffleFastPathTest, SegmentOutlivesSourceBufferAcrossCombinePass) {
  // Regression for the zero-copy hand-off contract (docs/INTERNALS.md §10):
  // TakeMemorySegment moves the partition's arena into the segment, so the
  // segment's refs must stay valid while the source buffer keeps running
  // combine passes on a fresh arena — and after the buffer dies entirely.
  // This is exactly the shape spcube-analyzer's view-escape rule flags when
  // the ownership transfer is missing.
  TempFileManager temp("fastpath_segment");
  ShuffleCounters counters;
  SumCombiner combiner;
  auto buffer = std::make_unique<ShuffleBuffer>(
      1, /*memory_budget_bytes=*/4096, &combiner, &temp, &counters);

  // First batch: small budget forces combine passes before the take, so the
  // segment's refs point into arena bytes rewritten by compaction at least
  // once.
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        buffer->Add(0, "early_key_" + std::to_string(i % 8), "1").ok());
  }
  ASSERT_TRUE(buffer->FinalizeMapOutput().ok());
  ASSERT_GT(counters.combine_input_records, 0) << "combine never ran";
  ASSERT_EQ(counters.spill_bytes, 0) << "test invalid: the batch spilled";

  ShuffleSegment segment = buffer->TakeMemorySegment(0);
  ASSERT_EQ(segment.num_records(), 8);

  // Snapshot what the segment reads now (owned copies), to compare against
  // reads made after the buffer has mutated and died.
  std::vector<std::pair<std::string, std::string>> expected;
  for (const ShuffleRecordRef& ref : segment.refs()) {
    expected.emplace_back(std::string(ref.key()), std::string(ref.value()));
  }

  // Second batch on the same buffer: drives fresh combine passes (arena
  // appends, compaction swaps, Reset cycles) on the partition the segment
  // was taken from. None of that may disturb the segment's bytes.
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(buffer->Add(0, "late_key_" + std::to_string(i % 8), "1").ok());
  }
  ASSERT_TRUE(buffer->FinalizeMapOutput().ok());

  auto read_segment = [&segment] {
    std::vector<std::pair<std::string, std::string>> got;
    for (const ShuffleRecordRef& ref : segment.refs()) {
      got.emplace_back(std::string(ref.key()), std::string(ref.value()));
    }
    return got;
  };
  EXPECT_EQ(read_segment(), expected)
      << "segment contents changed while the source buffer kept combining";

  // Destroy the source buffer outright; the segment owns its arena and must
  // keep every byte readable.
  buffer.reset();
  EXPECT_EQ(read_segment(), expected)
      << "segment contents changed after the source buffer was destroyed";
  for (const auto& [key, value] : expected) {
    EXPECT_TRUE(key.rfind("early_key_", 0) == 0) << key;
    EXPECT_EQ(value, "250");  // 2000 emits of "1" over 8 keys, summed
  }
}

// ---------------------------------------------------------------------------
// Reduce-side commit buffer.
// ---------------------------------------------------------------------------

class OneGroupMapper : public Mapper {
 public:
  Status Map(const RelationView& /*input*/, int64_t /*row*/,
             MapContext& context) override {
    return context.Emit("group", "1");
  }
};

/// Outputs `outputs` cells per group: 24-byte keys (past std::string's
/// inline capacity) and 8-byte values, formatted without allocating.
class ManyOutputsReducer : public Reducer {
 public:
  explicit ManyOutputsReducer(int outputs) : outputs_(outputs) {}

  Status Reduce(const std::string& /*key*/, ValueStream& /*values*/,
                ReduceContext& context) override {
    char key[32];
    for (int i = 0; i < outputs_; ++i) {
      const int len =
          std::snprintf(key, sizeof(key), "reduce-output-cell-%06d", i);
      SPCUBE_RETURN_IF_ERROR(context.Output(
          std::string_view(key, static_cast<size_t>(len)), "8 bytes!"));
    }
    return Status::OK();
  }

 private:
  int outputs_;
};

TEST(ShuffleFastPathTest, ReduceCommitAllocatesPerChunkNotPerRecord) {
  // Identical serial jobs but for how many cells their one reduce group
  // outputs: the extra allocations of the larger job are the commit
  // buffer's. 20000 cells are ~640 KB of arena, ten 64 KiB chunks, plus
  // the ref vector's doublings; a buffer of owned strings would allocate
  // at least once per cell.
  constexpr int kOutputs = 20000;
  const Relation rel = GenUniform(8, 1, 2, /*seed=*/5);
  auto count_run = [&rel](int outputs) {
    EngineConfig config;
    config.num_workers = 2;
    config.network_bandwidth_bytes_per_sec = 0;
    config.host_threads = 1;
    DistributedFileSystem dfs;
    Engine engine(config, &dfs);
    JobSpec spec;
    spec.mapper_factory = [] { return std::make_unique<OneGroupMapper>(); };
    spec.reducer_factory = [outputs] {
      return std::make_unique<ManyOutputsReducer>(outputs);
    };
    NullOutputCollector sink;
    return CountAllocations([&] {
      auto metrics = engine.Run(spec, rel, &sink);
      ASSERT_TRUE(metrics.ok()) << metrics.status();
      EXPECT_EQ(metrics->output_records, outputs);
    });
  };
  count_run(kOutputs);  // warm-up: first-use statics
  const int64_t baseline = count_run(0);
  const int64_t committed = count_run(kOutputs);
  EXPECT_LT(committed - baseline, 100)
      << "reduce commit allocates per record, not per arena chunk";
}

// ---------------------------------------------------------------------------
// The map-side spill schedule is a pure function of (config, seed).
// ---------------------------------------------------------------------------

/// Emits one record per row in the first half of the input, with a fat value
/// and globally distinct keys (no combining possible); the second half emits
/// nothing, so the spill schedule depends on where in the split the bytes
/// arrive.
class FrontLoadedMapper : public Mapper {
 public:
  Status Map(const RelationView& input, int64_t row,
             MapContext& context) override {
    if (row >= input.num_rows() / 2) return Status::OK();
    return context.Emit("front_key_" + std::to_string(row),
                        std::string(80, 'v'));
  }
};

class DrainReducer : public Reducer {
 public:
  Status Reduce(const std::string& key, ValueStream& values,
                ReduceContext& context) override {
    std::string value;
    int64_t count = 0;
    for (;;) {
      SPCUBE_ASSIGN_OR_RETURN(bool more, values.Next(&value));
      if (!more) break;
      ++count;
    }
    return context.Output(key, std::to_string(count));
  }
};

JobSpec FrontLoadedJob() {
  JobSpec spec;
  spec.mapper_factory = [] { return std::make_unique<FrontLoadedMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<DrainReducer>(); };
  return spec;
}

Result<JobMetrics> RunFrontLoaded(int host_threads) {
  // Two machines, 1000 rows: each emits ~250 × (key + 80 B) ≈ 23 KiB of map
  // output against a 16 KiB budget, so both spill.
  Relation rel = GenUniform(1000, 1, 10, /*seed=*/771);
  DistributedFileSystem dfs;
  EngineConfig config;
  config.num_workers = 2;
  config.memory_budget_bytes = 16 << 10;
  config.network_bandwidth_bytes_per_sec = 0;
  config.host_threads = host_threads;
  Engine engine(config, &dfs);
  NullOutputCollector sink;
  return engine.Run(FrontLoadedJob(), rel, &sink);
}

TEST(ProducerBudgetTest, SpillScheduleIsBitIdenticalAcrossHostThreads) {
  // The spill/combine schedule is a pure function of (config, seed): the
  // serial pool and a 4-thread pool with stealing must reproduce it
  // byte-for-byte, spills included.
  auto serial = RunFrontLoaded(/*host_threads=*/0);
  auto threaded = RunFrontLoaded(/*host_threads=*/4);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(threaded.ok());
  EXPECT_GT(serial->spill_bytes, 0) << "test invalid: nothing spilled";
  EXPECT_EQ(threaded->spill_bytes, serial->spill_bytes);
  EXPECT_EQ(threaded->combine_input_records, serial->combine_input_records);
  EXPECT_EQ(threaded->combine_output_records, serial->combine_output_records);
  EXPECT_EQ(threaded->shuffle_records, serial->shuffle_records);
  EXPECT_EQ(threaded->shuffle_bytes, serial->shuffle_bytes);
  EXPECT_EQ(threaded->output_records, serial->output_records);
}

}  // namespace
}  // namespace spcube
