// Shuffle fast-path microbenchmarks: the arena-backed map-side
// ShuffleBuffer across its hot paths —
//
//   emit          Add only: route M pre-encoded records into 4 partitions
//                 under a budget nothing overflows; records bump-copy into
//                 per-partition arena chunks.
//   emit-combine  Add + combine cycles: 256 distinct keys under a budget
//                 that repeatedly overflows into combine passes (and never
//                 spills). Keys deduplicate through the incremental key
//                 index and survivors compact in place.
//   spill-sort    Add + sort + spill: distinct keys under a small budget so
//                 every overflow radix-sorts the buffer's slot index and
//                 streams a CRC32C delta-coded run file.
//   spill-sort-cube
//                 spill-sort over SP-Cube-shaped keys: GroupKey encodings
//                 (varint mask, varint arity, zig-zag values) whose leading
//                 values have few distinct values, so most keys tie on
//                 their first 8 bytes and the sort must look further in.
//
// Wall-clock timing is host-side and legitimate here: no simulated cluster
// is involved. Results go to stdout and, with --emit-json=<path>, to a JSON
// file matching the tools/validate_bench_json.py schema. The allocation
// column counts global operator new calls per rep, per record.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "common/bytes.h"
#include "common/random.h"
#include "cube/group_key.h"
#include "io/spill.h"
#include "mapreduce/api.h"
#include "mapreduce/shuffle.h"

// --- allocation counter (mirrors tests/layout_test.cc) ---------------------

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<int64_t> g_alloc_count{0};

void* CountedAlloc(size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) std::abort();
  return ptr;
}

}  // namespace

// Nothrow variants replaced too: sanitizer runtimes intercept any variant
// left unreplaced, and mixing their allocator with the replaced delete is
// an alloc-dealloc mismatch (see tests/layout_test.cc).
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

using namespace spcube;
namespace bench = spcube::bench;

namespace {

volatile uint64_t g_sink = 0;  // defeats dead-code elimination

struct Measurement {
  double millis = 0;
  int64_t allocs = 0;
};

/// Best-of-`reps` wall time (and one rep's allocation count) of `fn`.
template <typename Fn>
Measurement Measure(int reps, Fn&& fn) {
  Measurement m;
  m.millis = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    g_count_allocs.store(false, std::memory_order_relaxed);
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    m.millis = std::min(m.millis, ms);
    m.allocs = g_alloc_count.load(std::memory_order_relaxed);
  }
  return m;
}

struct BenchRow {
  const char* name;
  Measurement measured;
  // Spill-run bytes of one rep (identical across reps: the schedule is
  // deterministic).
  int64_t spill_bytes = 0;
};

double PerRecord(int64_t count, int64_t records) {
  return static_cast<double>(count) / static_cast<double>(records);
}

void PrintRow(const BenchRow& row, int64_t records) {
  std::printf("%-16s %12.2f %13.3f %14lld\n", row.name, row.measured.millis,
              PerRecord(row.measured.allocs, records),
              static_cast<long long>(row.spill_bytes));
}

void WriteJson(const std::string& path, int64_t records,
               const std::vector<BenchRow>& table) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"bench_shuffle\",\n";
  out << "  \"records\": " << records << ",\n";
  out << "  \"results\": [\n";
  for (size_t i = 0; i < table.size(); ++i) {
    const BenchRow& r = table[i];
    out << "    {\"name\": \"" << r.name << "\", "
        << "\"ms\": " << r.measured.millis << ", "
        << "\"allocs_per_record\": " << PerRecord(r.measured.allocs, records)
        << ", \"spill_bytes\": " << r.spill_bytes << "}"
        << (i + 1 < table.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

/// One pre-encoded map output with its partition decided up front, so the
/// measured loops contain nothing but shuffle work.
struct EmitInput {
  std::string key;
  std::string value;
  int partition;
};

std::vector<EmitInput> MakeInputs(int64_t count, int64_t key_space,
                                  int num_partitions, uint64_t seed) {
  Rng rng(seed);
  std::vector<EmitInput> inputs;
  inputs.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    EmitInput in;
    in.key = "cube|group|" +
             std::to_string(rng.NextBounded(static_cast<uint64_t>(key_space)));
    in.value = std::to_string(1000 + rng.NextBounded(100000000));
    in.partition = static_cast<int>(rng.NextBounded(
        static_cast<uint64_t>(num_partitions)));
    inputs.push_back(std::move(in));
  }
  return inputs;
}

/// Map output shaped like SP-Cube's: a GroupKey per record, projecting a
/// 6-dim tuple onto a random cuboid. Dims 0-2 draw from 2-4 values, dims
/// 3-5 from 1000, so keys of one cuboid mostly share their first 8 bytes.
std::vector<EmitInput> MakeCubeInputs(int64_t count, int num_partitions,
                                      uint64_t seed) {
  static constexpr uint64_t kCardinality[] = {2, 3, 4, 1000, 1000, 1000};
  constexpr int kDims = static_cast<int>(std::size(kCardinality));
  Rng rng(seed);
  std::vector<EmitInput> inputs;
  inputs.reserve(static_cast<size_t>(count));
  ByteWriter key;
  ByteWriter value;
  value.PutVarint(1);
  int64_t tuple[kDims];
  for (int64_t i = 0; i < count; ++i) {
    for (int d = 0; d < kDims; ++d) {
      tuple[d] = 1000 + static_cast<int64_t>(rng.NextBounded(kCardinality[d]));
    }
    const auto mask =
        static_cast<CuboidMask>(rng.NextBounded(uint64_t{1} << kDims));
    key.Clear();
    GroupKey::Project(mask, std::span<const int64_t>(tuple, kDims))
        .EncodeTo(key);
    inputs.push_back(EmitInput{
        std::string(key.data()), std::string(value.data()),
        static_cast<int>(rng.NextBounded(
            static_cast<uint64_t>(num_partitions)))});
  }
  return inputs;
}

/// Sums decimal-string values (the combiner of the shuffle unit tests).
class SumCombiner : public Combiner {
 public:
  Status Fold(std::string_view acc, std::string_view value,
              ByteWriter* out) const override {
    int64_t a = 0;
    int64_t b = 0;
    std::from_chars(acc.data(), acc.data() + acc.size(), a);
    std::from_chars(value.data(), value.data() + value.size(), b);
    char digits[24];
    const auto printed = std::to_chars(digits, digits + sizeof(digits), a + b);
    out->PutRawBytes(std::string_view(digits, printed.ptr - digits));
    return Status::OK();
  }
};

/// Drives a fresh ShuffleBuffer over `inputs` `reps` times and finalizes;
/// aborts on error (benchmark inputs cannot legitimately fail).
BenchRow RunScenario(const char* name, const std::vector<EmitInput>& inputs,
                     int num_partitions, int64_t budget,
                     const Combiner* combiner, TempFileManager* temp,
                     int reps) {
  BenchRow row{name, {}};
  row.measured = Measure(reps, [&] {
    ShuffleCounters counters;
    ShuffleBuffer buffer(num_partitions, budget, combiner, temp, &counters);
    for (const EmitInput& in : inputs) {
      if (!buffer.Add(in.partition, in.key, in.value).ok()) std::abort();
    }
    if (!buffer.FinalizeMapOutput().ok()) std::abort();
    row.spill_bytes = counters.spill_bytes;
    g_sink = static_cast<uint64_t>(counters.map_output_bytes +
                                   counters.spill_bytes);
  });
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::ParseScale(argc, argv);
  const std::string json_path = bench::ParseEmitJsonPath(argc, argv);
  const int64_t n = std::max<int64_t>(bench::Scaled(200000, scale), 1000);
  const int partitions = 4;
  const int reps = 5;
  TempFileManager temp("bench_shuffle");

  std::printf("Shuffle microbenchmarks | records=%lld, partitions=%d, "
              "best of %d\n",
              static_cast<long long>(n), partitions, reps);
  std::printf("%-16s %12s %13s %14s\n", "hot path", "ms", "allocs/rec",
              "spill-bytes");

  std::vector<BenchRow> table;
  {
    // Emit only: wide key space, nothing overflows.
    const auto inputs = MakeInputs(n, /*key_space=*/1 << 20, partitions, 11);
    table.push_back(RunScenario("emit", inputs, partitions,
                                /*budget=*/int64_t{1} << 40, nullptr, &temp,
                                reps));
    PrintRow(table.back(), n);
  }
  {
    // Emit + combine: 256 hot keys, a budget that overflows into combine
    // passes every few thousand records and never spills.
    const auto inputs = MakeInputs(n, /*key_space=*/256, partitions, 12);
    SumCombiner combiner;
    table.push_back(RunScenario("emit-combine", inputs, partitions,
                                /*budget=*/64 << 10, &combiner, &temp,
                                reps));
    PrintRow(table.back(), n);
  }
  {
    // Spill path: distinct keys, no combiner — every overflow sorts the
    // buffer and writes a checksummed run.
    const auto inputs = MakeInputs(n, /*key_space=*/1 << 20, partitions, 13);
    table.push_back(RunScenario("spill-sort", inputs, partitions,
                                /*budget=*/256 << 10, nullptr, &temp,
                                reps));
    PrintRow(table.back(), n);
  }
  {
    // Spill path over cube keys that mostly tie on their first 8 bytes.
    const auto inputs = MakeCubeInputs(n, partitions, 14);
    table.push_back(RunScenario("spill-sort-cube", inputs, partitions,
                                /*budget=*/64 << 10, nullptr, &temp, reps));
    PrintRow(table.back(), n);
  }

  if (!json_path.empty()) {
    WriteJson(json_path, n, table);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  std::printf(
      "\nShape to match: allocs/record ~0 on every row at steady state (no "
      "per-record strings, no per-pass hash map rebuild); the spill rows "
      "pay sort + run-file I/O on top of emit.\n");
  return 0;
}
