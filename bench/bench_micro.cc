// Micro-benchmarks (google-benchmark) for the library's hot components:
// BUC, sketch construction and lookups, group-key codec, generators, the
// shuffle spill path. These back the component-level claims in DESIGN.md.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "cube/buc.h"
#include "cube/cube_result.h"
#include "cube/group_key.h"
#include "io/spill.h"
#include "relation/generators.h"
#include "sketch/builder.h"

namespace spcube {
namespace {

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(1);
  ZipfDistribution zipf(1000, 1.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_GeneratorThroughput(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    Relation rel = GenBinomial(n, 4, 0.3, 7);
    benchmark::DoNotOptimize(rel.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GeneratorThroughput)->Arg(10000)->Arg(100000);

void BM_GroupKeyProjectAndHash(benchmark::State& state) {
  const std::vector<int64_t> tuple = {1, 2, 3, 4, 5, 6};
  CuboidMask mask = 0;
  for (auto _ : state) {
    mask = (mask + 1) & 0x3f;
    GroupKey key = GroupKey::Project(mask, tuple);
    benchmark::DoNotOptimize(key.Hash());
  }
}
BENCHMARK(BM_GroupKeyProjectAndHash);

void BM_GroupKeyEncodeDecode(benchmark::State& state) {
  GroupKey key(0b1011, {123456, -42, 7});
  for (auto _ : state) {
    ByteWriter writer;
    key.EncodeTo(writer);
    ByteReader reader(writer.data());
    GroupKey decoded;
    benchmark::DoNotOptimize(GroupKey::DecodeFrom(reader, &decoded).ok());
  }
}
BENCHMARK(BM_GroupKeyEncodeDecode);

void BM_BucFullCube(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int d = static_cast<int>(state.range(1));
  Relation rel = GenUniform(n, d, 50, 3);
  const Aggregator& agg = GetAggregator(AggregateKind::kCount);
  for (auto _ : state) {
    int64_t groups = 0;
    BucComputeFull(rel, agg, {},
                   [&groups](const GroupKey&, const AggState&) { ++groups; });
    benchmark::DoNotOptimize(groups);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BucFullCube)
    ->Args({5000, 3})
    ->Args({5000, 5})
    ->Args({20000, 4});

void BM_BucIceberg(benchmark::State& state) {
  Relation rel = GenBinomial(20000, 4, 0.4, 5);
  const Aggregator& agg = GetAggregator(AggregateKind::kCount);
  BucOptions options;
  options.min_support = state.range(0);
  for (auto _ : state) {
    int64_t groups = 0;
    BucComputeFull(rel, agg, options,
                   [&groups](const GroupKey&, const AggState&) { ++groups; });
    benchmark::DoNotOptimize(groups);
  }
}
BENCHMARK(BM_BucIceberg)->Arg(1)->Arg(10)->Arg(100);

void BM_SketchBuild(benchmark::State& state) {
  const int64_t n = state.range(0);
  Relation rel = GenWikiLike(n, 9);
  SketchBuildConfig config;
  config.num_partitions = 16;
  for (auto _ : state) {
    auto sketch = BuildSketchLocal(rel, config);
    benchmark::DoNotOptimize(sketch.ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SketchBuild)->Arg(50000)->Arg(200000);

void BM_SketchSkewLookup(benchmark::State& state) {
  Relation rel = GenWikiLike(50000, 11);
  SketchBuildConfig config;
  config.num_partitions = 16;
  auto sketch = BuildSketchLocal(rel, config);
  Rng rng(13);
  for (auto _ : state) {
    const int64_t row = static_cast<int64_t>(rng.NextBounded(50000));
    const CuboidMask mask = static_cast<CuboidMask>(rng.NextBounded(16));
    benchmark::DoNotOptimize(sketch->IsSkewedTuple(mask, rel.row(row)));
  }
}
BENCHMARK(BM_SketchSkewLookup);

void BM_SketchPartitionLookup(benchmark::State& state) {
  Relation rel = GenWikiLike(50000, 11);
  SketchBuildConfig config;
  config.num_partitions = 16;
  auto sketch = BuildSketchLocal(rel, config);
  Rng rng(13);
  for (auto _ : state) {
    const int64_t row = static_cast<int64_t>(rng.NextBounded(50000));
    const CuboidMask mask = static_cast<CuboidMask>(rng.NextBounded(16));
    benchmark::DoNotOptimize(sketch->PartitionOfTuple(mask, rel.row(row)));
  }
}
BENCHMARK(BM_SketchPartitionLookup);

void BM_SketchOwnerLookup(benchmark::State& state) {
  Relation rel = GenWikiLike(50000, 11);
  SketchBuildConfig config;
  config.num_partitions = 16;
  auto sketch = BuildSketchLocal(rel, config);
  Rng rng(13);
  for (auto _ : state) {
    const int64_t row = static_cast<int64_t>(rng.NextBounded(50000));
    const CuboidMask mask =
        static_cast<CuboidMask>(rng.NextBounded(16));
    benchmark::DoNotOptimize(
        sketch->OwnerMask(GroupKey::Project(mask, rel.row(row))));
  }
}
BENCHMARK(BM_SketchOwnerLookup);

void BM_ReferenceCube(benchmark::State& state) {
  Relation rel = GenUniform(state.range(0), 4, 50, 15);
  for (auto _ : state) {
    CubeResult cube = ComputeCubeReference(rel, AggregateKind::kCount);
    benchmark::DoNotOptimize(cube.num_groups());
  }
}
BENCHMARK(BM_ReferenceCube)->Arg(2000)->Arg(10000);

void BM_SpillWriteRead(benchmark::State& state) {
  TempFileManager temp("bench");
  const std::string payload(64, 'x');
  for (auto _ : state) {
    SpillWriter writer(temp.NextPath());
    if (!writer.Open().ok()) state.SkipWithError("open failed");
    for (int i = 0; i < 1000; ++i) {
      if (!writer.Append(payload).ok()) state.SkipWithError("append");
    }
    if (!writer.Close().ok()) state.SkipWithError("close");
    SpillReader reader(writer.path());
    if (!reader.Open().ok()) state.SkipWithError("reopen");
    std::string record;
    int64_t count = 0;
    for (;;) {
      auto more = reader.Next(&record);
      if (!more.ok() || !more.value()) break;
      ++count;
    }
    benchmark::DoNotOptimize(count);
    RemoveFileIfExists(writer.path());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SpillWriteRead);

}  // namespace
}  // namespace spcube
