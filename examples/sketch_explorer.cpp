// SP-Sketch explorer: builds the Skews-and-Partitions Sketch (paper §4)
// over a Zipfian dataset and dumps what it learned — per-cuboid skewed
// c-groups with their estimated sizes, partition elements, and the
// serialized size — then demonstrates the two queries the cube round asks
// of it: skew membership and range partition of a tuple.
//
// Run: ./build/examples/sketch_explorer [rows]

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "relation/generators.h"
#include "sketch/builder.h"

using namespace spcube;

int main(int argc, char** argv) {
  const int64_t rows = argc > 1 ? std::atoll(argv[1]) : 200000;
  const int k = 10;

  Relation rel = GenZipfPaper(rows, /*seed=*/4242);
  std::printf("gen-zipf relation: %lld rows, %d dims "
              "(2 x Zipf(1000, 1.1), 2 x uniform(1000))\n",
              static_cast<long long>(rows), rel.num_dims());

  SketchBuildConfig config;
  config.num_partitions = k;
  const int64_t m = config.EffectiveM(rows);
  std::printf("cluster: k=%d machines, m=%lld tuples per machine => a "
              "c-group is skewed when |set(g)| > %lld\n",
              k, static_cast<long long>(m), static_cast<long long>(m));
  std::printf("sampling: alpha=%.5f (expect ~%.0f sample tuples), "
              "beta=%.1f\n\n",
              config.SampleAlpha(rows),
              config.SampleAlpha(rows) * static_cast<double>(rows),
              config.SkewBeta(rows));

  auto sketch = BuildSketchLocal(rel, config);
  if (!sketch.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 sketch.status().ToString().c_str());
    return 1;
  }

  std::printf("The sketch recorded %lld skewed c-groups:\n",
              static_cast<long long>(sketch->TotalSkewedGroups()));
  for (CuboidMask mask = 0;
       mask < static_cast<CuboidMask>(NumCuboids(rel.num_dims())); ++mask) {
    const int64_t skews = sketch->SkewedGroupsInCuboid(mask);
    if (skews == 0) continue;
    std::printf("  cuboid %s: %lld skewed group(s)\n",
                MaskToString(mask, rel.num_dims()).c_str(),
                static_cast<long long>(skews));
  }

  std::vector<GroupKey> all_skews = sketch->AllSkewedGroups();
  std::sort(all_skews.begin(), all_skews.end());
  std::printf("\nSample of skewed groups (values are attribute codes):\n");
  for (size_t i = 0; i < std::min<size_t>(8, all_skews.size()); ++i) {
    std::printf("  %s\n", all_skews[i].ToString(rel.num_dims()).c_str());
  }

  const CuboidMask demo_mask = 0b0001;  // cuboid (a0, *, *, *)
  const auto& elements = sketch->PartitionElements(demo_mask);
  std::printf("\nPartition elements of cuboid %s (%zu elements -> %d "
              "ranges):\n  ",
              MaskToString(demo_mask, rel.num_dims()).c_str(),
              elements.size(), k);
  for (const GroupKey& element : elements) {
    std::printf("%lld ", static_cast<long long>(element.values[0]));
  }
  std::printf("\n");

  // The two queries the cube round issues per tuple projection.
  const auto tuple = rel.row(0);
  std::printf("\nFirst tuple projects onto %s:\n",
              GroupKey::Project(demo_mask, tuple)
                  .ToString(rel.num_dims())
                  .c_str());
  std::printf("  skewed?   %s\n",
              sketch->IsSkewedTuple(demo_mask, tuple) ? "yes -> mapper "
              "aggregates it locally" : "no -> shipped to a range reducer");
  std::printf("  partition %d of %d\n",
              sketch->PartitionOfTuple(demo_mask, tuple), k);
  const CuboidMask owner =
      sketch->OwnerMask(GroupKey::Project(0b1111, tuple));
  std::printf("  the full group's owner cuboid is %s\n",
              owner == kNoOwner
                  ? "(none: every sub-group is skewed)"
                  : MaskToString(owner, rel.num_dims()).c_str());

  const std::string serialized = sketch->Serialize();
  std::printf("\nSerialized sketch: %zu bytes (input: %lld bytes; ratio "
              "1:%lld) — small enough to broadcast to every machine.\n",
              serialized.size(), static_cast<long long>(rel.ByteSize()),
              static_cast<long long>(
                  rel.ByteSize() /
                  std::max<int64_t>(1, static_cast<int64_t>(
                                            serialized.size()))));
  return 0;
}
