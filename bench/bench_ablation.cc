// Ablation study of SP-Cube's design choices (DESIGN.md §5):
//   1. mapper-side partial aggregation of skewed groups  (paper §3.2)
//   2. minimal-group factorized routing                  (Observation 2.6)
//   3. sketch-driven range partitioning                  (paper §3.3)
//   4. sampling-rate multiplier                          (paper §4.2 alpha)
// Each variant stays exact (verified by the test suite); the benchmark
// shows what each idea buys in traffic, balance and time.

#include <cstdio>

#include "bench_util.h"
#include "core/sp_cube.h"
#include "relation/generators.h"

using namespace spcube;
namespace bench = spcube::bench;

namespace {

bench::AlgoResult RunVariant(const Relation& rel, int k,
                             const SpCubeOptions& options) {
  DistributedFileSystem dfs;
  Engine engine(bench::MakeClusterConfig(rel.num_rows(), rel.num_dims(), k),
                &dfs);
  SpCubeAlgorithm sp(options);
  return bench::RunOne(sp, engine, rel);
}

void PrintRow(const char* name, const bench::AlgoResult& r,
              bench::FailureAudit& audit) {
  audit.Note(r);
  if (r.failed) {
    std::printf("%-22s FAILED: %s\n", name, r.failure.c_str());
    return;
  }
  std::printf("%-22s %10s %14s %14s %12.2f %12s\n", name,
              bench::FormatSeconds(r.total_seconds).c_str(),
              bench::FormatCount(r.map_output_records).c_str(),
              bench::FormatBytes(r.shuffle_bytes).c_str(),
              r.reducer_imbalance,
              bench::FormatBytes(r.sketch_bytes).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::ParseScale(argc, argv);
  const int k = 16;
  const int64_t n = bench::Scaled(100000, scale);
  Relation rel = GenWikiLike(n, 1601);
  bench::FailureAudit audit;

  std::printf("SP-Cube ablations | wiki-like, n=%lld, k=%d\n",
              static_cast<long long>(n), k);
  std::printf("%-22s %10s %14s %14s %12s %12s\n", "variant", "total-s",
              "map-out-rec", "shuffle", "imbalance", "sketch");

  PrintRow("paper (full)", RunVariant(rel, k, {}), audit);

  {
    SpCubeOptions options;
    options.tuning.aggregate_skews_in_mapper = false;
    PrintRow("- mapper skew agg", RunVariant(rel, k, options), audit);
  }
  {
    SpCubeOptions options;
    options.tuning.emit_minimal_groups_only = false;
    PrintRow("- factorized routing", RunVariant(rel, k, options),
             audit);
  }
  {
    SpCubeOptions options;
    options.use_range_partitioner = false;
    PrintRow("- range partitioner", RunVariant(rel, k, options),
             audit);
  }

  std::printf("\nSampling-rate sweep (alpha multiplier):\n");
  for (const double multiplier : {0.25, 1.0, 4.0}) {
    SpCubeOptions options;
    options.sketch.sample_rate_multiplier = multiplier;
    char name[32];
    std::snprintf(name, sizeof(name), "alpha x %.2f", multiplier);
    PrintRow(name, RunVariant(rel, k, options), audit);
  }

  std::printf(
      "\nShape to match: dropping mapper skew aggregation inflates "
      "shuffled records; dropping factorized routing inflates map output "
      "toward 2^d per tuple; dropping the range partitioner worsens "
      "imbalance; larger alpha grows the sketch for little gain.\n");
  return audit.ExitCode();
}
