// Recovery overhead under the deterministic chaos layer: for fault rates
// {0, 0.01, 0.05, 0.15}, run SP-Cube and MR-Cube (Pig) on the paper's
// Zipfian relation while injecting task failures, stragglers, transient
// DFS read errors, in-flight payload corruption and (at rate >= 0.05) one
// forced whole-worker crash. Reports the simulated total time, the
// recovery share of it, and the recovery event counters; a final check
// re-runs one chaotic point to confirm the fault schedule is a pure
// function of the seed.
//
// A second, degradation axis exercises adaptive skew recovery (docs/
// INTERNALS.md §11): SP-Cube under strict reducer memory with a sketch
// built on batch 0 of a drifting Zipf stream but cubing the aged final
// batch, while OOM pressure (budget shrink) is injected into reduce
// attempts at increasing rates. Reports partitions split, recovery
// rounds, bytes re-shuffled and the simulated recovery time.
//
// Results go to stdout and, with --emit-json=<path>, to a JSON file
// matching the tools/validate_bench_json.py schema.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "baselines/mrcube.h"
#include "bench_util.h"
#include "core/sp_cube.h"
#include "mapreduce/fault.h"
#include "relation/generators.h"

using namespace spcube;
namespace bench = spcube::bench;

namespace {

struct FaultOutcome {
  bool failed = false;
  std::string failure;
  double total_seconds = 0;
  double recovery_seconds = 0;
  int64_t retries = 0;
  int64_t workers_crashed = 0;
  int64_t crash_reexecutions = 0;
  int64_t speculative = 0;
  int64_t checksum_mismatches = 0;
  int64_t output_records = 0;
};

FaultConfig ChaosAt(double rate) {
  FaultConfig chaos;
  chaos.seed = 1207;
  chaos.map_failure_rate = rate;
  chaos.reduce_failure_rate = rate;
  chaos.straggler_rate = rate;
  chaos.dfs_read_error_rate = rate / 2;
  chaos.payload_corruption_rate = rate;
  chaos.forced_worker_crashes = rate >= 0.05 ? 1 : 0;
  return chaos;
}

FaultOutcome RunChaos(CubeAlgorithm& algorithm, const Relation& rel, int k,
                      double rate) {
  EngineConfig cluster =
      bench::MakeClusterConfig(rel.num_rows(), rel.num_dims(), k);
  const FaultConfig chaos = ChaosAt(rate);
  FaultPlan plan(chaos);
  if (rate > 0) {
    cluster.fault_plan = &plan;
    cluster.min_task_attempts = 3;
    cluster.retry_backoff_seconds = 0.05;
  }
  DistributedFileSystem dfs;
  Engine engine(cluster, &dfs);
  CubeRunOptions options;
  options.collect_output = false;
  auto output = algorithm.Run(engine, rel, options);

  FaultOutcome out;
  if (!output.ok()) {
    out.failed = true;
    out.failure = output.status().ToString();
    return out;
  }
  const RunMetrics& metrics = output->metrics;
  out.total_seconds = metrics.TotalSeconds();
  out.recovery_seconds = metrics.FaultRecoverySeconds();
  out.retries = metrics.TaskRetries();
  out.workers_crashed = metrics.WorkersCrashed();
  out.crash_reexecutions = metrics.TasksReexecutedAfterCrash();
  out.speculative = metrics.TasksSpeculativelyReexecuted();
  out.checksum_mismatches = metrics.ShuffleChecksumMismatches();
  out.output_records = metrics.OutputRecords();
  return out;
}

std::string FormatEvents(const FaultOutcome& r) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%lld/%lld/%lld/%lld",
                static_cast<long long>(r.retries),
                static_cast<long long>(r.crash_reexecutions),
                static_cast<long long>(r.speculative),
                static_cast<long long>(r.checksum_mismatches));
  return buf;
}

// ---- Degradation axis: strict memory + drift + OOM pressure ----------------

struct DegradationOutcome {
  bool failed = false;
  std::string failure;
  double total_seconds = 0;
  int64_t partitions_split = 0;
  int64_t recovery_rounds = 0;
  int64_t bytes_reshuffled = 0;
  double recovery_seconds = 0;
  int64_t output_records = 0;
};

DegradationOutcome RunOomPressure(const Relation& sketch_batch,
                                  const Relation& cube_batch, int k,
                                  double pressure) {
  EngineConfig cluster = bench::MakeClusterConfig(cube_batch.num_rows(),
                                                  cube_batch.num_dims(), k);
  FaultConfig chaos;
  chaos.seed = 1207;
  chaos.oom_pressure_rate = pressure;
  chaos.oom_budget_factor = 0.25;
  FaultPlan plan(chaos);
  if (pressure > 0) {
    cluster.fault_plan = &plan;
    cluster.min_task_attempts = 3;
    cluster.retry_backoff_seconds = 0.05;
  }
  DistributedFileSystem dfs;
  Engine engine(cluster, &dfs);

  SpCubeOptions sp_options;
  sp_options.strict_reducer_memory = true;
  SpCubeAlgorithm sp(sp_options);
  CubeRunOptions options;
  options.collect_output = false;
  auto output = sp.RunWithSketchFrom(engine, sketch_batch, cube_batch,
                                     options);

  DegradationOutcome out;
  if (!output.ok()) {
    out.failed = true;
    out.failure = output.status().ToString();
    return out;
  }
  const RunMetrics& metrics = output->metrics;
  out.total_seconds = metrics.TotalSeconds();
  out.partitions_split = metrics.ReducePartitionsSplit();
  out.recovery_rounds = metrics.RecoveryRounds();
  out.bytes_reshuffled = metrics.RecoveryBytesReshuffled();
  out.recovery_seconds = metrics.RecoverySeconds();
  out.output_records = metrics.OutputRecords();
  return out;
}

// ---- JSON emission ---------------------------------------------------------

struct JsonRow {
  std::string name;
  std::vector<std::pair<std::string, double>> fields;
};

void WriteJson(const std::string& path, int64_t n,
               const std::vector<JsonRow>& rows) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"bench_faults\",\n";
  out << "  \"records\": " << n << ",\n";
  out << "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    out << "    {\"name\": \"" << rows[i].name << "\"";
    for (const auto& [key, value] : rows[i].fields) {
      out << ", \"" << key << "\": " << value;
    }
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::ParseScale(argc, argv);
  const std::string json_path = bench::ParseEmitJsonPath(argc, argv);
  const int k = 8;
  const int64_t n = bench::Scaled(40000, scale);
  const Relation rel = GenZipfPaper(n, /*seed=*/1207);
  const std::vector<double> rates = {0.0, 0.01, 0.05, 0.15};
  std::vector<JsonRow> json_rows;

  std::printf("Fault recovery | gen-zipf paper mix, n=%lld, k=%d | "
              "events = retries/crash-redo/speculative/cksum-mismatch\n",
              static_cast<long long>(n), k);

  const std::vector<std::string> columns = {"sp-cube", "mr-cube(pig)"};
  bench::SeriesTable total("Total simulated time under faults", "fault rate",
                           columns);
  bench::SeriesTable recovery("Recovery overhead (simulated s, % of total)",
                              "fault rate", columns);
  bench::SeriesTable events("Recovery events", "fault rate", columns);

  std::vector<int64_t> clean_outputs;
  bool exactness_ok = true;
  bool any_run_failed = false;
  for (const double rate : rates) {
    SpCubeAlgorithm sp;
    MrCubeAlgorithm pig;
    std::vector<std::string> total_cells;
    std::vector<std::string> recovery_cells;
    std::vector<std::string> event_cells;
    int algo_index = 0;
    for (CubeAlgorithm* algorithm :
         std::initializer_list<CubeAlgorithm*>{&sp, &pig}) {
      const FaultOutcome r = RunChaos(*algorithm, rel, k, rate);
      if (r.failed) {
        std::printf("  %s at rate %.2f FAILED: %s\n",
                    algorithm->name().c_str(), rate, r.failure.c_str());
        total_cells.push_back("FAIL");
        recovery_cells.push_back("FAIL");
        event_cells.push_back("FAIL");
        any_run_failed = true;
        ++algo_index;
        continue;
      }
      // Faulted runs must produce exactly as many groups as the clean run.
      if (rate == 0.0) {
        clean_outputs.push_back(r.output_records);
      } else if (r.output_records !=
                 clean_outputs[static_cast<size_t>(algo_index)]) {
        exactness_ok = false;
      }
      total_cells.push_back(bench::FormatSeconds(r.total_seconds));
      char cell[64];
      std::snprintf(cell, sizeof(cell), "%s (%.1f%%)",
                    bench::FormatSeconds(r.recovery_seconds).c_str(),
                    r.total_seconds > 0
                        ? 100.0 * r.recovery_seconds / r.total_seconds
                        : 0.0);
      recovery_cells.push_back(cell);
      event_cells.push_back(FormatEvents(r));
      char row_name[64];
      std::snprintf(row_name, sizeof(row_name), "faults_r%.2f_%s", rate,
                    algorithm->name().c_str());
      json_rows.push_back(JsonRow{
          row_name,
          {{"total_s", r.total_seconds},
           {"recovery_s", r.recovery_seconds},
           {"retries", static_cast<double>(r.retries)},
           {"crash_reexecutions", static_cast<double>(r.crash_reexecutions)},
           {"speculative", static_cast<double>(r.speculative)},
           {"checksum_mismatches",
            static_cast<double>(r.checksum_mismatches)}}});
      ++algo_index;
    }
    char x[32];
    std::snprintf(x, sizeof(x), "%.2f", rate);
    total.AddRow(x, total_cells);
    recovery.AddRow(x, recovery_cells);
    events.AddRow(x, event_cells);
  }

  total.Print();
  recovery.Print();
  events.Print();

  // ---- Degradation axis: strict memory, stale sketch, OOM pressure --------
  DriftSpec drift;
  drift.num_batches = 3;
  drift.start_exponent = 0.3;
  drift.end_exponent = 1.5;
  drift.churn_step = 311;
  const Relation old_batch = GenDriftBatch(drift, 0, n, 1207);
  const Relation new_batch =
      GenDriftBatch(drift, drift.num_batches - 1, n, 1207);
  const std::vector<double> pressures = {0.0, 0.3, 0.6};

  std::printf("\nAdaptive skew recovery | sp-cube strict memory, sketch "
              "from batch 0 of a drifting zipf stream, cubing the aged "
              "final batch, OOM pressure injected per reduce attempt\n");
  bench::SeriesTable degradation(
      "Degradation under OOM pressure", "pressure",
      {"total", "splits", "rounds", "re-shuffled", "recovery time"});
  bool degradation_failed = false;
  bool degradation_splits_seen = false;
  int64_t degradation_outputs = -1;
  bool degradation_exact = true;
  for (const double pressure : pressures) {
    const DegradationOutcome r =
        RunOomPressure(old_batch, new_batch, k, pressure);
    if (r.failed) {
      std::printf("  pressure %.1f FAILED: %s\n", pressure,
                  r.failure.c_str());
      degradation_failed = true;
      continue;
    }
    if (degradation_outputs < 0) {
      degradation_outputs = r.output_records;
    } else if (r.output_records != degradation_outputs) {
      // Splitting must be invisible in the output: same cube cardinality
      // at every pressure level.
      degradation_exact = false;
    }
    if (r.partitions_split > 0) degradation_splits_seen = true;
    char x[32];
    std::snprintf(x, sizeof(x), "%.1f", pressure);
    degradation.AddRow(
        x, {bench::FormatSeconds(r.total_seconds),
            bench::FormatCount(r.partitions_split),
            bench::FormatCount(r.recovery_rounds),
            bench::FormatBytes(r.bytes_reshuffled),
            bench::FormatSeconds(r.recovery_seconds)});
    char row_name[64];
    std::snprintf(row_name, sizeof(row_name), "oom_pressure_p%.1f_sp-cube",
                  pressure);
    json_rows.push_back(JsonRow{
        row_name,
        {{"total_s", r.total_seconds},
         {"partitions_split", static_cast<double>(r.partitions_split)},
         {"recovery_rounds", static_cast<double>(r.recovery_rounds)},
         {"bytes_reshuffled", static_cast<double>(r.bytes_reshuffled)},
         {"recovery_s", r.recovery_seconds}}});
  }
  degradation.Print();

  // Determinism: the same seed must yield the same fault schedule, hence
  // identical recovery counters (times are host-measured and may jitter).
  SpCubeAlgorithm sp_a, sp_b;
  const FaultOutcome a = RunChaos(sp_a, rel, k, 0.15);
  const FaultOutcome b = RunChaos(sp_b, rel, k, 0.15);
  const bool deterministic =
      !a.failed && !b.failed && a.retries == b.retries &&
      a.workers_crashed == b.workers_crashed &&
      a.crash_reexecutions == b.crash_reexecutions &&
      a.speculative == b.speculative &&
      a.checksum_mismatches == b.checksum_mismatches &&
      a.output_records == b.output_records;
  // And the degradation axis replays identically too.
  const DegradationOutcome da = RunOomPressure(old_batch, new_batch, k, 0.6);
  const DegradationOutcome db = RunOomPressure(old_batch, new_batch, k, 0.6);
  const bool degradation_deterministic =
      !da.failed && !db.failed &&
      da.partitions_split == db.partitions_split &&
      da.recovery_rounds == db.recovery_rounds &&
      da.bytes_reshuffled == db.bytes_reshuffled &&
      da.output_records == db.output_records;
  std::printf("\nSame-seed replay at rate 0.15: %s\n",
              deterministic ? "deterministic (counters identical)"
                            : "MISMATCH — fault schedule is not a pure "
                              "function of the seed!");
  std::printf("Same-seed replay at pressure 0.6: %s\n",
              degradation_deterministic
                  ? "deterministic (recovery counters identical)"
                  : "MISMATCH — recovery is not a pure function of the "
                    "seed!");
  std::printf("Output cardinality under faults: %s\n",
              exactness_ok ? "matches fault-free runs"
                           : "MISMATCH vs fault-free runs!");
  std::printf("Output cardinality under OOM pressure: %s\n",
              degradation_exact ? "identical at every pressure level"
                                : "MISMATCH across pressure levels!");
  std::printf("Partition splitting engaged: %s\n",
              degradation_splits_seen ? "yes" : "NO — axis is inert!");

  if (!json_path.empty()) {
    WriteJson(json_path, n, json_rows);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return (deterministic && degradation_deterministic && exactness_ok &&
          degradation_exact && degradation_splits_seen && !any_run_failed &&
          !degradation_failed)
             ? 0
             : 1;
}
