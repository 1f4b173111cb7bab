#ifndef SPCUBE_BENCH_BENCH_UTIL_H_
#define SPCUBE_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/cube_algorithm.h"
#include "mapreduce/engine.h"
#include "relation/relation.h"

namespace spcube {
namespace bench {

/// Simulated cluster shape shared by the figure benchmarks: k machines,
/// each with memory m = n/k tuples (the paper's §2.3 setting), a modeled
/// 100 MB/s per-node shuffle bandwidth and a 0.5 s per-round job overhead.
EngineConfig MakeClusterConfig(int64_t num_rows, int num_dims, int k);

/// Result of one algorithm run at one sweep point.
struct AlgoResult {
  std::string algorithm;
  bool failed = false;        // e.g. Hive OOM under strict memory
  std::string failure;        // status text when failed
  StatusCode failure_code = StatusCode::kOk;  // code behind `failure`
  /// Real host wall-clock of the algorithm run alone — no generation or
  /// setup cost — as opposed to `total_seconds`, the *simulated* cluster
  /// time. Reported side by side in the emitted JSON so threading speedups
  /// (wall) can be read against the cost model (simulated), which is
  /// bit-identical at any thread count.
  double wall_seconds = 0;
  /// Host threads the engine's work-stealing pool actually used.
  int threads = 1;
  double total_seconds = 0;
  double map_max_seconds = 0;
  double map_avg_seconds = 0;
  double reduce_max_seconds = 0;
  double reduce_avg_seconds = 0;
  int64_t map_output_records = 0;
  int64_t map_output_bytes = 0;
  int64_t shuffle_bytes = 0;
  int64_t spill_bytes = 0;
  int64_t output_records = 0;
  double reducer_imbalance = 1.0;
  int64_t sketch_bytes = 0;   // SP-Cube only
  int64_t sketch_skews = 0;   // SP-Cube only
};

/// Runs one algorithm without collecting output and converts its metrics.
AlgoResult RunOne(CubeAlgorithm& algorithm, Engine& engine,
                  const Relation& input);

/// The paper's competitor set: SP-Cube, MR-Cube (Pig) and Hive, plus the
/// naive Algorithm 1 as an extra reference series. Each run uses a fresh
/// engine over a fresh DFS with the standard cluster config, executed on
/// `host_threads` pool threads (kHostThreadsAuto: one per host core — the
/// default fast path; pass ParseThreads' result to honor --threads=N).
std::vector<AlgoResult> RunCompetitors(
    const Relation& input, int k,
    int host_threads = EngineConfig::kHostThreadsAuto);

/// Pretty-printing helpers: one table per figure panel, one column per
/// algorithm, one row per sweep point.
class SeriesTable {
 public:
  SeriesTable(std::string title, std::string x_label,
              std::vector<std::string> column_names);

  void AddRow(const std::string& x, const std::vector<std::string>& cells);
  void Print() const;

 private:
  std::string title_;
  std::string x_label_;
  std::vector<std::string> columns_;
  std::vector<std::pair<std::string, std::vector<std::string>>> rows_;
};

/// Keeps benchmark binaries honest about errors: every AlgoResult flows
/// through Note(), failures are echoed to stderr (a FAIL table cell alone
/// is too easy to miss in CI logs), and mains return ExitCode() instead
/// of a blanket 0. A competitor running out of memory under the strict
/// budget is modeled figure content (the paper's Hive does exactly that)
/// and stays exit-clean; any other failure — and any SP-Cube failure —
/// is a broken reproduction and must fail the binary.
class FailureAudit {
 public:
  void Note(const AlgoResult& result);
  void NoteAll(const std::vector<AlgoResult>& results);

  /// 0 when every noted run either succeeded or was an expected
  /// competitor OOM; 1 otherwise.
  int ExitCode() const { return unexpected_failures_ > 0 ? 1 : 0; }

 private:
  int unexpected_failures_ = 0;
};

std::string FormatSeconds(double seconds);
std::string FormatBytes(int64_t bytes);
std::string FormatCount(int64_t count);

/// Parses "--scale=<float>" from argv (default 1.0); benchmark sizes are
/// multiplied by it so users can cheaply smoke-test or crank up fidelity.
double ParseScale(int argc, char** argv);

/// Parses "--threads=<N>" from argv: the number of host threads the
/// engine's work-stealing pool runs on. Default (flag absent or invalid):
/// one thread per host core. 0 and 1 both mean fully serial.
int ParseThreads(int argc, char** argv);

/// Accumulates one benchmark's machine-readable summary in the shape
/// tools/validate_bench_json.py checks: top-level scalars for run
/// parameters, one results row per (algorithm, sweep point). Shared by the
/// figure benches so each main doesn't hand-roll a JSON writer.
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name);

  /// Top-level run parameter (scale, threads, host cores, ...).
  void AddParam(const std::string& key, double value);
  void AddParam(const std::string& key, int64_t value);

  /// One result row: `name` must be unique per row (convention:
  /// "<algorithm>/<x-label>=<x>"). Failed runs are recorded with
  /// failed=true and no timing fields.
  void AddResult(const std::string& name, const AlgoResult& result);

  /// Extra numeric field on the most recently added result row (e.g. a
  /// speedup computed against another row).
  void AddResultField(const std::string& key, double value);

  /// Writes the document; returns false (with a stderr note) on I/O error.
  /// No-op returning true when `path` is empty (no --emit-json given).
  bool WriteTo(const std::string& path) const;

 private:
  struct Row {
    std::string name;
    std::vector<std::pair<std::string, std::string>> fields;  // key, literal
  };
  std::string bench_name_;
  std::vector<std::pair<std::string, std::string>> params_;  // key, literal
  std::vector<Row> rows_;
};

/// Parses "--emit-json=<path>" from argv; empty string when absent. The
/// emitted file must satisfy tools/validate_bench_json.py: a top-level
/// object with a "bench" name and a non-empty "results" array of {name,
/// numeric fields...} rows.
std::string ParseEmitJsonPath(int argc, char** argv);

inline int64_t Scaled(int64_t base, double scale) {
  return static_cast<int64_t>(static_cast<double>(base) * scale);
}

}  // namespace bench
}  // namespace spcube

#endif  // SPCUBE_BENCH_BENCH_UTIL_H_
