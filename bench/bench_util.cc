#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <utility>

#include "baselines/hive.h"
#include "baselines/mrcube.h"
#include "baselines/naive.h"
#include "common/task_pool.h"
#include "core/sp_cube.h"

namespace spcube {
namespace bench {

EngineConfig MakeClusterConfig(int64_t num_rows, int num_dims, int k) {
  EngineConfig config;
  config.num_workers = k;
  const int64_t m_tuples = std::max<int64_t>(1, num_rows / k);
  const int64_t row_bytes = static_cast<int64_t>(num_dims + 1) * 8;
  config.memory_budget_bytes = std::max<int64_t>(4096, m_tuples * row_bytes);
  config.network_bandwidth_bytes_per_sec = 100e6;
  // Hadoop job start/stop latency is a few percent of round time at the
  // paper's scale; 20 ms keeps the same ratio against our scaled-down
  // compute times (multi-round algorithms still pay proportionally more).
  config.round_overhead_seconds = 0.02;
  return config;
}

AlgoResult RunOne(CubeAlgorithm& algorithm, Engine& engine,
                  const Relation& input) {
  AlgoResult result;
  result.algorithm = algorithm.name();
  const int configured = engine.config().host_threads;
  result.threads = configured == EngineConfig::kHostThreadsAuto
                       ? TaskPool::HostThreads()
                       : std::max(1, configured);
  CubeRunOptions options;
  options.collect_output = false;
  // Wall-clock brackets the algorithm run alone — input generation, engine
  // construction and result conversion are deliberately outside it.
  const auto wall_start = std::chrono::steady_clock::now();
  auto output = algorithm.Run(engine, input, options);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  if (!output.ok()) {
    result.failed = true;
    result.failure = output.status().ToString();
    result.failure_code = output.status().code();
    return result;
  }
  const RunMetrics& metrics = output->metrics;
  result.total_seconds = metrics.TotalSeconds();
  result.map_max_seconds = metrics.MapSeconds();
  result.map_avg_seconds = metrics.AvgMapSeconds();
  result.reduce_max_seconds = metrics.ReduceSeconds();
  result.reduce_avg_seconds = metrics.AvgReduceSeconds();
  result.map_output_bytes = metrics.MapOutputBytes();
  result.shuffle_bytes = metrics.ShuffleBytes();
  result.spill_bytes = metrics.SpillBytes();
  result.output_records = metrics.OutputRecords();
  for (const JobMetrics& round : metrics.rounds) {
    result.map_output_records += round.map_output_records;
    result.reducer_imbalance =
        std::max(result.reducer_imbalance, round.ReducerImbalance());
  }
  if (auto* sp = dynamic_cast<SpCubeAlgorithm*>(&algorithm)) {
    result.sketch_bytes = sp->last_sketch_bytes();
    result.sketch_skews = sp->last_sketch_skews();
  }
  return result;
}

std::vector<AlgoResult> RunCompetitors(const Relation& input, int k,
                                       int host_threads) {
  EngineConfig config =
      MakeClusterConfig(input.num_rows(), input.num_dims(), k);
  config.host_threads = host_threads;
  std::vector<AlgoResult> results;

  {
    DistributedFileSystem dfs;
    Engine engine(config, &dfs);
    SpCubeAlgorithm sp;
    results.push_back(RunOne(sp, engine, input));
  }
  {
    DistributedFileSystem dfs;
    Engine engine(config, &dfs);
    MrCubeAlgorithm pig;
    results.push_back(RunOne(pig, engine, input));
  }
  {
    DistributedFileSystem dfs;
    Engine engine(config, &dfs);
    HiveCubeAlgorithm hive;
    results.push_back(RunOne(hive, engine, input));
  }
  {
    DistributedFileSystem dfs;
    Engine engine(config, &dfs);
    NaiveCubeAlgorithm naive;
    results.push_back(RunOne(naive, engine, input));
  }
  return results;
}

void FailureAudit::Note(const AlgoResult& result) {
  if (!result.failed) return;
  const bool expected_oom =
      result.algorithm != "sp-cube" &&
      (result.failure_code == StatusCode::kOutOfMemory ||
       result.failure_code == StatusCode::kResourceExhausted);
  if (expected_oom) {
    std::fprintf(stderr, "note: %s failed as modeled (%s)\n",
                 result.algorithm.c_str(), result.failure.c_str());
    return;
  }
  ++unexpected_failures_;
  std::fprintf(stderr, "error: %s run failed: %s\n",
               result.algorithm.c_str(), result.failure.c_str());
}

void FailureAudit::NoteAll(const std::vector<AlgoResult>& results) {
  for (const AlgoResult& result : results) Note(result);
}

SeriesTable::SeriesTable(std::string title, std::string x_label,
                         std::vector<std::string> column_names)
    : title_(std::move(title)),
      x_label_(std::move(x_label)),
      columns_(std::move(column_names)) {}

void SeriesTable::AddRow(const std::string& x,
                         const std::vector<std::string>& cells) {
  rows_.emplace_back(x, cells);
}

void SeriesTable::Print() const {
  std::printf("\n=== %s ===\n", title_.c_str());
  std::printf("%-14s", x_label_.c_str());
  for (const std::string& column : columns_) {
    std::printf(" %16s", column.c_str());
  }
  std::printf("\n");
  for (const auto& [x, cells] : rows_) {
    std::printf("%-14s", x.c_str());
    for (const std::string& cell : cells) {
      std::printf(" %16s", cell.c_str());
    }
    std::printf("\n");
  }
}

std::string FormatSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds);
  return buf;
}

std::string FormatBytes(int64_t bytes) {
  char buf[32];
  if (bytes >= (int64_t{1} << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2fGB",
                  static_cast<double>(bytes) / (1 << 30));
  } else if (bytes >= (1 << 20)) {
    std::snprintf(buf, sizeof(buf), "%.2fMB",
                  static_cast<double>(bytes) / (1 << 20));
  } else if (bytes >= (1 << 10)) {
    std::snprintf(buf, sizeof(buf), "%.2fKB",
                  static_cast<double>(bytes) / (1 << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%lldB", static_cast<long long>(bytes));
  }
  return buf;
}

std::string FormatCount(int64_t count) {
  char buf[32];
  if (count >= 1000000) {
    std::snprintf(buf, sizeof(buf), "%.2fM",
                  static_cast<double>(count) / 1e6);
  } else if (count >= 1000) {
    std::snprintf(buf, sizeof(buf), "%.1fk",
                  static_cast<double>(count) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(count));
  }
  return buf;
}

double ParseScale(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      const double scale = std::atof(argv[i] + 8);
      if (scale > 0) return scale;
    }
  }
  return 1.0;
}

int ParseThreads(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      const int threads = std::atoi(argv[i] + 10);
      if (threads >= 0) return threads;
    }
  }
  return TaskPool::HostThreads();
}

std::string ParseEmitJsonPath(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--emit-json=", 12) == 0) return argv[i] + 12;
  }
  return "";
}

namespace {

std::string JsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

}  // namespace

BenchJson::BenchJson(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

void BenchJson::AddParam(const std::string& key, double value) {
  params_.emplace_back(key, JsonNumber(value));
}

void BenchJson::AddParam(const std::string& key, int64_t value) {
  params_.emplace_back(key, std::to_string(value));
}

void BenchJson::AddResult(const std::string& name, const AlgoResult& result) {
  Row row;
  row.name = name;
  row.fields.emplace_back("failed", result.failed ? "true" : "false");
  row.fields.emplace_back("threads", std::to_string(result.threads));
  if (!result.failed) {
    row.fields.emplace_back("sim_total_seconds",
                            JsonNumber(result.total_seconds));
    row.fields.emplace_back("wall_seconds", JsonNumber(result.wall_seconds));
    row.fields.emplace_back("shuffle_bytes",
                            std::to_string(result.shuffle_bytes));
    row.fields.emplace_back("spill_bytes",
                            std::to_string(result.spill_bytes));
    row.fields.emplace_back("output_records",
                            std::to_string(result.output_records));
  }
  rows_.push_back(std::move(row));
}

void BenchJson::AddResultField(const std::string& key, double value) {
  if (rows_.empty()) return;
  rows_.back().fields.emplace_back(key, JsonNumber(value));
}

bool BenchJson::WriteTo(const std::string& path) const {
  if (path.empty()) return true;
  std::ofstream out(path);
  out << "{\n  \"bench\": \"" << bench_name_ << "\",\n";
  for (const auto& [key, literal] : params_) {
    out << "  \"" << key << "\": " << literal << ",\n";
  }
  out << "  \"results\": [\n";
  for (size_t i = 0; i < rows_.size(); ++i) {
    out << "    {\"name\": \"" << rows_[i].name << "\"";
    for (const auto& [key, literal] : rows_[i].fields) {
      out << ", \"" << key << "\": " << literal;
    }
    out << "}" << (i + 1 < rows_.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: failed to write bench JSON to %s\n",
                 path.c_str());
    return false;
  }
  return true;
}

}  // namespace bench
}  // namespace spcube
