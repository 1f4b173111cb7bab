// SP-Cube benchmark harness: runs one workload for a fixed time budget,
// checks the cube against the naive oracle, and prints every metric by name
// with its unit and a measured/modeled label. The last line of standard
// output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of a
// separate traced run (--trace 1). README.md in this directory documents
// every metric, workload and self-check.
//
// Usage:
//   spcube_perfbench --workload <uniform|wiki-skew|drift-stale|pig-wiki>
//                    --seed <n> --seconds <s> --trace <0|1>
// Exit status: 0 when every check passed, 1 when a cube, determinism,
// fidelity or harness self-check failed (the JSON line is still printed,
// with "correct": false), 2 on a usage error (no JSON line).

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/mrcube.h"
#include "bench_util.h"
#include "common/task_pool.h"
#include "core/sp_cube.h"
#include "cube/cube_result.h"
#include "io/dfs.h"
#include "relation/generators.h"
#include "stats.h"
#include "traced_spcube.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
constexpr char kCompiler[] = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr char kCompiler[] = "g++ " __VERSION__;
#else
constexpr char kCompiler[] = "unknown";
#endif

namespace spcube {
namespace perfbench {
namespace {

constexpr int64_t kRows = 200000;  // n, every workload
constexpr int kMachines = 16;      // k simulated machines
/// T = nproc / 2, clamped to [1, kMaxThreads]. On a shared virtual host
/// the cores it grants come and go: on a 4-core VM, a pool on all 4 cores
/// ran 2x slower for minutes while serial runs slowed 10%. Half the cores
/// stay free to absorb that.
constexpr int kMaxThreads = 4;
constexpr int kGenerationReps = 3;
/// The drift-stale sketch models a fixed "yesterday" batch; --seed draws
/// "today's" batch. Seeding yesterday from --seed as well would let the
/// stale sketch's range boundaries land on either side of the new hot keys
/// from seed to seed, and the fat partition (and with it every timing of
/// the workload) would swing by 1.7x between seeds.
constexpr uint64_t kDriftHistorySeed = 20160626;
/// thread_speedup above T is impossible; the allowance covers timing noise
/// when T = 1 makes serial and threaded runs the same configuration.
constexpr double kSpeedupNoiseAllowance = 1.05;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ---- Command line -----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return std::nullopt;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || args.seconds <= 0) {
        return std::nullopt;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload) return std::nullopt;
  return args;
}

// ---- Workloads --------------------------------------------------------------

struct Workload {
  Relation input;
  /// Older batch the sketch is built from (drift-stale only).
  std::optional<Relation> sketch_input;
  bool strict_reducer_memory = false;
  bool mrcube = false;
};

bool IsWorkload(const std::string& name) {
  return name == "uniform" || name == "wiki-skew" || name == "drift-stale" ||
         name == "pig-wiki";
}

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "uniform") {
    return Workload{GenUniform(kRows, 4, 1000, seed), std::nullopt, false,
                    false};
  }
  if (name == "wiki-skew" || name == "pig-wiki") {
    return Workload{GenWikiLike(kRows, seed), std::nullopt, false,
                    name == "pig-wiki"};
  }
  if (name == "drift-stale") {
    const DriftSpec drift;  // batch 0 -> batch 1: exponent 0.6 -> 1.4
    return Workload{GenDriftBatch(drift, 1, kRows, seed),
                    GenDriftBatch(drift, 0, kRows, kDriftHistorySeed), true,
                    false};
  }
  return std::nullopt;
}

EngineConfig ClusterConfig(const Workload& workload, int threads) {
  EngineConfig config = bench::MakeClusterConfig(
      workload.input.num_rows(), workload.input.num_dims(), kMachines);
  config.host_threads = threads;
  return config;
}

struct Sample {
  double wall_s = 0;
  RunMetrics metrics;
  std::unique_ptr<CubeResult> cube;
};

/// One untraced cube run on a fresh engine and DFS. Wall time brackets the
/// algorithm call alone.
Result<Sample> RunCube(const Workload& workload, int threads,
                       bool collect_output) {
  DistributedFileSystem dfs;
  Engine engine(ClusterConfig(workload, threads), &dfs);
  CubeRunOptions options;
  options.collect_output = collect_output;
  const auto start = std::chrono::steady_clock::now();
  Result<CubeRunOutput> out = Status::OK();
  if (workload.mrcube) {
    MrCubeAlgorithm algorithm;
    out = algorithm.Run(engine, workload.input, options);
  } else {
    SpCubeOptions sp_options;
    sp_options.strict_reducer_memory = workload.strict_reducer_memory;
    SpCubeAlgorithm algorithm(sp_options);
    out = workload.sketch_input
              ? algorithm.RunWithSketchFrom(engine, *workload.sketch_input,
                                            workload.input, options)
              : algorithm.Run(engine, workload.input, options);
  }
  Sample sample;
  sample.wall_s = SecondsSince(start);
  if (!out.ok()) return out.status();
  sample.metrics = std::move(out->metrics);
  sample.cube = std::move(out->cube);
  return sample;
}

Result<TracedRun> RunTraced(const Workload& workload, int threads) {
  DistributedFileSystem dfs;
  Engine engine(ClusterConfig(workload, threads), &dfs);
  const Relation& sketch_input =
      workload.sketch_input ? *workload.sketch_input : workload.input;
  return RunTracedSpCube(engine, sketch_input, workload.input,
                         workload.strict_reducer_memory);
}

// ---- Deterministic metrics --------------------------------------------------

/// Every metric the engine promises to reproduce bit-for-bit at any thread
/// count (docs/INTERNALS.md §12), flattened to (name, value) pairs.
using Fingerprint = std::vector<std::pair<std::string, int64_t>>;

Fingerprint Deterministic(const RunMetrics& metrics) {
  Fingerprint out;
  for (size_t r = 0; r < metrics.rounds.size(); ++r) {
    const JobMetrics& round = metrics.rounds[r];
    const std::string p = "round" + std::to_string(r) + ".";
    out.emplace_back(p + "map_output_records", round.map_output_records);
    out.emplace_back(p + "map_output_bytes", round.map_output_bytes);
    out.emplace_back(p + "shuffle_records", round.shuffle_records);
    out.emplace_back(p + "shuffle_bytes", round.shuffle_bytes);
    out.emplace_back(p + "combine_input_records", round.combine_input_records);
    out.emplace_back(p + "combine_output_records",
                     round.combine_output_records);
    out.emplace_back(p + "spill_bytes", round.spill_bytes);
    out.emplace_back(p + "output_records", round.output_records);
    out.emplace_back(p + "partitions_split", round.reduce_partitions_split);
    out.emplace_back(p + "recovery_rounds", round.recovery_rounds);
    out.emplace_back(p + "recovery_bytes", round.recovery_bytes_reshuffled);
    for (size_t i = 0; i < round.reducer_input_records.size(); ++i) {
      out.emplace_back(p + "reducer_input_records[" + std::to_string(i) + "]",
                       round.reducer_input_records[i]);
    }
    for (const auto& [name, value] : round.custom_counters) {
      out.emplace_back(p + name, value);
    }
  }
  return out;
}

/// Empty when equal, else a description of the first difference.
std::string Diff(const Fingerprint& expected, const Fingerprint& actual) {
  const size_t n = std::max(expected.size(), actual.size());
  for (size_t i = 0; i < n; ++i) {
    if (i >= expected.size() || i >= actual.size()) {
      return "metric count differs (" + std::to_string(expected.size()) +
             " vs " + std::to_string(actual.size()) + ")";
    }
    if (expected[i] != actual[i]) {
      return expected[i].first + "=" + std::to_string(expected[i].second) +
             " vs " + actual[i].first + "=" + std::to_string(actual[i].second);
    }
  }
  return "";
}

std::string SerializeFingerprint(const Fingerprint& fingerprint) {
  std::string out;
  for (const auto& [name, value] : fingerprint) {
    out += name + " " + std::to_string(value) + "\n";
  }
  return out;
}

Fingerprint ParseFingerprint(const std::string& text) {
  Fingerprint out;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t end = text.find('\n', pos);
    const std::string line =
        text.substr(pos, end == std::string::npos ? end : end - pos);
    pos = end == std::string::npos ? text.size() : end + 1;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out.emplace_back(line.substr(0, space),
                     std::strtoll(line.c_str() + space + 1, nullptr, 10));
  }
  return out;
}

// ---- Correctness gate -------------------------------------------------------

struct OracleCheck {
  bool ok = false;
  std::string detail;
  Fingerprint fingerprint;  // of the output-collecting run
};

/// Computes ComputeCubeReference and compares one output-collecting run
/// with it in a forked child, so the oracle's hash tables never count
/// towards the parent's peak RSS. Call only while the process runs no
/// other threads (engine pools live only inside a run).
OracleCheck CheckAgainstOracle(const Workload& workload, int threads) {
  OracleCheck check;
  int fds[2];
  if (pipe(fds) != 0) {
    check.detail = "pipe() failed";
    return check;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    check.detail = "fork() failed";
    return check;
  }
  if (pid == 0) {
    close(fds[0]);
    // The single-threaded oracle overlaps the output-collecting run.
    CubeResult reference(workload.input.num_dims());
    std::thread oracle([&workload, &reference] {
      reference = ComputeCubeReference(workload.input, AggregateKind::kCount);
    });
    Result<Sample> run = RunCube(workload, threads, /*collect_output=*/true);
    oracle.join();
    std::string report;
    if (!run.ok()) {
      report = "error " + run.status().ToString() + "\n";
    } else if (run->cube == nullptr) {
      report = "error run returned no cube\n";
    } else {
      std::string diff;
      if (CubeResult::ApproxEqual(reference, *run->cube, 1e-9, &diff)) {
        report = "ok " + std::to_string(reference.num_groups()) +
                 " groups match\n" +
                 SerializeFingerprint(Deterministic(run->metrics));
      } else {
        for (char& c : diff) {
          if (c == '\n') c = ' ';
        }
        report = "mismatch " + diff + "\n";
      }
    }
    size_t written = 0;
    while (written < report.size()) {
      const ssize_t w =
          write(fds[1], report.data() + written, report.size() - written);
      if (w <= 0) break;
      written += static_cast<size_t>(w);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  std::string report;
  char buffer[4096];
  for (;;) {
    const ssize_t got = read(fds[0], buffer, sizeof(buffer));
    if (got <= 0) break;
    report.append(buffer, static_cast<size_t>(got));
  }
  close(fds[0]);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  const size_t eol = report.find('\n');
  const std::string head = report.substr(0, eol);
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    check.detail = "oracle child died (" + head + ")";
    return check;
  }
  check.ok = head.rfind("ok ", 0) == 0;
  check.detail = head;
  if (check.ok && eol != std::string::npos) {
    check.fingerprint = ParseFingerprint(report.substr(eol + 1));
  }
  return check;
}

// ---- Per-run measurements ---------------------------------------------------

/// Σ per-machine busy seconds of both phases over all rounds: thread CPU
/// time in threaded runs, wall time in serial ones (engine.cc).
double TaskCpuSeconds(const RunMetrics& metrics) {
  double sum = 0;
  for (const JobMetrics& round : metrics.rounds) {
    sum += round.map_phase.SumSeconds() + round.reduce_phase.SumSeconds();
  }
  return sum;
}

double MapCpuSeconds(const RunMetrics& metrics) {
  double sum = 0;
  for (const JobMetrics& round : metrics.rounds) {
    sum += round.map_phase.SumSeconds();
  }
  return sum;
}

double MaxImbalance(const RunMetrics& metrics) {
  double max = 1.0;
  for (const JobMetrics& round : metrics.rounds) {
    max = std::max(max, round.ReducerImbalance());
  }
  return max;
}

int64_t MaxReducerInput(const RunMetrics& metrics) {
  int64_t max = 0;
  for (const JobMetrics& round : metrics.rounds) {
    max = std::max(max, round.MaxReducerInputRecords());
  }
  return max;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Series of per-run values, summarized by median at the end.
using Series = std::map<std::string, std::vector<double>>;

/// The configurations a timed loop interleaves.
enum class Config { kThreaded, kSerial, kTraced };

/// The i-th run of a schedule that repeats `cycle`, rotated by one more
/// step each repetition so no configuration always runs first or right
/// after the most expensive one.
Config ScheduleAt(int64_t i, const std::vector<Config>& cycle) {
  const int64_t n = static_cast<int64_t>(cycle.size());
  return cycle[static_cast<size_t>((i + i / n) % n)];
}

/// Ends a timed loop as close to --seconds as the sample lengths allow: a
/// sample is not started when a typical one of its configuration would end
/// more than half its length past the budget. A run then measures about
/// --seconds whether its samples take 0.3 s or 6 s.
class Deadline {
 public:
  explicit Deadline(double seconds)
      : seconds_(seconds), start_(std::chrono::steady_clock::now()) {}

  void Record(Config config, double seconds) {
    durations_[config].push_back(seconds);
  }
  bool Reached(Config next) const {
    const auto it = durations_.find(next);
    const double typical = it == durations_.end() ? 0 : Median(it->second);
    return SecondsSince(start_) + typical / 2 >= seconds_;
  }

 private:
  double seconds_;
  std::chrono::steady_clock::time_point start_;
  std::map<Config, std::vector<double>> durations_;
};

// ---- Report -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string label;  // "measured" or "modeled"
  std::string note;
  bool integer = false;
  bool in_json = true;  // false: printed for reading, not a declared metric
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& label, const std::string& note = "") {
    metrics_.push_back(Metric{name, value, unit, label, note, false, true});
  }
  /// Printed in the table but left out of the JSON line.
  void AddPrintOnly(const std::string& name, double value,
                    const std::string& unit, const std::string& label,
                    const std::string& note) {
    metrics_.push_back(Metric{name, value, unit, label, note, false, false});
  }
  void AddCount(const std::string& name, int64_t value,
                const std::string& label, const std::string& note = "",
                const std::string& unit = "count") {
    metrics_.push_back(Metric{name, static_cast<double>(value), unit, label,
                              note, true, true});
  }

  void PrintTable(const char* title) const {
    std::printf("\n%s\n", title);
    for (const Metric& m : metrics_) {
      std::printf("  %-38s %16s %-6s %-9s %s\n", m.name.c_str(),
                  Format(m, "%.6g").c_str(), m.unit.c_str(), m.label.c_str(),
                  m.note.c_str());
    }
  }

  std::string Json() const {
    std::string out;
    for (const Metric& m : metrics_) {
      if (!m.in_json) continue;
      if (!out.empty()) out += ", ";
      out += "\"" + m.name + "\": {\"value\": " + Format(m, "%.17g") +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return "{" + out + "}";
  }

 private:
  /// Counts print as integers, other values with `float_format`.
  static std::string Format(const Metric& m, const char* float_format) {
    char value[64];
    if (m.integer) {
      std::snprintf(value, sizeof(value), "%" PRId64,
                    static_cast<int64_t>(m.value));
    } else {
      std::snprintf(value, sizeof(value), float_format, m.value);
    }
    return value;
  }

  std::vector<Metric> metrics_;
};

// ---- The harness ------------------------------------------------------------

class Harness {
 public:
  Harness(Args args, int threads) : args_(std::move(args)), threads_(threads) {}

  int Main();

 private:
  /// Generation (median of kGenerationReps), oracle check and warm-up.
  bool Setup();
  /// Times interleaved threaded and serial runs for --seconds.
  void TimedLoop(Report* report);
  /// Per-layer metrics: traced runs interleaved with untraced ones.
  void TracedLoop(Report* report);

  /// Runs one untraced sample, checks it against the reference
  /// fingerprint, and records the failure if any. Empty on failure.
  std::optional<Sample> Measured(int threads);
  void Fail(const std::string& what);

  Args args_;
  int threads_;
  std::optional<Workload> workload_;
  Fingerprint reference_;
  double setup_s_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
};

void Harness::Fail(const std::string& what) {
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  correct_ = false;
}

std::optional<Sample> Harness::Measured(int threads) {
  ++attempted_;
  Result<Sample> sample =
      RunCube(*workload_, threads, /*collect_output=*/false);
  if (!sample.ok()) {
    ++failed_;
    Fail("run at " + std::to_string(threads) +
         " thread(s): " + sample.status().ToString());
    return std::nullopt;
  }
  const std::string diff = Diff(reference_, Deterministic(sample->metrics));
  if (!diff.empty()) {
    ++failed_;
    Fail("run at " + std::to_string(threads) +
         " thread(s) changed a deterministic metric: " + diff);
    return std::nullopt;
  }
  return std::move(sample).value();
}

bool Harness::Setup() {
  std::vector<double> generation_s;
  for (int rep = 0; rep < kGenerationReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    workload_ = MakeWorkload(args_.workload, args_.seed);
    generation_s.push_back(SecondsSince(start));
  }
  const double generation = Median(generation_s);

  const auto oracle_start = std::chrono::steady_clock::now();
  ++attempted_;
  OracleCheck check = CheckAgainstOracle(*workload_, threads_);
  const double oracle_s = SecondsSince(oracle_start);
  std::printf("oracle check: %s (%.3f s)\n", check.detail.c_str(), oracle_s);
  if (!check.ok) {
    ++failed_;
    Fail("cube differs from ComputeCubeReference: " + check.detail);
    return false;
  }
  reference_ = std::move(check.fingerprint);

  // Warm-up: excluded from every timed series.
  const auto warm_start = std::chrono::steady_clock::now();
  std::optional<Sample> warm = Measured(threads_);
  const double warm_s = SecondsSince(warm_start);
  if (!warm) return false;
  setup_s_ = generation + oracle_s + warm_s;
  std::printf("setup: generation %.4f s (median of %d), oracle check %.3f s, "
              "warm-up %.3f s\n",
              generation, kGenerationReps, oracle_s, warm_s);
  return true;
}

void Harness::TimedLoop(Report* report) {
  std::vector<double> threaded_wall, serial_wall, modeled;
  int64_t shuffle_bytes = 0;
  double imbalance = 1.0;
  // As many serial samples as threaded ones: thread_speedup needs a serial
  // median as steady as cube_s.
  const std::vector<Config> cycle = {Config::kThreaded, Config::kSerial};
  Deadline deadline(args_.seconds);
  for (int64_t i = 0; correct_; ++i) {
    const Config config = ScheduleAt(i, cycle);
    if (threaded_wall.size() >= 3 && serial_wall.size() >= 3 &&
        deadline.Reached(config)) {
      break;
    }
    const bool serial = config == Config::kSerial;
    const auto sample_start = std::chrono::steady_clock::now();
    std::optional<Sample> sample = Measured(serial ? 1 : threads_);
    if (!sample) break;
    deadline.Record(config, SecondsSince(sample_start));
    (serial ? serial_wall : threaded_wall).push_back(sample->wall_s);
    if (!serial) modeled.push_back(sample->metrics.TotalSeconds());
    shuffle_bytes = sample->metrics.ShuffleBytes();
    imbalance = MaxImbalance(sample->metrics);
  }
  if (threaded_wall.empty() || serial_wall.empty()) return;

  const Quartiles cube = ComputeQuartiles(threaded_wall);
  const Quartiles serial = ComputeQuartiles(serial_wall);
  const TailSample tail = ComputeTail(threaded_wall);
  const double speedup = serial.median / cube.median;
  if (speedup > threads_ * kSpeedupNoiseAllowance) {
    Fail("thread_speedup " + std::to_string(speedup) + " exceeds T=" +
         std::to_string(threads_) + ": harness bug");
  }

  char note[160];
  std::snprintf(note, sizeof(note), "median of %zu, IQR %.1f%%",
                threaded_wall.size(), 100 * cube.RelativeSpread());
  report->Add("cube_s", cube.median, "s", "measured", note);
  std::snprintf(note, sizeof(note),
                "p%.1f of %" PRId64 " samples, %" PRId64 " beyond%s",
                tail.percentile, tail.samples, tail.beyond,
                tail.at_median ? " (< 22 samples: floored at the median)"
                               : "");
  report->Add("cube_s_tail", tail.value, "s", "measured", note);
  report->Add("rows_per_s", static_cast<double>(kRows) / cube.median, "1/s",
              "measured", "n / cube_s");
  // serial_s = cube_s x thread_speedup, and both factors are bounded. On
  // its own it measures one core of a shared host, whose speed swings by
  // +-25% from sample to sample, so it is the per-layer pool.serial_s.
  std::snprintf(note, sizeof(note),
                "median of %zu, IQR %.1f%%; pool.serial_s in the JSON",
                serial_wall.size(), 100 * serial.RelativeSpread());
  report->AddPrintOnly("serial_s", serial.median, "s", "measured", note);
  std::snprintf(note, sizeof(note), "serial_s / cube_s at T=%d", threads_);
  report->Add("thread_speedup", speedup, "x", "measured", note);
  report->Add("modeled_s", Median(modeled), "s", "modeled",
              "median RunMetrics::TotalSeconds, threaded runs");
  report->AddCount("shuffle_bytes", shuffle_bytes, "modeled",
                   "all rounds, identical in every run", "bytes");
  report->Add("peak_rss_mb", PeakRssMb(), "MB", "measured",
              "harness process; the oracle runs in a child");
  report->Add("setup_s", setup_s_, "s", "measured",
              "generation + oracle check + warm-up");
  report->AddPrintOnly("reducer_imbalance", imbalance, "x", "modeled",
                       "max over rounds; seed-sensitive, so a per-layer "
                       "metric in the JSON");
}

void Harness::TracedLoop(Report* report) {
  const bool traceable = !workload_->mrcube;
  Series series;
  std::vector<double> untraced_wall, traced_wall, cpu_threaded, cpu_serial;
  RunMetrics last;
  TracedRun last_traced;

  auto check_fidelity = [&](const TracedRun& traced, int threads) {
    const std::string diff = Diff(reference_, Deterministic(traced.metrics));
    if (!diff.empty()) {
      ++failed_;
      Fail("traced rebuild at " + std::to_string(threads) +
           " thread(s) drifted from core/sp_cube.cc: " + diff);
      return false;
    }
    return true;
  };

  if (traceable) {
    // Fidelity at 1 thread once; every threaded traced run is checked too.
    ++attempted_;
    Result<TracedRun> serial = RunTraced(*workload_, 1);
    if (!serial.ok()) {
      ++failed_;
      Fail("traced serial run: " + serial.status().ToString());
      return;
    }
    if (!check_fidelity(*serial, 1)) return;
  }

  std::vector<Config> cycle = {Config::kThreaded, Config::kSerial};
  if (traceable) cycle.push_back(Config::kTraced);
  Deadline deadline(args_.seconds);
  for (int64_t i = 0; correct_; ++i) {
    const Config config = ScheduleAt(i, cycle);
    if (untraced_wall.size() >= 3 && cpu_serial.size() >= 3 &&
        (!traceable || traced_wall.size() >= 3) && deadline.Reached(config)) {
      break;
    }
    const auto sample_start = std::chrono::steady_clock::now();
    if (config == Config::kTraced) {
      ++attempted_;
      Result<TracedRun> traced = RunTraced(*workload_, threads_);
      if (!traced.ok()) {
        ++failed_;
        Fail("traced run: " + traced.status().ToString());
        break;
      }
      if (!check_fidelity(*traced, threads_)) break;
      deadline.Record(config, SecondsSince(sample_start));
      traced_wall.push_back(traced->wall_s);
      const LayerTotals& l = traced->layers;
      series["core.reduce_range_self_s"].push_back(
          l.SelfSeconds(Layer::kReduceRange));
      series["core.reduce_skew_s"].push_back(
          l.SelfSeconds(Layer::kReduceSkew));
      series["core.map_walk_self_s"].push_back(
          l.SelfSeconds(Layer::kMapWalk));
      series["core.map_finish_s"].push_back(
          l.SelfSeconds(Layer::kMapFinish));
      series["core.task_setup_s"].push_back(
          l.TotalSeconds(Layer::kTaskSetup));
      series["mapreduce.emit_s"].push_back(l.SelfSeconds(Layer::kEmit));
      series["mapreduce.partition_s"].push_back(
          l.TotalSeconds(Layer::kPartition));
      series["mapreduce.value_next_s"].push_back(
          l.TotalSeconds(Layer::kValueNext));
      series["mapreduce.output_s"].push_back(l.TotalSeconds(Layer::kOutput));
      series["mapreduce.engine_self_s"].push_back(
          threads_ * traced->wall_s - l.TopLevelSeconds());
      series["sketch.round_s"].push_back(traced->sketch_round_s);
      last_traced = std::move(traced).value();
      continue;
    }
    const bool serial = config == Config::kSerial;
    std::optional<Sample> sample = Measured(serial ? 1 : threads_);
    if (!sample) break;
    deadline.Record(config, SecondsSince(sample_start));
    const double cpu = TaskCpuSeconds(sample->metrics);
    if (serial) {
      cpu_serial.push_back(cpu);
      series["pool.serial_s"].push_back(sample->wall_s);
      continue;
    }
    untraced_wall.push_back(sample->wall_s);
    cpu_threaded.push_back(cpu);
    series["pool.busy_frac"].push_back(cpu / (threads_ * sample->wall_s));
    series["mapreduce.map_cpu_s"].push_back(MapCpuSeconds(sample->metrics));
    series["mapreduce.reduce_max_s"].push_back(
        sample->metrics.ReduceSeconds());
    last = std::move(sample->metrics);
  }
  if (!correct_ || untraced_wall.empty()) return;

  auto median_of = [&](const char* name) { return Median(series[name]); };
  const char* n_a = traceable ? "" : "n/a: MR-Cube tasks are internal";

  report->Add("core.reduce_range_self_s", median_of("core.reduce_range_self_s"),
              "s", "measured", traceable ? "Reduce span - Next - Output" : n_a);
  report->Add("core.reduce_skew_s", median_of("core.reduce_skew_s"), "s",
              "measured", traceable ? "skew reducer self time" : n_a);
  report->Add("core.map_walk_self_s", median_of("core.map_walk_self_s"), "s",
              "measured", traceable ? "Map span - Emit" : n_a);
  report->Add("core.map_finish_s", median_of("core.map_finish_s"), "s",
              "measured", traceable ? "Finish span - Emit" : n_a);
  report->Add("core.task_setup_s", median_of("core.task_setup_s"), "s",
              "measured", traceable ? "sketch broadcast load" : n_a);
  report->AddCount("core.lattice_nodes_visited",
                   last.CustomCounter("spcube.lattice_nodes_visited"),
                   "modeled");
  report->AddCount("core.skew_tuple_aggregations",
                   last.CustomCounter("spcube.skew_tuple_aggregations"),
                   "modeled");
  report->AddCount("core.minimal_group_emits",
                   last.CustomCounter("spcube.minimal_group_emits"), "modeled");

  int64_t emits = 0;
  int64_t combine_in = 0;
  int64_t combine_out = 0;
  for (const JobMetrics& round : last.rounds) {
    emits += round.map_output_records;
    combine_in += round.combine_input_records;
    combine_out += round.combine_output_records;
  }
  report->Add("mapreduce.emit_s", median_of("mapreduce.emit_s"), "s",
              "measured", traceable ? "Emit span - Partition" : n_a);
  report->Add("mapreduce.partition_s", median_of("mapreduce.partition_s"), "s",
              "measured", n_a);
  report->AddCount("mapreduce.emit_calls", emits, "modeled",
                   "map output records, all rounds");
  report->Add("mapreduce.value_next_s", median_of("mapreduce.value_next_s"),
              "s", "measured", n_a);
  report->Add("mapreduce.output_s", median_of("mapreduce.output_s"), "s",
              "measured", n_a);
  report->AddCount("mapreduce.spill_bytes", last.SpillBytes(), "modeled", "",
                   "bytes");
  report->Add("mapreduce.reduce_max_s", median_of("mapreduce.reduce_max_s"),
              "s", "modeled", "sum over rounds of the slowest reducer");
  report->AddCount("mapreduce.max_reducer_input_records",
                   MaxReducerInput(last), "modeled");
  report->Add("mapreduce.reducer_imbalance", MaxImbalance(last), "x",
              "modeled", "max over rounds of max/avg reducer input");
  report->AddCount("mapreduce.partitions_split", last.ReducePartitionsSplit(),
                   "modeled");
  report->AddCount("mapreduce.recovery_rounds", last.RecoveryRounds(),
                   "modeled");
  report->AddCount("mapreduce.recovery_bytes_reshuffled",
                   last.RecoveryBytesReshuffled(), "modeled", "", "bytes");
  char note[160];
  std::snprintf(note, sizeof(note), "%" PRId64 " / %" PRId64
                " records (1 when nothing was combined)",
                combine_out, combine_in);
  report->Add("mapreduce.combine_ratio",
              combine_in > 0 ? static_cast<double>(combine_out) /
                                   static_cast<double>(combine_in)
                             : 1.0,
              "ratio", "modeled", note);
  report->AddCount("mapreduce.combine_input_records", combine_in, "modeled",
                   "base of combine_ratio");
  report->Add("mapreduce.map_cpu_s", median_of("mapreduce.map_cpu_s"), "s",
              "measured", "sum of map task CPU, all rounds");
  report->Add("mapreduce.engine_self_s", median_of("mapreduce.engine_self_s"),
              "s", "measured",
              traceable ? "T x wall - task callback spans" : n_a);

  report->Add("pool.busy_frac", median_of("pool.busy_frac"), "ratio",
              "measured", "sum task CPU / (T x wall)");
  report->Add("pool.cpu_inflation", Median(cpu_threaded) / Median(cpu_serial),
              "ratio", "measured", "sum task CPU at T / at 1 thread");
  report->Add("pool.serial_s", median_of("pool.serial_s"), "s", "measured",
              "median wall of the untraced serial runs");

  report->Add("sketch.round_s", median_of("sketch.round_s"), "s", "measured",
              n_a);
  report->AddCount("sketch.bytes", last_traced.sketch_bytes, "modeled", n_a,
                   "bytes");
  report->AddCount("sketch.skewed_groups", last_traced.sketch_skewed_groups,
                   "modeled", n_a);
  const double overhead =
      traceable ? Median(traced_wall) / Median(untraced_wall) - 1 : 0;
  std::snprintf(note, sizeof(note), "traced %zu / untraced %zu runs",
                traced_wall.size(), untraced_wall.size());
  report->Add("trace.overhead_frac", overhead, "ratio", "measured",
              traceable ? note : "n/a: no traced run");
}

int Harness::Main() {
  std::printf(
      "host: nproc=%d compiler=\"%s\" build=%s | workload=%s n=%" PRId64
      " k=%d T=%d seed=%" PRIu64 " seconds=%g trace=%d\n",
      TaskPool::HostThreads(), kCompiler, PERFBENCH_BUILD_TYPE,
      args_.workload.c_str(), kRows, kMachines, threads_, args_.seed,
      args_.seconds, args_.trace ? 1 : 0);

  Report report;
  if (Setup()) {
    if (args_.trace) {
      TracedLoop(&report);
    } else {
      TimedLoop(&report);
    }
  }
  report.AddPrintOnly("failed_ops", static_cast<double>(failed_), "count",
                      "measured",
                      "of " + std::to_string(attempted_) + " ops attempted");
  report.PrintTable(args_.trace ? "per-layer metrics (traced run)"
                                : "end-to-end metrics");

  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": %s}\n",
              correct_ ? "true" : "false", attempted_, failed_,
              report.Json().c_str());
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace spcube

int main(int argc, char** argv) {
  using namespace spcube::perfbench;
  std::optional<Args> args = ParseArgs(argc, argv);
  if (!args || !IsWorkload(args->workload)) {
    std::fprintf(stderr,
                 "usage: %s --workload <uniform|wiki-skew|drift-stale|"
                 "pig-wiki> --seed <n> --seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  const int threads =
      std::clamp(spcube::TaskPool::HostThreads() / 2, 1, kMaxThreads);
  Harness harness(std::move(args).value(), threads);
  return harness.Main();
}
