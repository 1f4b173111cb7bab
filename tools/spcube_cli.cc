// spcube_cli — command-line cube computation over CSV files or generated
// workloads, on the simulated MapReduce cluster.
//
// Examples:
//   spcube_cli --input=sales.csv --aggregate=sum --output=cube_out
//   spcube_cli --generate=zipf:100000 --algorithm=mrcube --metrics
//   spcube_cli --generate=binomial:50000:0.4 --iceberg=100 --top=5
//
// Options:
//   --input=FILE        CSV with a header; last column is the measure.
//   --generate=SPEC     synthetic workload instead of a file:
//                         wiki:N | usagov:N | zipf:N | binomial:N:P |
//                         uniform:N:DIMS:DOMAIN
//   --algorithm=NAME    spcube (default) | naive | mrcube | hive | topdown
//   --aggregate=NAME    count (default) | sum | min | max | avg
//   --workers=K         simulated machines (default 8)
//   --iceberg=N         only output groups with count >= N
//   --output=DIR        write one CSV per cuboid into DIR
//   --top=N             print the top-N groups of every cuboid
//   --metrics           print per-round MapReduce metrics
//   --fault-rate=R      inject task failures, stragglers, read errors and
//                       payload corruption at rate R (0 disables; output
//                       stays exact — recovery is reported after the run)
//   --fault-seed=S      seed of the deterministic fault schedule (default 1)
//   --strict-memory     run reducers fully in memory (MemoryPolicy::kStrict)
//                       with adaptive partition-split recovery; supported by
//                       the spcube and hive algorithms
//   --oom-pressure-rate=R
//                       inject memory pressure (shrunken budget) into reduce
//                       attempts at rate R; pair with --strict-memory to
//                       exercise split recovery

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/hive.h"
#include "baselines/mrcube.h"
#include "baselines/naive.h"
#include "baselines/topdown.h"
#include "core/sp_cube.h"
#include "mapreduce/fault.h"
#include "query/cube_store.h"
#include "relation/csv.h"
#include "relation/generators.h"

using namespace spcube;

namespace {

struct Flags {
  std::string input;
  std::string generate;
  std::string algorithm = "spcube";
  std::string aggregate = "count";
  int workers = 8;
  int64_t iceberg = 1;
  std::string output;
  int64_t top = 0;
  bool metrics = false;
  double fault_rate = 0.0;
  uint64_t fault_seed = 1;
  bool strict_memory = false;
  double oom_pressure_rate = 0.0;
};

std::optional<std::string> FlagValue(const char* arg, const char* name) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    return std::string(arg + len + 1);
  }
  return std::nullopt;
}

Result<Flags> ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (auto v = FlagValue(arg, "--input")) {
      flags.input = *v;
    } else if (auto v = FlagValue(arg, "--generate")) {
      flags.generate = *v;
    } else if (auto v = FlagValue(arg, "--algorithm")) {
      flags.algorithm = *v;
    } else if (auto v = FlagValue(arg, "--aggregate")) {
      flags.aggregate = *v;
    } else if (auto v = FlagValue(arg, "--workers")) {
      flags.workers = std::atoi(v->c_str());
    } else if (auto v = FlagValue(arg, "--iceberg")) {
      flags.iceberg = std::atoll(v->c_str());
    } else if (auto v = FlagValue(arg, "--output")) {
      flags.output = *v;
    } else if (auto v = FlagValue(arg, "--top")) {
      flags.top = std::atoll(v->c_str());
    } else if (std::strcmp(arg, "--metrics") == 0) {
      flags.metrics = true;
    } else if (auto v = FlagValue(arg, "--fault-rate")) {
      flags.fault_rate = std::atof(v->c_str());
    } else if (auto v = FlagValue(arg, "--fault-seed")) {
      flags.fault_seed =
          static_cast<uint64_t>(std::strtoull(v->c_str(), nullptr, 10));
    } else if (std::strcmp(arg, "--strict-memory") == 0) {
      flags.strict_memory = true;
    } else if (auto v = FlagValue(arg, "--oom-pressure-rate")) {
      flags.oom_pressure_rate = std::atof(v->c_str());
    } else if (std::strcmp(arg, "--help") == 0) {
      return Status::Cancelled("help");
    } else {
      return Status::InvalidArgument(std::string("unknown flag: ") + arg);
    }
  }
  if (flags.input.empty() == flags.generate.empty()) {
    return Status::InvalidArgument(
        "exactly one of --input or --generate is required");
  }
  if (flags.workers < 1) {
    return Status::InvalidArgument("--workers must be positive");
  }
  if (flags.fault_rate < 0.0 || flags.fault_rate >= 1.0) {
    return Status::InvalidArgument("--fault-rate must be in [0, 1)");
  }
  if (flags.oom_pressure_rate < 0.0 || flags.oom_pressure_rate > 1.0) {
    return Status::InvalidArgument("--oom-pressure-rate must be in [0, 1]");
  }
  return flags;
}

std::vector<std::string> SplitColons(const std::string& spec) {
  std::vector<std::string> parts;
  std::stringstream stream(spec);
  std::string part;
  while (std::getline(stream, part, ':')) parts.push_back(part);
  return parts;
}

Result<Relation> Generate(const std::string& spec) {
  const std::vector<std::string> parts = SplitColons(spec);
  if (parts.size() < 2) {
    return Status::InvalidArgument("bad --generate spec: " + spec);
  }
  const std::string& kind = parts[0];
  const int64_t n = std::atoll(parts[1].c_str());
  if (n <= 0) return Status::InvalidArgument("bad row count in: " + spec);
  const uint64_t seed = 20260705;
  if (kind == "wiki") return GenWikiLike(n, seed);
  if (kind == "usagov") {
    return ProjectDims(GenUsaGovLike(n, seed), {0, 1, 2, 3});
  }
  if (kind == "zipf") return GenZipfPaper(n, seed);
  if (kind == "binomial") {
    const double p = parts.size() > 2 ? std::atof(parts[2].c_str()) : 0.25;
    return GenBinomial(n, 4, p, seed);
  }
  if (kind == "uniform") {
    const int dims = parts.size() > 2 ? std::atoi(parts[2].c_str()) : 4;
    const int64_t domain =
        parts.size() > 3 ? std::atoll(parts[3].c_str()) : 1000;
    return GenUniform(n, dims, domain, seed);
  }
  return Status::InvalidArgument("unknown generator: " + kind);
}

Result<std::unique_ptr<CubeAlgorithm>> MakeAlgorithm(
    const std::string& name, bool strict_memory) {
  if (name == "spcube") {
    SpCubeOptions options;
    options.strict_reducer_memory = strict_memory;
    return {std::make_unique<SpCubeAlgorithm>(options)};
  }
  if (name == "hive") {
    HiveCubeOptions options;
    options.strict_reducer_memory = strict_memory;
    options.allow_split_recovery = strict_memory;
    return {std::make_unique<HiveCubeAlgorithm>(options)};
  }
  if (strict_memory) {
    return Status::InvalidArgument(
        "--strict-memory is only supported by the spcube and hive "
        "algorithms");
  }
  if (name == "naive") return {std::make_unique<NaiveCubeAlgorithm>()};
  if (name == "mrcube") return {std::make_unique<MrCubeAlgorithm>()};
  if (name == "topdown") return {std::make_unique<TopDownCubeAlgorithm>()};
  return Status::InvalidArgument("unknown algorithm: " + name);
}

std::string CellLabel(const GroupKey& key, const Schema& schema,
                      const std::vector<Dictionary>* dictionaries) {
  std::string out = "(";
  size_t vi = 0;
  for (int d = 0; d < schema.num_dims(); ++d) {
    if (d > 0) out += ", ";
    if ((key.mask >> d) & 1) {
      const int64_t code = key.values[vi++];
      if (dictionaries != nullptr) {
        auto decoded = (*dictionaries)[static_cast<size_t>(d)].Decode(code);
        out += decoded.ok() ? decoded.value() : std::to_string(code);
      } else {
        out += std::to_string(code);
      }
    } else {
      out += "*";
    }
  }
  out += ")";
  return out;
}

std::string CuboidFileName(CuboidMask mask, const Schema& schema) {
  if (mask == 0) return "cuboid_apex.csv";
  std::string name = "cuboid";
  for (int d = 0; d < schema.num_dims(); ++d) {
    if ((mask >> d) & 1) name += "_" + schema.dimension_name(d);
  }
  return name + ".csv";
}

Status WriteCuboids(const CubeStore& store, const Schema& schema,
                    const std::vector<Dictionary>* dictionaries,
                    const std::string& aggregate, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create output dir: " + dir);
  for (CuboidMask mask = 0;
       mask < static_cast<CuboidMask>(NumCuboids(schema.num_dims()));
       ++mask) {
    const std::vector<CubeCell>& cells = store.Cuboid(mask);
    std::ofstream file(dir + "/" + CuboidFileName(mask, schema));
    if (!file) return Status::IoError("cannot open output file");
    for (int d = 0; d < schema.num_dims(); ++d) {
      if ((mask >> d) & 1) file << schema.dimension_name(d) << ",";
    }
    file << aggregate << "(" << schema.measure_name() << ")\n";
    for (const CubeCell& cell : cells) {
      size_t vi = 0;
      for (int d = 0; d < schema.num_dims(); ++d) {
        if (((mask >> d) & 1) == 0) continue;
        const int64_t code = cell.key.values[vi++];
        if (dictionaries != nullptr) {
          auto decoded =
              (*dictionaries)[static_cast<size_t>(d)].Decode(code);
          file << (decoded.ok() ? decoded.value() : std::to_string(code));
        } else {
          file << code;
        }
        file << ",";
      }
      file << cell.value << "\n";
    }
    // ofstream swallows write errors into stream state; surface them so
    // a truncated cuboid (disk full, quota) fails the CLI instead of
    // exiting 0 with silently short output.
    file.flush();
    if (!file) {
      return Status::IoError("short write on " +
                             CuboidFileName(mask, schema));
    }
  }
  return Status::OK();
}

int RealMain(int argc, char** argv) {
  auto flags_or = ParseFlags(argc, argv);
  if (!flags_or.ok()) {
    if (flags_or.status().code() != StatusCode::kCancelled) {
      std::fprintf(stderr, "error: %s\n",
                   flags_or.status().message().c_str());
    }
    std::fprintf(stderr,
                 "usage: spcube_cli (--input=FILE | --generate=SPEC) "
                 "[--algorithm=A] [--aggregate=F] [--workers=K] "
                 "[--iceberg=N] [--output=DIR] [--top=N] [--metrics] "
                 "[--fault-rate=R] [--fault-seed=S] [--strict-memory] "
                 "[--oom-pressure-rate=R]\n");
    return flags_or.status().code() == StatusCode::kCancelled ? 0 : 2;
  }
  const Flags& flags = *flags_or;

  // --- Input ---------------------------------------------------------------
  std::optional<EncodedRelation> encoded;
  std::optional<Relation> generated;
  if (!flags.input.empty()) {
    std::ifstream file(flags.input);
    if (!file) {
      std::fprintf(stderr, "error: cannot read %s\n", flags.input.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    auto loaded = LoadCsv(buffer.str());
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   loaded.status().ToString().c_str());
      return 2;
    }
    encoded = std::move(loaded).value();
  } else {
    auto gen = Generate(flags.generate);
    if (!gen.ok()) {
      std::fprintf(stderr, "error: %s\n", gen.status().ToString().c_str());
      return 2;
    }
    generated = std::move(gen).value();
  }
  const Relation& relation =
      encoded.has_value() ? encoded->relation : *generated;
  const std::vector<Dictionary>* dictionaries =
      encoded.has_value() ? &encoded->dictionaries : nullptr;

  std::printf("relation: %s, %lld rows\n",
              relation.schema().ToString().c_str(),
              static_cast<long long>(relation.num_rows()));

  // --- Run -------------------------------------------------------------------
  auto aggregate = AggregateKindFromName(flags.aggregate);
  if (!aggregate.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 aggregate.status().ToString().c_str());
    return 2;
  }
  auto algorithm = MakeAlgorithm(flags.algorithm, flags.strict_memory);
  if (!algorithm.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 algorithm.status().ToString().c_str());
    return 2;
  }

  DistributedFileSystem dfs;
  EngineConfig cluster;
  cluster.num_workers = flags.workers;
  cluster.memory_budget_bytes = std::max<int64_t>(
      1 << 16, relation.num_rows() / flags.workers *
                   (relation.num_dims() + 1) * 8);
  FaultConfig chaos;
  chaos.seed = flags.fault_seed;
  chaos.map_failure_rate = flags.fault_rate;
  chaos.reduce_failure_rate = flags.fault_rate;
  chaos.straggler_rate = flags.fault_rate;
  chaos.dfs_read_error_rate = flags.fault_rate / 2;
  chaos.payload_corruption_rate = flags.fault_rate;
  chaos.forced_worker_crashes =
      flags.fault_rate >= 0.05 && flags.workers > 1 ? 1 : 0;
  chaos.oom_pressure_rate = flags.oom_pressure_rate;
  FaultPlan plan(chaos);
  if (flags.fault_rate > 0.0 || flags.oom_pressure_rate > 0.0) {
    cluster.fault_plan = &plan;
    cluster.min_task_attempts = 3;
    cluster.retry_backoff_seconds = 0.05;
  }
  Engine engine(cluster, &dfs);

  CubeRunOptions options;
  options.aggregate = *aggregate;
  options.iceberg_min_count = flags.iceberg;
  auto output = algorithm.value()->Run(engine, relation, options);
  if (!output.ok()) {
    std::fprintf(stderr, "error: %s\n", output.status().ToString().c_str());
    return 1;
  }

  std::printf("%s produced %lld cube groups in %.3f simulated seconds "
              "(%zu round(s))\n",
              algorithm.value()->name().c_str(),
              static_cast<long long>(output->cube->num_groups()),
              output->metrics.TotalSeconds(),
              output->metrics.rounds.size());

  if (flags.fault_rate > 0.0) {
    const RunMetrics& m = output->metrics;
    std::printf(
        "faults (rate %.2f, seed %llu): %lld retries, %lld workers "
        "crashed, %lld tasks re-executed, %lld speculative copies, %lld "
        "checksum mismatches recovered, %.3f s recovery time\n",
        flags.fault_rate, static_cast<unsigned long long>(flags.fault_seed),
        static_cast<long long>(m.TaskRetries()),
        static_cast<long long>(m.WorkersCrashed()),
        static_cast<long long>(m.TasksReexecutedAfterCrash()),
        static_cast<long long>(m.TasksSpeculativelyReexecuted()),
        static_cast<long long>(m.ShuffleChecksumMismatches()),
        m.FaultRecoverySeconds());
  }

  {
    const RunMetrics& m = output->metrics;
    if (m.ReducePartitionsSplit() > 0) {
      std::printf(
          "recovery: %lld partitions split (%lld rounds, %lld bytes "
          "re-shuffled, %.3f s)\n",
          static_cast<long long>(m.ReducePartitionsSplit()),
          static_cast<long long>(m.RecoveryRounds()),
          static_cast<long long>(m.RecoveryBytesReshuffled()),
          m.RecoverySeconds());
    }
  }

  if (flags.metrics) {
    std::printf("%s\n", output->metrics.ToString().c_str());
  }

  CubeStore store(*output->cube);
  if (flags.top > 0) {
    for (CuboidMask mask = 0;
         mask <
         static_cast<CuboidMask>(NumCuboids(relation.num_dims()));
         ++mask) {
      std::printf("\ncuboid %s:\n",
                  MaskToString(mask, relation.num_dims()).c_str());
      for (const CubeCell& cell :
           store.TopK(mask, static_cast<size_t>(flags.top))) {
        std::printf("  %-40s %14.2f\n",
                    CellLabel(cell.key, relation.schema(), dictionaries)
                        .c_str(),
                    cell.value);
      }
    }
  }

  if (!flags.output.empty()) {
    Status written = WriteCuboids(store, relation.schema(), dictionaries,
                                  flags.aggregate, flags.output);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %lld cuboid files to %s/\n",
                static_cast<long long>(NumCuboids(relation.num_dims())),
                flags.output.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RealMain(argc, argv); }
