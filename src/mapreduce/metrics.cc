#include "mapreduce/metrics.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace spcube {

double PhaseMetrics::MaxSeconds() const {
  if (per_worker_seconds.empty()) return 0.0;
  return *std::max_element(per_worker_seconds.begin(),
                           per_worker_seconds.end());
}

double PhaseMetrics::AvgSeconds() const {
  if (per_worker_seconds.empty()) return 0.0;
  return SumSeconds() / static_cast<double>(per_worker_seconds.size());
}

double PhaseMetrics::SumSeconds() const {
  return std::accumulate(per_worker_seconds.begin(),
                         per_worker_seconds.end(), 0.0);
}

void PhaseMetrics::Accumulate(int worker, double seconds) {
  EnsureWorkers(worker + 1);
  per_worker_seconds[static_cast<size_t>(worker)] += seconds;
}

void PhaseMetrics::EnsureWorkers(int num_workers) {
  if (static_cast<int>(per_worker_seconds.size()) < num_workers) {
    per_worker_seconds.resize(static_cast<size_t>(num_workers), 0.0);
  }
}

double JobMetrics::TotalSeconds() const {
  return map_phase.MaxSeconds() + shuffle_seconds +
         reduce_phase.MaxSeconds() + round_overhead_seconds;
}

int64_t JobMetrics::MaxReducerInputRecords() const {
  if (reducer_input_records.empty()) return 0;
  return *std::max_element(reducer_input_records.begin(),
                           reducer_input_records.end());
}

int64_t JobMetrics::MaxReducerInputBytes() const {
  if (reducer_input_bytes.empty()) return 0;
  return *std::max_element(reducer_input_bytes.begin(),
                           reducer_input_bytes.end());
}

int64_t JobMetrics::MaxReducerWireBytes() const {
  return *std::max_element(reducer_wire_bytes.begin(),
                           reducer_wire_bytes.end());
}

double JobMetrics::ReducerImbalance() const {
  if (reducer_input_records.empty()) return 1.0;
  const int64_t total = std::accumulate(reducer_input_records.begin(),
                                        reducer_input_records.end(),
                                        int64_t{0});
  if (total == 0) return 1.0;
  const double avg = static_cast<double>(total) /
                     static_cast<double>(reducer_input_records.size());
  return static_cast<double>(MaxReducerInputRecords()) / avg;
}

std::string JobMetrics::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "%s: total=%.3fs map(max=%.3fs avg=%.3fs) reduce(max=%.3fs avg=%.3fs) "
      "map_out=%lld rec/%lld B shuffle=%lld rec/%lld B spill=%lld B "
      "out=%lld rec imbalance=%.2f",
      job_name.c_str(), TotalSeconds(), map_phase.MaxSeconds(),
      map_phase.AvgSeconds(), reduce_phase.MaxSeconds(),
      reduce_phase.AvgSeconds(),
      static_cast<long long>(map_output_records),
      static_cast<long long>(map_output_bytes),
      static_cast<long long>(shuffle_records),
      static_cast<long long>(shuffle_bytes),
      static_cast<long long>(spill_bytes),
      static_cast<long long>(output_records), ReducerImbalance());
  std::string out = buf;
  if (spill_bytes > 0) {
    std::snprintf(buf, sizeof(buf), " wire=%lld B",
                  static_cast<long long>(std::accumulate(
                      reducer_wire_bytes.begin(), reducer_wire_bytes.end(),
                      int64_t{0})));
    out += buf;
  }
  if (task_retries > 0 || workers_crashed > 0 ||
      tasks_speculatively_reexecuted > 0 || shuffle_checksum_mismatches > 0) {
    std::snprintf(
        buf, sizeof(buf),
        " faults(retries=%lld crashed=%lld crash_reexec=%lld spec=%lld "
        "crc_mismatch=%lld recovery=%.3fs)",
        static_cast<long long>(task_retries),
        static_cast<long long>(workers_crashed),
        static_cast<long long>(tasks_reexecuted_after_crash),
        static_cast<long long>(tasks_speculatively_reexecuted),
        static_cast<long long>(shuffle_checksum_mismatches),
        fault_recovery_seconds);
    out += buf;
  }
  if (reduce_partitions_split > 0) {
    std::snprintf(
        buf, sizeof(buf),
        " recovery(split_partitions=%lld rounds=%lld reshuffled=%lld B "
        "time=%.3fs)",
        static_cast<long long>(reduce_partitions_split),
        static_cast<long long>(recovery_rounds),
        static_cast<long long>(recovery_bytes_reshuffled), recovery_seconds);
    out += buf;
  }
  return out;
}

double RunMetrics::TotalSeconds() const {
  double total = 0.0;
  for (const JobMetrics& round : rounds) total += round.TotalSeconds();
  return total;
}

double RunMetrics::MapSeconds() const {
  double total = 0.0;
  for (const JobMetrics& round : rounds) {
    total += round.map_phase.MaxSeconds();
  }
  return total;
}

double RunMetrics::ReduceSeconds() const {
  double total = 0.0;
  for (const JobMetrics& round : rounds) {
    total += round.reduce_phase.MaxSeconds();
  }
  return total;
}

double RunMetrics::AvgMapSeconds() const {
  double total = 0.0;
  for (const JobMetrics& round : rounds) {
    total += round.map_phase.AvgSeconds();
  }
  return total;
}

double RunMetrics::AvgReduceSeconds() const {
  double total = 0.0;
  for (const JobMetrics& round : rounds) {
    total += round.reduce_phase.AvgSeconds();
  }
  return total;
}

int64_t RunMetrics::MapOutputBytes() const {
  int64_t total = 0;
  for (const JobMetrics& round : rounds) total += round.map_output_bytes;
  return total;
}

int64_t RunMetrics::ShuffleBytes() const {
  int64_t total = 0;
  for (const JobMetrics& round : rounds) total += round.shuffle_bytes;
  return total;
}

int64_t RunMetrics::SpillBytes() const {
  int64_t total = 0;
  for (const JobMetrics& round : rounds) total += round.spill_bytes;
  return total;
}

int64_t RunMetrics::TaskRetries() const {
  int64_t total = 0;
  for (const JobMetrics& round : rounds) total += round.task_retries;
  return total;
}

int64_t RunMetrics::TasksReexecutedAfterCrash() const {
  int64_t total = 0;
  for (const JobMetrics& round : rounds) {
    total += round.tasks_reexecuted_after_crash;
  }
  return total;
}

int64_t RunMetrics::WorkersCrashed() const {
  int64_t total = 0;
  for (const JobMetrics& round : rounds) total += round.workers_crashed;
  return total;
}

int64_t RunMetrics::TasksSpeculativelyReexecuted() const {
  int64_t total = 0;
  for (const JobMetrics& round : rounds) {
    total += round.tasks_speculatively_reexecuted;
  }
  return total;
}

int64_t RunMetrics::ShuffleChecksumMismatches() const {
  int64_t total = 0;
  for (const JobMetrics& round : rounds) {
    total += round.shuffle_checksum_mismatches;
  }
  return total;
}

double RunMetrics::FaultRecoverySeconds() const {
  double total = 0.0;
  for (const JobMetrics& round : rounds) {
    total += round.fault_recovery_seconds;
  }
  return total;
}

int64_t RunMetrics::ReducePartitionsSplit() const {
  int64_t total = 0;
  for (const JobMetrics& round : rounds) {
    total += round.reduce_partitions_split;
  }
  return total;
}

int64_t RunMetrics::RecoveryRounds() const {
  int64_t total = 0;
  for (const JobMetrics& round : rounds) total += round.recovery_rounds;
  return total;
}

int64_t RunMetrics::RecoveryBytesReshuffled() const {
  int64_t total = 0;
  for (const JobMetrics& round : rounds) {
    total += round.recovery_bytes_reshuffled;
  }
  return total;
}

double RunMetrics::RecoverySeconds() const {
  double total = 0.0;
  for (const JobMetrics& round : rounds) total += round.recovery_seconds;
  return total;
}

int64_t RunMetrics::CustomCounter(const std::string& name) const {
  int64_t total = 0;
  for (const JobMetrics& round : rounds) {
    auto it = round.custom_counters.find(name);
    if (it != round.custom_counters.end()) total += it->second;
  }
  return total;
}

int64_t RunMetrics::OutputRecords() const {
  int64_t total = 0;
  for (const JobMetrics& round : rounds) total += round.output_records;
  return total;
}

std::string RunMetrics::ToString() const {
  std::string out = algorithm + " (" + std::to_string(rounds.size()) +
                    " round(s)):\n";
  for (const JobMetrics& round : rounds) {
    out += "  " + round.ToString() + "\n";
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  TOTAL: %.3fs, shuffle=%lld B, spill=%lld B",
                TotalSeconds(), static_cast<long long>(ShuffleBytes()),
                static_cast<long long>(SpillBytes()));
  out += buf;
  return out;
}

}  // namespace spcube
