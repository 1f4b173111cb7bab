#ifndef SPCUBE_MAPREDUCE_METRICS_H_
#define SPCUBE_MAPREDUCE_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace spcube {

/// Wall-clock accounting for one phase across the simulated machines. The
/// host may have fewer cores than the simulated cluster, so tasks run
/// (possibly) sequentially and each machine's busy time is measured
/// separately; the phase's cluster time is the critical path (max).
struct PhaseMetrics {
  std::vector<double> per_worker_seconds;

  double MaxSeconds() const;
  double AvgSeconds() const;
  double SumSeconds() const;

  void Accumulate(int worker, double seconds);
  void EnsureWorkers(int num_workers);
};

/// Counters and times for one MapReduce round, mirroring the measures the
/// paper reports: total running time, average map/reduce time, and
/// intermediate data size (§6, "the size of traffic in the cluster that is
/// delivered between mappers and reducers").
struct JobMetrics {
  std::string job_name;

  PhaseMetrics map_phase;
  PhaseMetrics reduce_phase;

  int64_t map_input_records = 0;
  /// Pairs emitted by mappers, before any combining (Hadoop's
  /// "Map output records/bytes").
  int64_t map_output_records = 0;
  int64_t map_output_bytes = 0;
  /// Pairs actually delivered to reducers, after combining — the paper's
  /// "intermediate data size".
  int64_t shuffle_records = 0;
  int64_t shuffle_bytes = 0;
  int64_t combine_input_records = 0;
  int64_t combine_output_records = 0;
  /// Bytes written to local disk because a buffer exceeded its budget.
  /// These are the bytes actually on disk — delta/varint-encoded per
  /// docs/INTERNALS.md §13.
  int64_t spill_bytes = 0;

  std::vector<int64_t> reducer_input_records;
  std::vector<int64_t> reducer_input_bytes;
  /// Bytes that actually cross the (simulated) wire per reducer: in-memory
  /// segment payloads plus the on-disk (compressed) bytes of spilled runs;
  /// the bottleneck entry drives shuffle_seconds. shuffle_bytes and
  /// reducer_input_bytes stay payload-denominated so record accounting and
  /// scheduling are encoding-independent.
  std::vector<int64_t> reducer_wire_bytes;
  std::vector<int64_t> reducer_output_records;

  int64_t output_records = 0;

  // -- Fault tolerance (all zero on a fault-free run) ------------------------

  /// Failed task attempts that were retried (injected or genuine).
  int64_t task_retries = 0;
  /// Map tasks re-executed because their machine crashed after completing
  /// them (Hadoop's lost-map-output recovery).
  int64_t tasks_reexecuted_after_crash = 0;
  /// Machines lost to whole-worker crashes this round.
  int64_t workers_crashed = 0;
  /// Stragglers whose speculative copy was charged to another machine.
  int64_t tasks_speculatively_reexecuted = 0;
  /// Shuffle-fetch checksum mismatches detected and recovered by re-fetch.
  int64_t shuffle_checksum_mismatches = 0;
  /// Simulated time spent on recovery: retry backoff, crash re-execution,
  /// speculative copies and adaptive split recovery. Already included in
  /// the phase times; reported separately so overhead is visible.
  double fault_recovery_seconds = 0.0;

  // -- Adaptive split recovery (mapreduce/api.h, RecoverySpec) ---------------

  /// Reduce partitions whose strict-policy OOM was survived by splitting
  /// into sub-partitions and merging the partial outputs.
  int64_t reduce_partitions_split = 0;
  /// Split operations performed during recovery (recursive re-splits of a
  /// still-oversized sub-partition count individually).
  int64_t recovery_rounds = 0;
  /// Payload bytes re-scattered into sub-partition runs by those splits —
  /// the extra "shuffle" the degraded path pays.
  int64_t recovery_bytes_reshuffled = 0;
  /// Simulated time charged for split recovery (per-split backoff plus the
  /// re-scatter transfer at the configured network bandwidth). A subset of
  /// fault_recovery_seconds, reported separately so degradation cost is
  /// attributable.
  double recovery_seconds = 0.0;

  /// User counters incremented by tasks via the contexts (only successful
  /// attempts contribute), keyed by name.
  std::map<std::string, int64_t> custom_counters;

  /// Modeled network transfer time (bottleneck reducer's inbound bytes over
  /// the per-node bandwidth) — see EngineConfig.
  double shuffle_seconds = 0.0;
  /// Fixed per-round startup/teardown cost from EngineConfig.
  double round_overhead_seconds = 0.0;

  /// Cluster (simulated) end-to-end time for this round:
  /// max map + shuffle + max reduce + round overhead.
  double TotalSeconds() const;

  int64_t MaxReducerInputRecords() const;
  int64_t MaxReducerInputBytes() const;
  /// Bottleneck reducer's inbound wire bytes.
  int64_t MaxReducerWireBytes() const;

  /// Ratio of the most-loaded to the average-loaded reducer input (1.0 is
  /// perfectly balanced). The paper's balance claim in §6.2 is about this.
  double ReducerImbalance() const;

  std::string ToString() const;
};

/// Sum of several rounds (e.g. SP-Cube's sketch round + cube round, or
/// MR-Cube's three rounds).
struct RunMetrics {
  std::string algorithm;
  std::vector<JobMetrics> rounds;

  void Add(JobMetrics round) { rounds.push_back(std::move(round)); }

  double TotalSeconds() const;
  double MapSeconds() const;     // sum over rounds of max map time
  double ReduceSeconds() const;  // sum over rounds of max reduce time
  double AvgMapSeconds() const;
  double AvgReduceSeconds() const;
  int64_t MapOutputBytes() const;
  int64_t ShuffleBytes() const;
  int64_t SpillBytes() const;
  int64_t OutputRecords() const;

  // Fault-tolerance totals over all rounds.
  int64_t TaskRetries() const;
  int64_t TasksReexecutedAfterCrash() const;
  int64_t WorkersCrashed() const;
  int64_t TasksSpeculativelyReexecuted() const;
  int64_t ShuffleChecksumMismatches() const;
  double FaultRecoverySeconds() const;

  // Adaptive split-recovery totals over all rounds.
  int64_t ReducePartitionsSplit() const;
  int64_t RecoveryRounds() const;
  int64_t RecoveryBytesReshuffled() const;
  double RecoverySeconds() const;

  /// Sum of one named user counter over all rounds.
  int64_t CustomCounter(const std::string& name) const;

  std::string ToString() const;
};

}  // namespace spcube

#endif  // SPCUBE_MAPREDUCE_METRICS_H_
