#ifndef SPCUBE_MAPREDUCE_ENGINE_H_
#define SPCUBE_MAPREDUCE_ENGINE_H_

#include <memory>

#include "common/status.h"
#include "io/dfs.h"
#include "io/spill.h"
#include "mapreduce/api.h"
#include "mapreduce/metrics.h"
#include "relation/relation.h"

namespace spcube {

class FaultPlan;

/// Shape and cost model of the simulated cluster (paper §2.3: k machines,
/// each with memory O(m), m = n/k, sharing a distributed file system).
struct EngineConfig {
  /// Number of machines, k. Each runs one map task and (round-robin) the
  /// reduce tasks assigned to it.
  int num_workers = 8;

  /// Per-machine memory budget in bytes, the paper's m (times the tuple
  /// width). Map-side shuffle buffers and reduce-side inputs beyond this
  /// spill to local disk (or fail under MemoryPolicy::kStrict).
  int64_t memory_budget_bytes = 64 << 20;

  /// Models shuffle transfer time: the bottleneck reducer's inbound payload
  /// divided by this bandwidth is added to each round's total time.
  double network_bandwidth_bytes_per_sec = 100e6;

  /// Fixed per-round job startup/teardown cost (Hadoop job latency). Makes
  /// multi-round algorithms (MR-Cube) pay for their extra rounds.
  double round_overhead_seconds = 0.0;

  /// Sentinel for `host_threads`: size the pool to the host's cores.
  static constexpr int kHostThreadsAuto = -1;

  /// Host threads executing the simulated machines' tasks through the
  /// work-stealing TaskPool (common/task_pool.h). kHostThreadsAuto (the
  /// default) uses one thread per host core — real multicore is the
  /// default fast path; 0 or 1 runs everything serially on the calling
  /// thread. Any setting produces bit-identical cubes, DFS bytes and
  /// modeled metrics (tests/threading_test.cc's determinism probe); only
  /// measured wall clock changes. With > 1 thread, per-task busy time is
  /// measured with per-thread CPU clocks so host core contention cannot
  /// distort the critical-path model, and is charged to the *owning*
  /// simulated machine no matter which host thread ran (or stole) the task.
  int host_threads = kHostThreadsAuto;

  // -- Fault tolerance -------------------------------------------------------

  /// Deterministic chaos plan (mapreduce/fault.h). Borrowed, may be null
  /// (no injection). The engine also installs it as the DFS fault injector.
  FaultPlan* fault_plan = nullptr;

  /// Floor on per-task attempts, applied over JobSpec::max_task_attempts.
  /// Lets a chaos harness grant retries to jobs whose specs (built deep
  /// inside an algorithm) default to one attempt.
  int min_task_attempts = 1;

  /// Base of the capped-exponential re-scheduling delay charged to a
  /// machine's busy time when a failed attempt is retried: the i-th retry
  /// (i = 0, 1, ...) waits min(60 s, base * 2^i) (RetryBackoffSeconds in
  /// mapreduce/backoff.h). Modeled time, not wall-clock sleeping. Also the
  /// base of the per-split backoff charged by adaptive partition-split
  /// recovery (JobSpec::recovery).
  double retry_backoff_seconds = 0.0;

  /// Re-execute injected stragglers speculatively: the slow original is
  /// charged at most twice its measured time (it is killed when the backup
  /// finishes) and the backup's measured time is charged to another live
  /// machine — Hadoop's speculative execution in the cost model.
  bool speculative_execution = true;
};

/// Executes MapReduce rounds over the simulated cluster. Tasks run on a
/// seeded work-stealing pool sized to `EngineConfig::host_threads` (host
/// cores by default; serial with <= 1), but each simulated machine's busy
/// time is measured separately and a round's cluster time is computed as
/// the critical path (max map + modeled shuffle + max reduce + overhead),
/// so reported times reflect a k-machine cluster regardless of host cores.
class Engine {
 public:
  /// `dfs` must outlive the engine; it is shared with tasks via TaskContext.
  Engine(EngineConfig config, DistributedFileSystem* dfs);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs one round: splits `input` into num_workers equal row ranges — each
  /// handed to its mapper as a zero-copy RelationView (no tuple data is
  /// duplicated per split) — maps, shuffles (with combining/spilling),
  /// reduces, and delivers reduce output to `collector`. Returns the round's
  /// metrics, or the first task error.
  Result<JobMetrics> Run(const JobSpec& spec, const Relation& input,
                         OutputCollector* collector);

  /// Same, but the input is a list of records (a previous round's output),
  /// dispatched to Mapper::MapRecord. Used by multi-round algorithms such as
  /// MR-Cube's post-aggregation round.
  Result<JobMetrics> RunRecords(const JobSpec& spec,
                                const std::vector<Record>& input,
                                OutputCollector* collector);

  const EngineConfig& config() const { return config_; }
  DistributedFileSystem* dfs() { return dfs_; }

  /// Local scratch directory holding shuffle spills; empty of files between
  /// jobs once every attempt's output has been reclaimed (tested in
  /// tests/shuffle_test.cc).
  const std::string& temp_dir() const { return temp_files_.dir(); }

 private:
  /// `map_row` feeds the mapper one input item; `begin`/`end` delimit the
  /// task's split and `row` is the global item index within [begin, end).
  /// Relation jobs wrap the split as a RelationView; record jobs ignore the
  /// split bounds. The round runs as phase functions over one RoundState
  /// (engine.cc): map, crash re-execution, shuffle assembly, reduce
  /// placement, reduce, fold.
  Result<JobMetrics> RunImpl(
      const JobSpec& spec, int64_t num_input_rows,
      const std::function<Status(Mapper*, int64_t begin, int64_t end,
                                 int64_t row, MapContext&)>& map_row,
      OutputCollector* collector);

  EngineConfig config_;
  DistributedFileSystem* dfs_;
  TempFileManager temp_files_;
};

}  // namespace spcube

#endif  // SPCUBE_MAPREDUCE_ENGINE_H_
