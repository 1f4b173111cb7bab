#ifndef SPCUBE_MAPREDUCE_API_H_
#define SPCUBE_MAPREDUCE_API_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "io/dfs.h"
#include "relation/relation.h"
#include "relation/relation_view.h"

namespace spcube {

/// Per-task environment handed to Mapper/Reducer Setup(): which simulated
/// machine the task runs on, the cluster shape, and the shared DFS (used
/// e.g. to fetch the broadcast SP-Sketch, paper §4.2).
struct TaskContext {
  int worker_id = 0;     // machine index, 0-based
  int num_workers = 1;   // k
  int num_reducers = 1;  // reduce partitions (may be k+1 for SP-Cube)
  /// The reduce partition this task serves; -1 for map tasks.
  int reduce_partition = -1;
  int64_t memory_budget_bytes = 0;
  DistributedFileSystem* dfs = nullptr;
};

/// One intermediate or input (key, value) pair.
struct Record {
  std::string key;
  std::string value;
};

/// Bytes a record contributes to buffers/network accounting.
inline int64_t RecordBytes(std::string_view key, std::string_view value) {
  return static_cast<int64_t>(key.size() + value.size());
}

/// Sink for map-side emits. Emit() routes the pair through the job's
/// partitioner into the target reducer's shuffle buffer and accounts its
/// bytes as intermediate data.
class MapContext {
 public:
  virtual ~MapContext() = default;

  /// Adds to a job-level named counter (Hadoop user counters); totals
  /// appear in JobMetrics::custom_counters. Failed task attempts do not
  /// contribute.
  virtual void IncrementCounter(const std::string& /*name*/,
                                int64_t /*delta*/) {}

  /// Emits an intermediate (key, value) pair. May spill to local disk when
  /// the worker's buffer exceeds its memory budget.
  ///
  /// Zero-copy contract: the implementation copies `key` and `value` into
  /// its own storage (the shuffle arena) before returning, so mappers
  /// should encode into reusable task-lifetime buffers (e.g. a ByteWriter
  /// member, cleared per emit) instead of building a fresh std::string per
  /// record — the steady-state emit path then performs no heap allocation.
  virtual Status Emit(std::string_view key, std::string_view value) = 0;

  /// Emits directly to an explicit reduce partition, bypassing the
  /// partitioner. SP-Cube uses this to route partial aggregates of skewed
  /// c-groups to the dedicated skew reducer (partition 0, paper §5).
  virtual Status EmitToPartition(int partition, std::string_view key,
                                 std::string_view value) = 0;
};

/// A map task. The engine constructs one instance per input split via the
/// job's factory, then calls Setup, Map for every row of the split, and
/// Finish (where mappers flush state accumulated across rows, e.g. SP-Cube's
/// skew partial aggregates).
class Mapper {
 public:
  virtual ~Mapper() = default;

  virtual Status Setup(const TaskContext& /*task*/) { return Status::OK(); }

  /// Row-of-a-split input (Engine::Run). `input` is the task's zero-copy
  /// view over the job's relation — the simulated HDFS input split — and
  /// `row` indexes into the view ([0, input.num_rows())). Default fails, so
  /// record-only mappers need not implement it.
  virtual Status Map(const RelationView& /*input*/, int64_t /*row*/,
                     MapContext& /*context*/) {
    return Status::Internal("mapper does not accept relation input");
  }

  /// Record input (Engine::RunRecords) — used by follow-up rounds whose
  /// input is a previous round's output rather than the base relation.
  virtual Status MapRecord(const Record& /*record*/,
                           MapContext& /*context*/) {
    return Status::Internal("mapper does not accept record input");
  }

  virtual Status Finish(MapContext& /*context*/) { return Status::OK(); }
};

/// Streams the values of one reduce group. Large (skewed) groups are
/// streamed from merged spill runs rather than materialized, matching how a
/// real MapReduce runtime feeds reducers from sorted runs.
class ValueStream {
 public:
  virtual ~ValueStream() = default;

  /// Fetches the next value; false at end of group.
  virtual Result<bool> Next(std::string* value) = 0;
};

/// Sink for reduce-side output. Output() appends to the job's output
/// collector (the simulated DFS write of final cube tuples).
class ReduceContext {
 public:
  virtual ~ReduceContext() = default;

  virtual Status Output(std::string_view key, std::string_view value) = 0;

  /// Adds to a job-level named counter; committed only if the task attempt
  /// succeeds (like reduce output).
  virtual void IncrementCounter(const std::string& /*name*/,
                                int64_t /*delta*/) {}
};

/// A reduce task. One instance per reduce partition; Reduce() is called
/// once per distinct key, in ascending byte order of keys.
class Reducer {
 public:
  virtual ~Reducer() = default;

  virtual Status Setup(const TaskContext& /*task*/) { return Status::OK(); }
  virtual Status Reduce(const std::string& key, ValueStream& values,
                        ReduceContext& context) = 0;
  virtual Status Finish(ReduceContext& /*context*/) { return Status::OK(); }
};

/// Routes an intermediate key to a reduce partition. Implementations must be
/// stateless/thread-safe; the engine shares one instance across map tasks.
/// The default hash partitioner mirrors Hadoop; SP-Cube plugs a range
/// partitioner driven by the SP-Sketch's partition elements (paper §3.3).
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  virtual int Partition(std::string_view key, int num_reducers) const = 0;
};

/// Hadoop-style default: hash of the key bytes modulo the reducer count.
class HashPartitioner : public Partitioner {
 public:
  int Partition(std::string_view key, int num_reducers) const override;
};

/// Optional map-side pre-aggregation (Hadoop combiner). The map-side
/// buffer keeps one running value per buffered key: a key's first value is
/// buffered as emitted, and every later value of the key is folded into
/// the running one on arrival (docs/INTERNALS.md §9). Must be stateless and
/// associative: folding a key's values left to right in emission order
/// must give the same bytes as merging them all at once.
class Combiner {
 public:
  virtual ~Combiner() = default;

  /// Appends the merge of `acc` (the key's running value) and `value` (its
  /// next value) to `out`, which the caller passes empty. Neither input
  /// aliases `out`. A malformed input fails the map task's `Add`.
  virtual Status Fold(std::string_view acc, std::string_view value,
                      ByteWriter* out) const = 0;
};

/// Receives the final output of every reduce task.
class OutputCollector {
 public:
  virtual ~OutputCollector() = default;

  virtual Status Collect(int reducer_id, std::string_view key,
                         std::string_view value) = 0;

  /// Called once per round before its output is delivered, with the number
  /// of records that follow, so a collector that stores them can size its
  /// storage once instead of growing it record by record.
  virtual void Reserve(int64_t /*records*/) {}
};

/// Thread-safe in-memory collector.
class VectorOutputCollector : public OutputCollector {
 public:
  struct Entry {
    int reducer_id;
    std::string key;
    std::string value;
  };

  Status Collect(int reducer_id, std::string_view key,
                 std::string_view value) override SPCUBE_EXCLUDES(mu_);

  /// Read-after-join contract: call only once the engine run that fed this
  /// collector has returned (all reduce threads joined), at which point
  /// entries_ is quiescent and a lock would be theater. The annotation (and
  /// the analyzer's matching skip) documents that this is deliberate.
  const std::vector<Entry>& entries() const SPCUBE_NO_THREAD_SAFETY_ANALYSIS {
    return entries_;
  }

 private:
  Mutex mu_;
  std::vector<Entry> entries_ SPCUBE_GUARDED_BY(mu_);
};

/// Discards all output (used when only metrics matter).
class NullOutputCollector : public OutputCollector {
 public:
  Status Collect(int, std::string_view, std::string_view) override {
    return Status::OK();
  }
};

/// Behaviour when a reduce task's input exceeds the machine's memory budget.
enum class MemoryPolicy : int8_t {
  /// Sort-and-spill to local disk, then stream merged runs (Hadoop).
  kSpill = 0,
  /// Fail the job with ResourceExhausted (models Hive's in-memory hash
  /// aggregation OOMing on heavy skew, as the paper observed for p >= 0.4).
  kStrict = 1,
};

/// Opt-in adaptive recovery from reduce-side memory pressure. When a
/// kStrict reduce attempt's grouped input exceeds the (possibly
/// fault-shrunk) budget, the engine can split the partition into
/// `split_fanout` sub-partitions (SplitReduceInput: a group too big for a
/// sub-partition's share of the budget is dealt over all of them, so even
/// a single oversized group shrinks; smaller groups stay whole), reduce
/// each sub-partition independently, and merge the partial outputs of the
/// groups that were dealt out with `merge_reducer_factory` in a follow-up
/// merge round. A group kept whole commits its outputs unmerged.
///
/// Splitting is only exact when (a) every reduce output key is emitted by
/// at most one group per partition, so only a dealt-out group's outputs
/// can repeat a key, and (b) the merge reducer is associative and closed
/// over final values (count/sum/min/max over encoded doubles qualify; avg
/// and iceberg thresholds do not — see docs/INTERNALS.md §11).
/// Jobs whose aggregates are holistic must leave splitting disabled and
/// set `reject_reason` so the fail-fast Status explains why.
struct RecoverySpec {
  /// Master switch; requires a merge_reducer_factory to take effect.
  bool allow_partition_split = false;
  /// Sub-partitions per split, >= 2.
  int split_fanout = 2;
  /// Recursive re-splits allowed when a sub-partition still overflows;
  /// beyond this depth the OOM becomes terminal again. Recursion stops as
  /// soon as a sub-partition fits, so a generous cap only matters for
  /// pathologically overloaded partitions (with fanout 2 this allows up to
  /// 2^8 = 256 leaves — enough for a partition ~256x over budget, e.g.
  /// a full-budget overflow retried under injected 0.25x pressure).
  int max_split_depth = 8;
  /// Builds the reducer of the merge round, which runs once per split
  /// partition over the dealt-out groups' outputs (possibly none). Receives
  /// (output key, all partial final values) groups in ascending key order,
  /// exactly like a normal reducer.
  std::function<std::unique_ptr<Reducer>()> merge_reducer_factory;
  /// Appended to the ResourceExhausted Status when splitting is disabled,
  /// explaining why this job cannot degrade (e.g. "avg finalizes to a
  /// non-mergeable value").
  std::string reject_reason;
};

/// Everything the engine needs to run one MapReduce round.
struct JobSpec {
  std::string name = "job";
  std::function<std::unique_ptr<Mapper>()> mapper_factory;
  std::function<std::unique_ptr<Reducer>()> reducer_factory;
  /// Defaults to HashPartitioner when null.
  std::shared_ptr<const Partitioner> partitioner;
  /// Optional; null disables map-side combining.
  std::shared_ptr<const Combiner> combiner;
  /// Reduce partitions; 0 means "same as the worker count".
  int num_reducers = 0;
  MemoryPolicy memory_policy = MemoryPolicy::kSpill;

  /// Fault tolerance, Hadoop-style: a failed task is re-executed from
  /// scratch (fresh Mapper/Reducer instance, discarded partial output) up
  /// to this many times before the job fails. Tasks must therefore be
  /// idempotent — true for every task in this library. A kStrict memory
  /// failure at full budget is not retried (re-running cannot shrink the
  /// input): it either fails the job or, when `recovery` permits, enters
  /// adaptive partition splitting. An OOM under injected budget pressure
  /// (TaskFault::budget_factor < 1) is transient and is retried normally.
  int max_task_attempts = 1;

  /// Adaptive reduce-side OOM recovery (kStrict only); disabled by default.
  RecoverySpec recovery;
};

}  // namespace spcube

#endif  // SPCUBE_MAPREDUCE_API_H_
