#include "mapreduce/engine.h"

// spcube-lint: allow(no-host-time): clock_gettime measures task busy time
#include <time.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/task_pool.h"
#include "mapreduce/backoff.h"
#include "mapreduce/fault.h"
#include "mapreduce/shuffle.h"

namespace spcube {
namespace {

using CounterMap = std::map<std::string, int64_t>;
using ReducerFactory = std::function<std::unique_ptr<Reducer>()>;
using MapRowFn = std::function<Status(Mapper*, int64_t begin, int64_t end,
                                      int64_t row, MapContext&)>;

// Wall-clock busy time of one simulated machine's task: this measured
// duration is an *input* to the simulated cluster-time model (per-machine
// critical path, EngineConfig), which is the sanctioned use of host timers.
// spcube-lint: allow(no-host-time): measures task busy time for the model
double SecondsSince(std::chrono::steady_clock::time_point start) {
  // spcube-lint: allow(no-host-time): measures task busy time for the model
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// CPU time consumed by the calling thread — the busy-time measure used in
/// threaded mode, immune to preemption by the other simulated machines
/// sharing the host's cores.
double ThreadCpuSeconds() {
  timespec ts{};
  // spcube-lint: allow(no-host-time): thread CPU time is the busy-time input
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void AddCounters(const CounterMap& deltas, CounterMap* totals) {
  for (const auto& [name, delta] : deltas) (*totals)[name] += delta;
}

/// Start of one task's busy-time bracket; RoundState::BusySince closes it.
struct BusyStart {
  // spcube-lint: allow(no-host-time): task busy time is the model's input
  std::chrono::steady_clock::time_point wall = std::chrono::steady_clock::now();
  double cpu = ThreadCpuSeconds();
};

/// MapContext wired to a ShuffleBuffer and the job's partitioner.
class EngineMapContext : public MapContext {
 public:
  EngineMapContext(ShuffleBuffer* buffer, const Partitioner* partitioner,
                   int num_reducers)
      : buffer_(buffer),
        partitioner_(partitioner),
        num_reducers_(num_reducers) {}

  void IncrementCounter(const std::string& name, int64_t delta) override {
    counters_[name] += delta;
  }

  CounterMap TakeCounters() { return std::move(counters_); }

  Status Emit(std::string_view key, std::string_view value) override {
    const int partition = partitioner_->Partition(key, num_reducers_);
    if (partition < 0 || partition >= num_reducers_) {
      return Status::Internal("partitioner returned out-of-range partition " +
                              std::to_string(partition));
    }
    return buffer_->Add(partition, key, value);
  }

  Status EmitToPartition(int partition, std::string_view key,
                         std::string_view value) override {
    if (partition < 0 || partition >= num_reducers_) {
      return Status::InvalidArgument("bad explicit partition " +
                                     std::to_string(partition));
    }
    return buffer_->Add(partition, key, value);
  }

 private:
  ShuffleBuffer* buffer_;
  const Partitioner* partitioner_;
  int num_reducers_;
  CounterMap counters_;
};

/// Adapts a GroupedRecordStream's current group to the Reducer-facing
/// ValueStream.
class GroupValueStream : public ValueStream {
 public:
  explicit GroupValueStream(GroupedRecordStream* stream) : stream_(stream) {}

  Result<bool> Next(std::string* value) override {
    return stream_->NextValue(value);
  }

 private:
  GroupedRecordStream* stream_;
};

/// Buffers a reduce attempt's output in arena-backed segments and publishes
/// it only on success, so failed attempts (which are retried from scratch)
/// leave no trace in the job output — the commit protocol of a real
/// MapReduce runtime.
class EngineReduceContext : public ReduceContext {
 public:
  Status Output(std::string_view key, std::string_view value) override {
    (to_merge_ ? merge_ : whole_).Add(key, value);
    return Status::OK();
  }

  void IncrementCounter(const std::string& name, int64_t delta) override {
    counters_[name] += delta;
  }

  /// Whether the outputs that follow go to the merge round.
  void RouteToMerge(bool to_merge) { to_merge_ = to_merge; }

  /// Appends the output to `out` (what was routed to the merge to
  /// `merge_out`) and the counters to `counters`; call once, on success.
  void CommitTo(std::vector<ShuffleSegment>* out,
                std::vector<ShuffleSegment>* merge_out, CounterMap* counters) {
    if (whole_.num_records() > 0) out->push_back(whole_.Finish());
    if (merge_.num_records() > 0) merge_out->push_back(merge_.Finish());
    AddCounters(counters_, counters);
  }

 private:
  SegmentBuilder whole_;
  SegmentBuilder merge_;
  bool to_merge_ = false;
  CounterMap counters_;
};

/// Everything one map task produced, isolated so that worker-crash recovery
/// can discard and replace a task's contribution wholesale (output, shuffle
/// counters and user counters all come from exactly one successful attempt).
struct MapTaskState {
  std::unique_ptr<ShuffleBuffer> buffer;
  ShuffleCounters shuffle_counters;
  CounterMap custom_counters;
  double busy_seconds = 0.0;     // measured across all attempts
  double penalty_seconds = 0.0;  // modeled retry backoff
  double slowdown_factor = 1.0;  // >1: injected straggler
  int64_t retries = 0;           // failed attempts that were retried
  Status status;
};

/// Everything one reduce task (partition) produced. Charged to its machine
/// and folded into the job after the phase joins, in partition order, so
/// neither speculative copies nor thread completion order are observable.
struct ReduceTaskState {
  double busy_seconds = 0.0;
  double penalty_seconds = 0.0;
  double slowdown_factor = 1.0;
  int64_t retries = 0;
  // Adaptive split recovery.
  int64_t recovery_rounds = 0;
  int64_t bytes_reshuffled = 0;
  double recovery_seconds = 0.0;
  /// The committed output and user counters (the successful attempt's, or
  /// the split recovery's), delivered to the collector by FoldRound.
  std::vector<ShuffleSegment> output;
  CounterMap custom_counters;
  /// Reduce-side spill and fetch accounting of every attempt.
  ShuffleCounters shuffle_counters;
};

/// Charges one finished task (map or reduce) to the modeled cluster.
/// Stragglers run `slowdown_factor` slow; with speculative execution and a
/// `backup` machine (>= 0) the slot pays at most 2x measured (the slow copy
/// is killed when the backup finishes) and the backup's measured time is
/// billed to `backup`. `charge(machine, seconds)` adds to one machine's
/// phase time.
template <typename TaskState, typename ChargeFn>
void ChargeTask(const TaskState& task, int machine, int backup,
                bool speculative_execution, JobMetrics* metrics,
                ChargeFn&& charge) {
  const double base = task.busy_seconds;
  double charged = base * task.slowdown_factor;
  if (task.slowdown_factor > 1.0 && speculative_execution && backup >= 0) {
    charged = std::min(charged, 2.0 * base);
    charge(backup, base);
    ++metrics->tasks_speculatively_reexecuted;
    metrics->fault_recovery_seconds += base;
  }
  charge(machine, charged + task.penalty_seconds);
  metrics->fault_recovery_seconds += task.penalty_seconds;
  metrics->task_retries += task.retries;
}

const Partitioner* PartitionerOf(const JobSpec& spec) {
  static const HashPartitioner kDefaultPartitioner;
  return spec.partitioner != nullptr ? spec.partitioner.get()
                                     : &kDefaultPartitioner;
}

int HostThreads(const EngineConfig& config) {
  return config.host_threads < 0 ? TaskPool::HostThreads()
                                 : std::max(1, config.host_threads);
}

/// One round's state, shared by the phase functions below. Engine::RunImpl
/// runs the phases in order on the calling thread: map, crash
/// re-execution, shuffle assembly, reduce placement, reduce, fold. The map
/// and reduce phases fan out over `pool`; each pool task writes only its
/// own machine's `map_tasks` slot, or its own partition's `reduce_inputs`
/// and `reduce_tasks` slots (the disjoint-write contract,
/// docs/INTERNALS.md §12), and Run's join publishes them.
struct RoundState {
  RoundState(const EngineConfig& config_in, const JobSpec& spec_in,
             DistributedFileSystem* dfs_in, TempFileManager* temp_files_in,
             const MapRowFn& map_row_in, int64_t num_input_rows_in)
      : config(config_in),
        spec(spec_in),
        dfs(dfs_in),
        temp_files(temp_files_in),
        map_row(map_row_in),
        num_input_rows(num_input_rows_in),
        num_workers(config_in.num_workers),
        num_reducers(spec_in.num_reducers > 0 ? spec_in.num_reducers
                                              : config_in.num_workers),
        partitioner(PartitionerOf(spec_in)),
        plan(config_in.fault_plan),
        job_id(plan != nullptr ? plan->BeginJob(spec_in.name) : 0),
        max_attempts(std::max(
            {1, spec_in.max_task_attempts, config_in.min_task_attempts})),
        threaded(HostThreads(config_in) > 1),
        // Adaptive split recovery is opt-in per job and only meaningful
        // under kStrict (kSpill never OOMs): see RecoverySpec in api.h.
        recovery_enabled(spec_in.memory_policy == MemoryPolicy::kStrict &&
                         spec_in.recovery.allow_partition_split &&
                         spec_in.recovery.merge_reducer_factory != nullptr),
        // The pool seed only steers steal-victim orders: results are
        // identical for any thread count (tests/threading_test.cc).
        pool(HostThreads(config_in),
             (plan != nullptr ? plan->config().seed : 0) ^
                 0x9e3779b97f4a7c15ull),
        map_tasks(static_cast<size_t>(num_workers)),
        alive(static_cast<size_t>(num_workers), true),
        machine_of(static_cast<size_t>(num_reducers), 0),
        reduce_inputs(static_cast<size_t>(num_reducers)),
        reduce_tasks(static_cast<size_t>(num_reducers)) {
    const size_t reducers = static_cast<size_t>(num_reducers);
    metrics.job_name = spec.name;
    metrics.map_phase.EnsureWorkers(num_workers);
    metrics.reduce_phase.EnsureWorkers(num_workers);
    metrics.reducer_input_records.assign(reducers, 0);
    metrics.reducer_input_bytes.assign(reducers, 0);
    metrics.reducer_wire_bytes.assign(reducers, 0);
    metrics.reducer_output_records.assign(reducers, 0);
    metrics.round_overhead_seconds = config.round_overhead_seconds;
    metrics.map_input_records = num_input_rows;
  }

  /// The fault plan's verdict for one task attempt (none without a plan).
  TaskFault PlanAttempt(TaskKind kind, int task, int attempt) const {
    return plan != nullptr ? plan->PlanTaskAttempt(job_id, kind, task, attempt)
                           : TaskFault{};
  }

  /// Modeled re-scheduling delay before retry `attempt` (mapreduce/backoff.h).
  double Backoff(int attempt) const {
    return RetryBackoffSeconds(config.retry_backoff_seconds, attempt);
  }

  /// Busy time since `start`: per-thread CPU time when real threads share
  /// the host's cores (immune to preemption by the other simulated
  /// machines), wall time when serial. Charged to the owning simulated
  /// machine after the phase joins, whichever host thread ran the task.
  double BusySince(const BusyStart& start) const {
    return threaded ? ThreadCpuSeconds() - start.cpu
                    : SecondsSince(start.wall);
  }

  TaskContext Task(int machine, int reduce_partition) const {
    return TaskContext{machine, num_workers, num_reducers, reduce_partition,
                       config.memory_budget_bytes, dfs};
  }

  /// The next live machine after `from` in ring order, or -1.
  int NextAlive(int from) const {
    for (int i = 1; i < num_workers; ++i) {
      const int c = (from + i) % num_workers;
      if (alive[static_cast<size_t>(c)]) return c;
    }
    return -1;
  }

  const EngineConfig& config;
  const JobSpec& spec;
  DistributedFileSystem* const dfs;
  TempFileManager* const temp_files;
  const MapRowFn& map_row;
  const int64_t num_input_rows;
  const int num_workers;
  const int num_reducers;
  const Partitioner* const partitioner;
  FaultPlan* const plan;
  const int64_t job_id;
  const int max_attempts;
  const bool threaded;
  const bool recovery_enabled;
  TaskPool pool;
  JobMetrics metrics;
  std::vector<MapTaskState> map_tasks;  // per machine
  std::vector<bool> alive;              // per machine; false once crashed
  std::vector<int> machine_of;          // per partition: owning machine
  std::vector<ReduceInput> reduce_inputs;
  std::vector<ReduceTaskState> reduce_tasks;
};

// ---- Map ------------------------------------------------------------------

/// Runs map task `w` to completion (with retries). `attempt_base` offsets
/// the fault plan's attempt coordinate so a crash re-execution draws fresh
/// — but reproducible — luck instead of replaying its original faults.
MapTaskState RunMapTask(const RoundState& round, int w, int attempt_base) {
  const EngineConfig& config = round.config;
  const JobSpec& spec = round.spec;
  MapTaskState state;
  const int64_t begin = round.num_input_rows * w / round.num_workers;
  const int64_t end = round.num_input_rows * (w + 1) / round.num_workers;

  Status last_error = Status::OK();
  for (int attempt = 0; attempt < round.max_attempts; ++attempt) {
    const BusyStart start;
    const TaskFault fault =
        round.PlanAttempt(TaskKind::kMap, w, attempt_base + attempt);
    // The plan models transient faults, so the final attempt is spared
    // injected failures (a real cluster's node blacklisting converges the
    // same way); genuine errors can still fail it.
    const bool inject_failure = fault.fail && attempt + 1 < round.max_attempts;
    state.slowdown_factor = std::max(state.slowdown_factor,
                                     fault.slowdown_factor);

    // Fresh buffer and counters per attempt: a failed attempt's partial
    // shuffle output and counters are discarded wholesale (the buffer's
    // destructor reclaims any spill files it wrote). The buffer writes
    // `counters` only while the attempt maps, combines and spills; the
    // shuffle hand-off after it never touches them.
    ShuffleCounters counters;
    auto buffer = std::make_unique<ShuffleBuffer>(
        round.num_reducers, config.memory_budget_bytes, spec.combiner.get(),
        round.temp_files, &counters);
    // Logical run identity for fault injection: independent of host temp
    // paths, so a fixed seed replays the same corruptions.
    buffer->SetSpillResourcePrefix("run/j" + std::to_string(round.job_id) +
                                   "/m" + std::to_string(w) + "/a" +
                                   std::to_string(attempt_base + attempt));
    EngineMapContext context(buffer.get(), round.partitioner,
                             round.num_reducers);
    auto run_attempt = [&]() -> Status {
      std::unique_ptr<Mapper> mapper = spec.mapper_factory();
      if (mapper == nullptr) return Status::Internal("mapper factory failed");
      SPCUBE_RETURN_IF_ERROR(
          mapper->Setup(round.Task(w, /*reduce_partition=*/-1)));
      for (int64_t row = begin; row < end; ++row) {
        SPCUBE_RETURN_IF_ERROR(
            round.map_row(mapper.get(), begin, end, row, context));
        if (inject_failure && row - begin + 1 >= fault.fail_after_items) {
          return Status::IoError("injected map task failure");
        }
      }
      if (inject_failure) {
        return Status::IoError("injected map task failure (at finish)");
      }
      SPCUBE_RETURN_IF_ERROR(mapper->Finish(context));
      return buffer->FinalizeMapOutput();
    };
    last_error = run_attempt();
    state.busy_seconds += round.BusySince(start);
    if (last_error.ok()) {
      state.buffer = std::move(buffer);
      state.shuffle_counters = counters;
      state.custom_counters = context.TakeCounters();
      return state;
    }
    if (attempt + 1 < round.max_attempts) {
      ++state.retries;
      state.penalty_seconds += round.Backoff(attempt);
    }
  }
  state.status = Status(
      last_error.code(),
      "map task " + std::to_string(w) + " of job '" + spec.name +
          "' failed after " + std::to_string(round.max_attempts) +
          " attempt(s): " + last_error.message());
  return state;
}

/// One stealable pool task per simulated machine (a serial pool runs them
/// inline in machine order).
Status RunMapPhase(RoundState& round) {
  std::vector<std::function<Status()>> batch;
  batch.reserve(static_cast<size_t>(round.num_workers));
  for (int w = 0; w < round.num_workers; ++w) {
    // Explicit init-captures (thread-capture-escape rule): the task for
    // machine `w` writes only `map_tasks[w]`.
    batch.emplace_back([w, &round]() -> Status {
      MapTaskState& slot = round.map_tasks[static_cast<size_t>(w)];
      slot = RunMapTask(round, w, /*attempt_base=*/0);
      return slot.status;
    });
  }
  for (const Status& status : round.pool.Run(std::move(batch))) {
    SPCUBE_RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

// ---- Worker crashes & map charging ----------------------------------------

/// Crashes strike after the map phase: the machine's completed map outputs
/// are gone with its local disks (Hadoop re-executes those map tasks), and
/// the machine takes no reduce work. Charges the original map tasks first —
/// a straggler's speculative backup runs on the next machine, and crashed
/// machines still pay for work done before the crash — then re-executes
/// each crashed machine's map task on the least-loaded survivor, replacing
/// the lost result wholesale so no counter is double-counted.
Status RecoverCrashedMachines(RoundState& round) {
  const int num_workers = round.num_workers;
  JobMetrics& metrics = round.metrics;
  std::vector<int> crashed;
  if (round.plan != nullptr && num_workers > 1) {
    crashed = round.plan->CrashedWorkers(round.job_id, num_workers);
    for (int w : crashed) round.alive[static_cast<size_t>(w)] = false;
    metrics.workers_crashed = static_cast<int64_t>(crashed.size());
  }

  std::vector<double> map_seconds(static_cast<size_t>(num_workers), 0.0);
  const auto charge_map = [&map_seconds](int machine, double seconds) {
    map_seconds[static_cast<size_t>(machine)] += seconds;
  };
  for (int w = 0; w < num_workers; ++w) {
    const int backup = num_workers > 1 ? (w + 1) % num_workers : -1;
    ChargeTask(round.map_tasks[static_cast<size_t>(w)], w, backup,
               round.config.speculative_execution, &metrics, charge_map);
  }

  for (int w : crashed) {
    MapTaskState& lost = round.map_tasks[static_cast<size_t>(w)];
    lost.buffer.reset();  // gone with the disk
    MapTaskState redo = RunMapTask(round, w, round.max_attempts);
    SPCUBE_RETURN_IF_ERROR(redo.status);
    int host = -1;
    for (int h = 0; h < num_workers; ++h) {
      if (!round.alive[static_cast<size_t>(h)]) continue;
      if (host < 0 || map_seconds[static_cast<size_t>(h)] <
                          map_seconds[static_cast<size_t>(host)]) {
        host = h;
      }
    }
    SPCUBE_CHECK(host >= 0) << "no surviving worker to re-execute on";
    const double charged = redo.busy_seconds * redo.slowdown_factor +
                           redo.penalty_seconds + round.Backoff(0);
    map_seconds[static_cast<size_t>(host)] += charged;
    metrics.fault_recovery_seconds += charged;
    metrics.task_retries += redo.retries;
    ++metrics.tasks_reexecuted_after_crash;
    lost = std::move(redo);
  }
  metrics.map_phase.per_worker_seconds = std::move(map_seconds);
  return Status::OK();
}

// ---- Shuffle & reduce placement -------------------------------------------

/// Hands every map task's per-partition output to the reducers, machine
/// by machine, and charges the modeled transfer time.
void AssembleShuffle(RoundState& round) {
  JobMetrics& metrics = round.metrics;
  for (int p = 0; p < round.num_reducers; ++p) {
    ReduceInput& in = round.reduce_inputs[static_cast<size_t>(p)];
    // Wire bytes: what actually crosses the network for this reducer —
    // in-memory segment payloads plus the on-disk (delta/varint-encoded)
    // bytes of spilled runs (docs/INTERNALS.md §13).
    int64_t wire_bytes = 0;
    for (MapTaskState& task : round.map_tasks) {
      // Zero-copy hand-off: the segment keeps the map task's arena alive;
      // no Record materialization between map output and reduce input.
      ShuffleSegment segment = task.buffer->TakeMemorySegment(p);
      in.total_bytes += segment.payload_bytes();
      in.total_records += segment.num_records();
      wire_bytes += segment.payload_bytes();
      if (!segment.empty()) in.memory_segments.push_back(std::move(segment));
      for (RunInfo& run : task.buffer->TakeSpillRuns(p)) {
        in.total_bytes += run.payload_bytes;
        in.total_records += run.records;
        wire_bytes += run.file_bytes;
        in.spill_runs.push_back(std::move(run));
      }
    }
    metrics.reducer_input_records[static_cast<size_t>(p)] = in.total_records;
    metrics.reducer_input_bytes[static_cast<size_t>(p)] = in.total_bytes;
    metrics.reducer_wire_bytes[static_cast<size_t>(p)] = wire_bytes;
    metrics.shuffle_records += in.total_records;
    metrics.shuffle_bytes += in.total_bytes;
  }
  // Transfer time charges the bytes that actually move: the bottleneck
  // reducer's wire bytes at the modeled bandwidth.
  const double bandwidth = round.config.network_bandwidth_bytes_per_sec;
  metrics.shuffle_seconds =
      bandwidth > 0
          ? static_cast<double>(metrics.MaxReducerWireBytes()) / bandwidth
          : 0.0;
}

/// Assigns reduce tasks to the surviving machines with a
/// longest-processing-time greedy over their (known) input sizes, as a
/// locality-free scheduler would: largest partitions first, each to the
/// currently least-loaded machine.
void PlaceReduceTasks(RoundState& round) {
  const std::vector<int64_t>& bytes = round.metrics.reducer_input_bytes;
  std::vector<int> alive_machines;
  for (int w = 0; w < round.num_workers; ++w) {
    if (round.alive[static_cast<size_t>(w)]) alive_machines.push_back(w);
  }
  SPCUBE_CHECK(!alive_machines.empty());
  std::vector<int> by_size(static_cast<size_t>(round.num_reducers));
  for (int p = 0; p < round.num_reducers; ++p) {
    by_size[static_cast<size_t>(p)] = p;
  }
  std::sort(by_size.begin(), by_size.end(), [&bytes](int a, int b) {
    return bytes[static_cast<size_t>(a)] > bytes[static_cast<size_t>(b)];
  });
  std::vector<int64_t> machine_load(static_cast<size_t>(round.num_workers), 0);
  for (int p : by_size) {
    int best = alive_machines.front();
    for (int w : alive_machines) {
      if (machine_load[static_cast<size_t>(w)] <
          machine_load[static_cast<size_t>(best)]) {
        best = w;
      }
    }
    round.machine_of[static_cast<size_t>(p)] = best;
    machine_load[static_cast<size_t>(best)] += bytes[static_cast<size_t>(p)];
  }
}

// ---- Reduce ---------------------------------------------------------------

/// Runs one reducer; shared by a partition's attempts, the split
/// recovery's leaves and its merge round: builds a reducer with `factory`,
/// sets it up as partition `p` on `machine`, feeds it every group of
/// `stream` and finishes it. `inject` (may be null) is an injected
/// transient failure: the attempt dies after inject->fail_after_items
/// groups, or before Finish if the input runs out first. Output and
/// counters reach `out` and `counters` only if the whole attempt succeeds.
/// With `merge_out` (a split recovery leaf), the outputs of the groups
/// whose keys are in `spread_keys` (ascending), and Finish's, go there.
Status RunReducer(const RoundState& round, int p, int machine,
                  const ReducerFactory& factory, GroupedRecordStream* stream,
                  const TaskFault* inject, std::vector<ShuffleSegment>* out,
                  CounterMap* counters,
                  std::vector<ShuffleSegment>* merge_out = nullptr,
                  const std::vector<std::string>& spread_keys = {}) {
  std::unique_ptr<Reducer> reducer = factory();
  if (reducer == nullptr) return Status::Internal("reducer factory failed");
  SPCUBE_RETURN_IF_ERROR(reducer->Setup(round.Task(machine, p)));
  EngineReduceContext context;
  std::string key;
  auto spread = spread_keys.begin();
  int64_t groups = 0;
  for (;;) {
    SPCUBE_ASSIGN_OR_RETURN(bool more, stream->NextGroup(&key));
    if (!more) break;
    while (spread != spread_keys.end() && *spread < key) ++spread;
    context.RouteToMerge(spread != spread_keys.end() && *spread == key);
    GroupValueStream values(stream);
    SPCUBE_RETURN_IF_ERROR(reducer->Reduce(key, values, context));
    ++groups;
    if (inject != nullptr && groups >= inject->fail_after_items) {
      return Status::IoError("injected reduce task failure");
    }
  }
  if (inject != nullptr) {
    return Status::IoError("injected reduce task failure (at finish)");
  }
  // Finish's outputs belong to no group, so a leaf merges them.
  context.RouteToMerge(merge_out != nullptr);
  SPCUBE_RETURN_IF_ERROR(reducer->Finish(context));
  context.CommitTo(out, merge_out, counters);
  return Status::OK();
}

/// Adaptive split recovery (RecoverySpec, docs/INTERNALS.md §11). Reduces
/// `input` under `budget`; on a strict OOM splits it into sub-partitions
/// (SplitReduceInput; recursively, up to max_split_depth) and reduces each.
/// Degradation cost (one backoff per split plus the re-scatter transfer) is
/// charged to `state`. Every output lands in `state->output` except those
/// of spread groups (`input.spread_keys`), the only ones whose keys can
/// repeat (RecoverySpec): a call at depth > 0 appends them to
/// `merge_input`, in leaf (DFS) order, and the depth-0 call merges them
/// once, even when none exist, with the job's merge reducer.
Status ReduceWithSplit(const RoundState& round, int p, int machine,
                       const ReduceInput& input, int64_t budget, int depth,
                       ReduceTaskState* state,
                       std::vector<ShuffleSegment>* merge_input) {
  const JobSpec& spec = round.spec;
  const std::string resource_prefix =
      "recover/j" + std::to_string(round.job_id) + "/red" +
      std::to_string(p) + "/d" + std::to_string(depth);
  // Cheap retry-safe copy: segments and runs are shared refs.
  auto stream = MakeGroupedStream(
      input, budget, MemoryPolicy::kStrict, round.temp_files,
      &state->shuffle_counters, round.plan, resource_prefix);
  if (stream.ok()) {
    return RunReducer(round, p, machine, spec.reducer_factory, stream->get(),
                      /*inject=*/nullptr, &state->output,
                      &state->custom_counters, merge_input, input.spread_keys);
  }
  if (!stream.status().IsResourceExhausted()) return stream.status();
  if (depth >= spec.recovery.max_split_depth) {
    return Status(stream.status().code(),
                  "split recovery exhausted max_split_depth=" +
                      std::to_string(spec.recovery.max_split_depth) + ": " +
                      stream.status().message());
  }

  // Still over budget: scatter into sub-partitions. The scatter depends
  // only on the input's records, so threaded and sequential runs (and
  // same-seed reruns) split identically.
  const int fanout = std::max(2, spec.recovery.split_fanout);
  SPCUBE_ASSIGN_OR_RETURN(
      std::vector<ReduceInput> subs,
      SplitReduceInput(input, fanout, budget, round.temp_files,
                       &state->shuffle_counters, round.plan,
                       resource_prefix));

  int64_t reshuffled = 0;
  for (const ReduceInput& sub : subs) reshuffled += sub.total_bytes;
  ++state->recovery_rounds;
  state->bytes_reshuffled += reshuffled;
  // Charge the degradation to simulated time: a backoff before the split
  // round (the depth extends the task's retry chain) plus the re-scatter
  // transfer at the modeled bandwidth.
  double charge = round.Backoff(round.max_attempts + depth);
  if (round.config.network_bandwidth_bytes_per_sec > 0) {
    charge += static_cast<double>(reshuffled) /
              round.config.network_bandwidth_bytes_per_sec;
  }
  state->penalty_seconds += charge;
  state->recovery_seconds += charge;

  ReduceInput merge_round;  // depth 0: the spread groups' partials
  std::vector<ShuffleSegment>* partials =
      depth == 0 ? &merge_round.memory_segments : merge_input;
  Status sub_status = Status::OK();
  for (const ReduceInput& sub : subs) {
    if (sub.total_records == 0) continue;
    sub_status = ReduceWithSplit(round, p, machine, sub, budget, depth + 1,
                                 state, partials);
    if (!sub_status.ok()) break;
  }
  // The sub-inputs' shared spill file is recovery-private: releasing
  // `subs` deletes it, whether or not the sub-attempts succeeded.
  subs.clear();
  SPCUBE_RETURN_IF_ERROR(sub_status);
  if (depth > 0) return Status::OK();

  // The one merge round: the spread groups' partials re-group by key in the
  // shuffle's in-memory stream (no budget: they are in memory already) and
  // the merge reducer restores the unsplit values. A key's values arrive in
  // leaf order, so any floating-point evaluation order is deterministic.
  auto merge = MakeGroupedStream(
      std::move(merge_round), std::numeric_limits<int64_t>::max(),
      MemoryPolicy::kStrict, round.temp_files, /*counters=*/nullptr);
  if (!merge.ok()) return merge.status();
  return RunReducer(round, p, machine, spec.recovery.merge_reducer_factory,
                    merge->get(), /*inject=*/nullptr, &state->output,
                    &state->custom_counters);
}

/// Runs reduce partition `p` to completion (with retries and, when the job
/// allows it, split recovery) on its machine. Writes only partition `p`'s
/// `reduce_inputs` and `reduce_tasks` slots.
Status ReducePartition(RoundState& round, int p) {
  const JobSpec& spec = round.spec;
  const int machine = round.machine_of[static_cast<size_t>(p)];
  ReduceInput& input = round.reduce_inputs[static_cast<size_t>(p)];
  ReduceTaskState& state = round.reduce_tasks[static_cast<size_t>(p)];
  const BusyStart start;

  Status last_error = Status::OK();
  bool succeeded = false;
  for (int attempt = 0; attempt < round.max_attempts && !succeeded;
       ++attempt) {
    const TaskFault fault = round.PlanAttempt(TaskKind::kReduce, p, attempt);
    const bool inject_failure = fault.fail && attempt + 1 < round.max_attempts;
    state.slowdown_factor = std::max(state.slowdown_factor,
                                     fault.slowdown_factor);
    // Injected memory pressure shrinks this attempt's effective budget (a
    // co-tenant eating the heap); drawn per attempt, so pressure is
    // transient.
    const double budget_factor = std::clamp(fault.budget_factor, 1e-6, 1.0);
    const int64_t attempt_budget = std::max<int64_t>(
        1, static_cast<int64_t>(
               static_cast<double>(round.config.memory_budget_bytes) *
               budget_factor));

    // With retries or split recovery enabled, a failed attempt needs the
    // input again, so it is copied (segments and runs are cheap shared
    // refs); `input` keeps the spill files alive across attempts.
    ReduceInput attempt_input;
    if (attempt + 1 < round.max_attempts || round.recovery_enabled) {
      attempt_input = input;
    } else {
      attempt_input = std::move(input);
    }
    auto stream = MakeGroupedStream(
        std::move(attempt_input), attempt_budget, spec.memory_policy,
        round.temp_files, &state.shuffle_counters, round.plan,
        "run/j" + std::to_string(round.job_id) + "/red" + std::to_string(p) +
            "/a" + std::to_string(attempt));
    last_error =
        stream.ok()
            ? RunReducer(round, p, machine, spec.reducer_factory,
                         stream->get(), inject_failure ? &fault : nullptr,
                         &state.output, &state.custom_counters)
            : stream.status();
    if (last_error.ok()) {
      succeeded = true;
    } else if (last_error.IsResourceExhausted()) {
      if (round.recovery_enabled) {
        // Degrade instead of dying: split the partition, reduce the
        // sub-partitions, merge — committed exactly like a normal
        // successful attempt.
        last_error = ReduceWithSplit(round, p, machine, input, attempt_budget,
                                     /*depth=*/0, &state,
                                     /*merge_input=*/nullptr);
        if (!last_error.ok()) break;
        succeeded = true;
      } else if (budget_factor < 1.0 && attempt + 1 < round.max_attempts) {
        // The OOM came from injected budget pressure, which is transient:
        // a retried attempt may draw its full budget back.
        ++state.retries;
        state.penalty_seconds += round.Backoff(attempt);
      } else {
        // A full-budget kStrict OOM is permanent — re-running cannot
        // shrink the input — and this job does not permit splitting;
        // explain why so the failure is actionable.
        last_error = Status(
            last_error.code(),
            last_error.message() + " (adaptive partition splitting " +
                (spec.recovery.reject_reason.empty()
                     ? std::string("is not enabled for this job")
                     : "was rejected: " + spec.recovery.reject_reason) +
                ")");
        break;
      }
    } else if (attempt + 1 < round.max_attempts) {
      ++state.retries;
      state.penalty_seconds += round.Backoff(attempt);
    }
  }
  state.busy_seconds = round.BusySince(start);
  // The partition is done either way: drop its input, so each spill file
  // is deleted as soon as no partition's run references it.
  input = ReduceInput{};
  if (!succeeded) {
    return Status(last_error.code(), "reduce task " + std::to_string(p) +
                                         " of job '" + spec.name +
                                         "': " + last_error.message());
  }
  return Status::OK();
}

/// One stealable pool task per partition, so a skewed partition list keeps
/// every host core busy; simulated ownership is untouched (FoldRound
/// charges each partition to `machine_of[p]`).
Status RunReducePhase(RoundState& round) {
  std::vector<std::function<Status()>> batch;
  batch.reserve(static_cast<size_t>(round.num_reducers));
  for (int p = 0; p < round.num_reducers; ++p) {
    // Explicit init-captures (thread-capture-escape rule): the task for
    // partition `p` writes only partition `p`'s slots.
    batch.emplace_back([p, &round]() { return ReducePartition(round, p); });
  }
  for (const Status& status : round.pool.Run(std::move(batch))) {
    SPCUBE_RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

// ---- Fold -----------------------------------------------------------------

/// Folds every task's counters into the round's metrics, charges the
/// reduce tasks to their machines (a straggler's speculative backup bills
/// the next live machine), and delivers the committed output to
/// `collector` in partition order — at any thread count, task completion
/// order is unobservable downstream (a multi-round algorithm feeds this
/// round's collector straight into the next round's mappers).
Status FoldRound(RoundState& round, OutputCollector* collector) {
  JobMetrics& metrics = round.metrics;
  ShuffleCounters shuffle;
  for (const MapTaskState& task : round.map_tasks) {
    shuffle += task.shuffle_counters;
    AddCounters(task.custom_counters, &metrics.custom_counters);
  }
  const auto charge_reduce = [&metrics](int machine, double seconds) {
    metrics.reduce_phase.Accumulate(machine, seconds);
  };
  for (int p = 0; p < round.num_reducers; ++p) {
    const int machine = round.machine_of[static_cast<size_t>(p)];
    const ReduceTaskState& state = round.reduce_tasks[static_cast<size_t>(p)];
    ChargeTask(state, machine, round.NextAlive(machine),
               round.config.speculative_execution, &metrics, charge_reduce);
    if (state.recovery_rounds > 0) ++metrics.reduce_partitions_split;
    metrics.recovery_rounds += state.recovery_rounds;
    metrics.recovery_bytes_reshuffled += state.bytes_reshuffled;
    metrics.recovery_seconds += state.recovery_seconds;
    shuffle += state.shuffle_counters;
    AddCounters(state.custom_counters, &metrics.custom_counters);
    int64_t produced = 0;
    for (const ShuffleSegment& segment : state.output) {
      produced += segment.num_records();
    }
    metrics.reducer_output_records[static_cast<size_t>(p)] = produced;
    metrics.output_records += produced;
  }
  metrics.map_output_records = shuffle.map_output_records;
  metrics.map_output_bytes = shuffle.map_output_bytes;
  metrics.combine_input_records = shuffle.combine_input_records;
  metrics.combine_output_records = shuffle.combine_output_records;
  metrics.spill_bytes = shuffle.spill_bytes;
  metrics.shuffle_checksum_mismatches = shuffle.checksum_mismatches;

  if (collector == nullptr) return Status::OK();
  collector->Reserve(metrics.output_records);
  for (int p = 0; p < round.num_reducers; ++p) {
    // Moved out so each partition's arenas are freed once delivered.
    const std::vector<ShuffleSegment> output =
        std::move(round.reduce_tasks[static_cast<size_t>(p)].output);
    for (const ShuffleSegment& segment : output) {
      for (const ShuffleRecordRef& ref : segment.refs()) {
        SPCUBE_RETURN_IF_ERROR(collector->Collect(p, ref.key(), ref.value()));
      }
    }
  }
  return Status::OK();
}

}  // namespace

Engine::Engine(EngineConfig config, DistributedFileSystem* dfs)
    : config_(config), dfs_(dfs), temp_files_("engine") {
  SPCUBE_CHECK(config_.num_workers >= 1);
  SPCUBE_CHECK(config_.memory_budget_bytes > 0);
  if (config_.fault_plan != nullptr && dfs_ != nullptr) {
    dfs_->SetFaultInjector(config_.fault_plan);
  }
}

Result<JobMetrics> Engine::Run(const JobSpec& spec, const Relation& input,
                               OutputCollector* collector) {
  return RunImpl(
      spec, input.num_rows(),
      [&input](Mapper* mapper, int64_t begin, int64_t end, int64_t row,
               MapContext& context) {
        // The split is a borrowed view over [begin, end): constructing it is
        // three words, and the mapper addresses rows relative to its split —
        // no tuple data is copied per task (asserted by tests/engine_test.cc).
        return mapper->Map(RelationView(input, begin, end), row - begin,
                           context);
      },
      collector);
}

Result<JobMetrics> Engine::RunRecords(const JobSpec& spec,
                                      const std::vector<Record>& input,
                                      OutputCollector* collector) {
  return RunImpl(
      spec, static_cast<int64_t>(input.size()),
      [&input](Mapper* mapper, int64_t /*begin*/, int64_t /*end*/,
               int64_t row, MapContext& context) {
        return mapper->MapRecord(input[static_cast<size_t>(row)], context);
      },
      collector);
}

Result<JobMetrics> Engine::RunImpl(
    const JobSpec& spec, int64_t num_input_rows,
    const std::function<Status(Mapper*, int64_t begin, int64_t end,
                               int64_t row, MapContext&)>& map_row,
    OutputCollector* collector) {
  if (!spec.mapper_factory || !spec.reducer_factory) {
    return Status::InvalidArgument("job needs mapper and reducer factories");
  }
  RoundState round(config_, spec, dfs_, &temp_files_, map_row,
                   num_input_rows);
  SPCUBE_RETURN_IF_ERROR(RunMapPhase(round));
  SPCUBE_RETURN_IF_ERROR(RecoverCrashedMachines(round));
  AssembleShuffle(round);
  PlaceReduceTasks(round);
  SPCUBE_RETURN_IF_ERROR(RunReducePhase(round));
  SPCUBE_RETURN_IF_ERROR(FoldRound(round, collector));
  return std::move(round.metrics);
}

}  // namespace spcube
