#include "mapreduce/engine.h"

// spcube-lint: allow(no-host-time): clock_gettime measures task busy time
#include <time.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/task_pool.h"
#include "common/thread_annotations.h"
#include "mapreduce/backoff.h"
#include "mapreduce/fault.h"
#include "mapreduce/shuffle.h"

namespace spcube {
namespace {

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

/// Thread-safe accumulator for JobMetrics::custom_counters, the one piece
/// of job state that reduce worker threads write while running (map tasks
/// merge after the phase join). Annotated so -Wthread-safety and the
/// analyzer's lock-discipline rule can prove the locking.
class CounterMerger {
 public:
  explicit CounterMerger(std::map<std::string, int64_t>* totals)
      : totals_(totals) {}

  void Merge(const std::map<std::string, int64_t>& deltas)
      SPCUBE_EXCLUDES(mu_) {
    if (deltas.empty()) return;
    MutexLock lock(&mu_);
    for (const auto& [name, delta] : deltas) {
      (*totals_)[name] += delta;
    }
  }

 private:
  Mutex mu_;
  std::map<std::string, int64_t>* const totals_ SPCUBE_PT_GUARDED_BY(mu_);
};

/// Per-partition staging buffer for threaded reduce output. Each instance
/// is written by exactly one worker thread (the partition's owner machine)
/// and read only after the phase join, so it needs no lock; the replay into
/// the user collector then happens in partition order, keeping thread
/// completion order unobservable.
class StagingCollector : public OutputCollector {
 public:
  Status Collect(int reducer_id, std::string_view key,
                 std::string_view value) override {
    (void)reducer_id;
    // spcube-lint: allow(no-owning-copy-in-hot-path): staged records must outlive the reduce attempt whose buffers back these views
    records_.push_back(Record{std::string(key), std::string(value)});
    return Status::OK();
  }

  const std::vector<Record>& records() const { return records_; }

 private:
  std::vector<Record> records_;
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

  const std::map<std::string, int64_t>& counters() const { return counters_; }
  std::map<std::string, int64_t> TakeCounters() { return std::move(counters_); }

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
  std::map<std::string, int64_t> counters_;
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

/// Buffers a reduce attempt's output and publishes it only on success, so
/// failed attempts (which are retried from scratch) leave no trace in the
/// job output — the commit protocol of a real MapReduce runtime.
class EngineReduceContext : public ReduceContext {
 public:
  Status Output(std::string_view key, std::string_view value) override {
    // spcube-lint: allow(no-owning-copy-in-hot-path): attempt-private commit buffer must own its bytes past the reducer's scratch lifetime
    pending_.push_back(Record{std::string(key), std::string(value)});
    return Status::OK();
  }

  void IncrementCounter(const std::string& name, int64_t delta) override {
    counters_[name] += delta;
  }

  const std::map<std::string, int64_t>& counters() const { return counters_; }

  /// Hands over the buffered output without committing — the split-recovery
  /// path collects sub-attempt outputs for a later merge round instead of
  /// publishing them.
  std::vector<Record> TakePending() { return std::move(pending_); }

  Status Commit(OutputCollector* collector, int reducer_id,
                int64_t* output_records) {
    *output_records += static_cast<int64_t>(pending_.size());
    if (collector != nullptr) {
      for (const Record& record : pending_) {
        SPCUBE_RETURN_IF_ERROR(
            collector->Collect(reducer_id, record.key, record.value));
      }
    }
    pending_.clear();
    return Status::OK();
  }

 private:
  std::vector<Record> pending_;
  std::map<std::string, int64_t> counters_;
};

/// Everything one producer sub-task of a map task produced. A machine's
/// split is cut into `EngineConfig::map_producers_per_machine` contiguous
/// sub-ranges; each producer maps its sub-range through its own mapper
/// instance into its own arena-backed ShuffleBuffer (its share of the
/// machine budget), so concurrent producers never touch a shared arena or
/// combiner index. Results merge in producer-index order.
struct ProducerResult {
  std::unique_ptr<ShuffleBuffer> buffer;
  ShuffleCounters counters;
  std::map<std::string, int64_t> custom_counters;
  double busy_seconds = 0.0;  // measured by the executing host thread
};

/// Everything one map task produced, isolated so that worker-crash recovery
/// can discard and replace a task's contribution wholesale (output, shuffle
/// counters and user counters all come from exactly one successful attempt).
/// `buffers` holds one ShuffleBuffer per producer, in producer-index order.
struct MapTaskState {
  std::vector<std::unique_ptr<ShuffleBuffer>> buffers;
  ShuffleCounters shuffle_counters;
  std::map<std::string, int64_t> custom_counters;
  double busy_seconds = 0.0;     // measured across all attempts
  double penalty_seconds = 0.0;  // modeled retry backoff
  double slowdown_factor = 1.0;  // >1: injected straggler
  int64_t retries = 0;           // failed attempts that were retried
  Status status;
};

/// Timing record of one reduce task; charged to its machine after the phase
/// joins so speculative copies never race across machine threads.
struct ReduceTaskState {
  double busy_seconds = 0.0;
  double penalty_seconds = 0.0;
  double slowdown_factor = 1.0;
  int64_t retries = 0;
  // Adaptive split recovery (folded into JobMetrics after the phase joins).
  int64_t recovery_rounds = 0;
  int64_t bytes_reshuffled = 0;
  double recovery_seconds = 0.0;
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

/// ValueStream over a contiguous [begin, end) range of Records — feeds the
/// merge reducer one key's partial final values during split recovery.
class RecordRangeValueStream : public ValueStream {
 public:
  RecordRangeValueStream(const std::vector<Record>& records, size_t begin,
                         size_t end)
      : records_(records), pos_(begin), end_(end) {}

  Result<bool> Next(std::string* value) override {
    if (pos_ >= end_) return false;
    value->assign(records_[pos_].value);
    ++pos_;
    return true;
  }

 private:
  const std::vector<Record>& records_;
  size_t pos_;
  size_t end_;
};

}  // namespace

Engine::Engine(EngineConfig config, DistributedFileSystem* dfs)
    : config_(config), dfs_(dfs), temp_files_("engine") {
  SPCUBE_CHECK(config_.num_workers >= 1);
  SPCUBE_CHECK(config_.memory_budget_bytes > 0);
  SPCUBE_CHECK(config_.map_producers_per_machine >= 1)
      << "map_producers_per_machine must be >= 1, got "
      << config_.map_producers_per_machine;
  SPCUBE_CHECK(config_.combine_headroom_fraction > 0.0 &&
               config_.combine_headroom_fraction <= 1.0)
      << "combine_headroom_fraction must be in (0, 1], got "
      << config_.combine_headroom_fraction;
  SPCUBE_CHECK(config_.retry_backoff_jitter >= 0.0 &&
               config_.retry_backoff_jitter <= 1.0)
      << "retry_backoff_jitter must be in [0, 1], got "
      << config_.retry_backoff_jitter;
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
  const int num_workers = config_.num_workers;
  const int num_reducers =
      spec.num_reducers > 0 ? spec.num_reducers : num_workers;

  static const HashPartitioner kDefaultPartitioner;
  const Partitioner* partitioner =
      spec.partitioner != nullptr ? spec.partitioner.get()
                                  : &kDefaultPartitioner;

  FaultPlan* plan = config_.fault_plan;
  const int64_t job_id = plan != nullptr ? plan->BeginJob(spec.name) : 0;
  const int max_attempts =
      std::max({1, spec.max_task_attempts, config_.min_task_attempts});

  // One shared backoff schedule for every retry/recovery site: capped
  // exponential, jitter seeded purely from stable coordinates so charged
  // times never depend on threading or call order.
  const uint64_t backoff_seed =
      plan != nullptr ? plan->config().seed : 0;
  auto backoff_seconds = [&](TaskKind kind, int task, int attempt) {
    return RetryBackoffSeconds(config_.retry_backoff_seconds,
                               config_.retry_backoff_cap_seconds,
                               config_.retry_backoff_jitter, backoff_seed,
                               job_id, kind, task, attempt);
  };

  // Real execution resources: a seeded work-stealing pool sized to
  // host_threads (host cores under kHostThreadsAuto). The pool seed only
  // steers steal-victim orders — results are identical for any thread
  // count, which tests/threading_test.cc's determinism probe enforces.
  const int host_threads = config_.host_threads < 0
                               ? TaskPool::HostThreads()
                               : std::max(1, config_.host_threads);
  const bool threaded = host_threads > 1;
  TaskPool pool(host_threads, backoff_seed ^ 0x9e3779b97f4a7c15ull);
  // Busy time is the model's input: per-thread CPU time when real threads
  // share the host's cores (immune to preemption by the other simulated
  // machines), wall time when serial. Charged to the owning simulated
  // machine after the phase joins, regardless of which host thread ran.
  // spcube-lint: allow(no-host-time): measures task busy time for the model
  auto busy_since = [threaded](std::chrono::steady_clock::time_point wall,
                               double cpu) {
    return threaded ? ThreadCpuSeconds() - cpu : SecondsSince(wall);
  };
  const int producers = std::max(1, config_.map_producers_per_machine);

  // Adaptive split recovery is opt-in per job and only meaningful under
  // kStrict (kSpill never OOMs): see RecoverySpec in mapreduce/api.h.
  const bool recovery_enabled =
      spec.memory_policy == MemoryPolicy::kStrict &&
      spec.recovery.allow_partition_split &&
      spec.recovery.merge_reducer_factory != nullptr;

  JobMetrics metrics;
  metrics.job_name = spec.name;
  metrics.map_phase.EnsureWorkers(num_workers);
  metrics.reduce_phase.EnsureWorkers(num_workers);
  metrics.reducer_input_records.assign(static_cast<size_t>(num_reducers), 0);
  metrics.reducer_input_bytes.assign(static_cast<size_t>(num_reducers), 0);
  metrics.reducer_wire_bytes.assign(static_cast<size_t>(num_reducers), 0);
  metrics.reducer_output_records.assign(static_cast<size_t>(num_reducers), 0);
  metrics.round_overhead_seconds = config_.round_overhead_seconds;
  metrics.map_input_records = num_input_rows;

  // Custom-counter totals may be merged from several task threads.
  CounterMerger counter_merger(&metrics.custom_counters);

  // ---- Map phase ----------------------------------------------------------
  const int64_t n = num_input_rows;
  std::vector<MapTaskState> map_tasks(static_cast<size_t>(num_workers));

  // Runs map task `w` to completion (with retries). `attempt_base` offsets
  // the fault plan's attempt coordinate so a crash re-execution draws fresh
  // — but reproducible — luck instead of replaying its original faults.
  // The machine's split is cut into `producers` contiguous sub-ranges, each
  // a stealable pool sub-task, so an unbalanced split no longer serializes
  // behind one host thread.
  auto run_map_task = [&](int w, int attempt_base) -> MapTaskState {
    MapTaskState state;
    const int64_t begin = n * w / num_workers;
    const int64_t end = n * (w + 1) / num_workers;
    const int64_t split_rows = end - begin;
    // Fixed per-producer share of the machine budget: the *sum* of live
    // producer buffers can never exceed the machine budget, and the combine
    // headroom fraction applies to each share — spill triggers stay a pure
    // function of (config, seed), independent of thread interleaving.
    const int64_t producer_budget =
        std::max<int64_t>(1, config_.memory_budget_bytes / producers);

    Status last_error = Status::OK();
    bool succeeded = false;
    for (int attempt = 0; attempt < max_attempts && !succeeded; ++attempt) {
      // spcube-lint: allow(no-host-time): map-task busy-time measurement
      auto machine_wall = std::chrono::steady_clock::now();
      double machine_cpu = ThreadCpuSeconds();

      TaskFault fault;
      if (plan != nullptr) {
        fault = plan->PlanTaskAttempt(job_id, TaskKind::kMap, w,
                                      attempt_base + attempt);
      }
      // The plan models transient faults, so the final attempt is spared
      // injected failures (a real cluster's node blacklisting converges the
      // same way); genuine errors can still fail it.
      const bool inject_failure = fault.fail && attempt + 1 < max_attempts;
      if (fault.slowdown_factor > state.slowdown_factor) {
        state.slowdown_factor = fault.slowdown_factor;
      }
      // Map the plan's serial-order fail_after_items onto producers: the
      // failure strikes the producer whose sub-range contains that item
      // (after the equivalent number of *its own* items); counts beyond the
      // split — "at finish" failures — land on the last producer. Exactly
      // one producer dies, whatever the thread count.
      int fail_producer = producers - 1;
      int64_t fail_after_local = -1;  // < 0: fail at the producer's finish
      if (inject_failure && split_rows > 0 &&
          fault.fail_after_items <= split_rows) {
        const int64_t fail_row =
            begin + std::max<int64_t>(1, fault.fail_after_items) - 1;
        for (int j = 0; j < producers; ++j) {
          const int64_t sub_begin = begin + split_rows * j / producers;
          const int64_t sub_end = begin + split_rows * (j + 1) / producers;
          if (fail_row >= sub_begin && fail_row < sub_end) {
            fail_producer = j;
            fail_after_local = fail_row - sub_begin + 1;
            break;
          }
        }
      }

      // Fresh per-producer state per attempt; a failed attempt's partial
      // shuffle output and counters are discarded wholesale.
      std::vector<ProducerResult> parts(static_cast<size_t>(producers));

      // One producer's whole pipeline: own mapper instance, own buffer, own
      // busy clock — measured on whichever host thread executes it (stolen
      // or not) and summed into the owning machine's time after the join.
      auto run_producer = [&](int j) -> Status {
        ProducerResult& part = parts[static_cast<size_t>(j)];
        // spcube-lint: allow(no-host-time): producer busy-time measurement
        const auto start_wall = std::chrono::steady_clock::now();
        const double start_cpu = ThreadCpuSeconds();
        auto body = [&]() -> Status {
          const int64_t sub_begin = begin + split_rows * j / producers;
          const int64_t sub_end = begin + split_rows * (j + 1) / producers;
          part.buffer = std::make_unique<ShuffleBuffer>(
              num_reducers, producer_budget, spec.combiner.get(),
              &temp_files_, &part.counters,
              config_.combine_headroom_fraction);
          // Logical run identity for fault injection: independent of host
          // temp paths, so a fixed seed replays the same corruptions. The
          // single-producer prefix matches the pre-pool engine exactly.
          std::string prefix = "run/j" + std::to_string(job_id) + "/m" +
                               std::to_string(w) + "/a" +
                               std::to_string(attempt_base + attempt);
          if (producers > 1) prefix += "/p" + std::to_string(j);
          part.buffer->SetSpillResourcePrefix(prefix);
          EngineMapContext map_context(part.buffer.get(), partitioner,
                                       num_reducers);

          std::unique_ptr<Mapper> mapper = spec.mapper_factory();
          if (mapper == nullptr) {
            return Status::Internal("mapper factory failed");
          }
          TaskContext task{w, num_workers, num_reducers,
                           /*reduce_partition=*/-1,
                           config_.memory_budget_bytes, dfs_};
          SPCUBE_RETURN_IF_ERROR(mapper->Setup(task));
          const bool my_failure = inject_failure && j == fail_producer;
          int64_t items = 0;
          for (int64_t row = sub_begin; row < sub_end; ++row) {
            SPCUBE_RETURN_IF_ERROR(
                map_row(mapper.get(), begin, end, row, map_context));
            ++items;
            if (my_failure && fail_after_local >= 0 &&
                items >= fail_after_local) {
              return Status::IoError("injected map task failure");
            }
          }
          if (my_failure) {
            return Status::IoError("injected map task failure (at finish)");
          }
          SPCUBE_RETURN_IF_ERROR(mapper->Finish(map_context));
          part.custom_counters = map_context.TakeCounters();
          return part.buffer->FinalizeMapOutput();
        };
        Status status = body();
        part.busy_seconds = busy_since(start_wall, start_cpu);
        return status;
      };

      Status attempt_status = Status::OK();
      if (threaded && producers > 1) {
        // Producer sub-tasks are stealable pool units. Explicit
        // init-captures: the sub-task closure names everything crossing the
        // worker boundary; `run_producer` writes only `parts[j]` — the
        // disjoint-write contract (docs/INTERNALS.md §12). Errors surface
        // in producer-index order, so failure attribution is deterministic.
        std::vector<std::function<Status()>> sub_tasks;
        sub_tasks.reserve(static_cast<size_t>(producers));
        for (int j = 0; j < producers; ++j) {
          sub_tasks.emplace_back(
              [j, &produce = run_producer]() { return produce(j); });
        }
        // Bracket the machine task's own (non-nested) work so CPU this
        // worker spends helping with *other* pool tasks while waiting is
        // never charged to this machine.
        const double setup_busy = busy_since(machine_wall, machine_cpu);
        std::vector<Status> sub_statuses =
            pool.RunNested(std::move(sub_tasks));
        // spcube-lint: allow(no-host-time): map-task busy-time measurement
        machine_wall = std::chrono::steady_clock::now();
        machine_cpu = ThreadCpuSeconds();
        for (const Status& status : sub_statuses) {
          if (!status.ok()) {
            attempt_status = status;
            break;
          }
        }
        double producer_busy = 0.0;
        for (const ProducerResult& part : parts) {
          producer_busy += part.busy_seconds;
        }
        state.busy_seconds += setup_busy + producer_busy +
                              busy_since(machine_wall, machine_cpu);
      } else {
        // Serial pool (or a single producer): run inline in producer-index
        // order; the outer bracket covers the whole attempt, exactly like
        // the pre-pool engine.
        for (int j = 0; j < producers; ++j) {
          Status status = run_producer(j);
          if (!status.ok() && attempt_status.ok()) attempt_status = status;
        }
        state.busy_seconds += busy_since(machine_wall, machine_cpu);
      }

      last_error = attempt_status;
      if (last_error.ok()) {
        succeeded = true;
        state.buffers.clear();
        state.buffers.reserve(static_cast<size_t>(producers));
        // Merge in producer-index order: counters sum and segments hand
        // off deterministically however the sub-tasks were scheduled.
        for (ProducerResult& part : parts) {
          ShuffleCounters& total = state.shuffle_counters;
          total.map_output_records += part.counters.map_output_records;
          total.map_output_bytes += part.counters.map_output_bytes;
          total.combine_input_records += part.counters.combine_input_records;
          total.combine_output_records +=
              part.counters.combine_output_records;
          total.spill_bytes += part.counters.spill_bytes;
          total.checksum_mismatches += part.counters.checksum_mismatches;
          for (const auto& [name, delta] : part.custom_counters) {
            state.custom_counters[name] += delta;
          }
          state.buffers.push_back(std::move(part.buffer));
        }
      } else if (attempt + 1 < max_attempts) {
        ++state.retries;
        state.penalty_seconds += backoff_seconds(TaskKind::kMap, w, attempt);
      }
      // A failed attempt's buffers die with `parts` here; their destructors
      // reclaim any spill files the attempt wrote.
    }
    if (!succeeded) {
      state.status =
          Status(last_error.code(),
                 "map task " + std::to_string(w) + " of job '" + spec.name +
                     "' failed after " + std::to_string(max_attempts) +
                     " attempt(s): " + last_error.message());
    }
    return state;
  };

  {
    // One stealable pool task per simulated machine (serial pools run them
    // inline in machine order). Explicit init-captures: everything crossing
    // the worker boundary is named (thread-capture-escape rule). `tasks` is
    // shared mutably under the sanctioned disjoint-write contract — the
    // task for machine `w` writes only slot `tasks[w]`, and Run's join
    // publishes the slots to this thread (docs/INTERNALS.md §12).
    std::vector<std::function<Status()>> batch;
    batch.reserve(static_cast<size_t>(num_workers));
    for (int w = 0; w < num_workers; ++w) {
      batch.emplace_back(
          [w, &tasks = map_tasks, &run_task = run_map_task]() -> Status {
            tasks[static_cast<size_t>(w)] = run_task(w, 0);
            return tasks[static_cast<size_t>(w)].status;
          });
    }
    for (const Status& status : pool.Run(std::move(batch))) {
      SPCUBE_RETURN_IF_ERROR(status);
    }
  }

  // ---- Worker crashes & charging ------------------------------------------
  // Crashes strike after the map phase: the machine's completed map outputs
  // are gone with its local disks (Hadoop re-executes those map tasks), and
  // the machine takes no reduce work.
  std::vector<bool> alive(static_cast<size_t>(num_workers), true);
  std::vector<int> crashed;
  if (plan != nullptr && num_workers > 1) {
    crashed = plan->CrashedWorkers(job_id, num_workers);
    for (int w : crashed) alive[static_cast<size_t>(w)] = false;
    metrics.workers_crashed = static_cast<int64_t>(crashed.size());
  }
  const auto next_alive = [&](int from) {
    for (int i = 1; i < num_workers; ++i) {
      const int c = (from + i) % num_workers;
      if (alive[static_cast<size_t>(c)]) return c;
    }
    return -1;
  };

  // Charge the original map tasks; a straggler's speculative backup runs on
  // the next machine. Crashed machines still pay for their original tasks —
  // the work happened before the crash.
  std::vector<double> map_seconds(static_cast<size_t>(num_workers), 0.0);
  const auto charge_map = [&map_seconds](int machine, double seconds) {
    map_seconds[static_cast<size_t>(machine)] += seconds;
  };
  for (int w = 0; w < num_workers; ++w) {
    const int backup = num_workers > 1 ? (w + 1) % num_workers : -1;
    ChargeTask(map_tasks[static_cast<size_t>(w)], w, backup,
               config_.speculative_execution, &metrics, charge_map);
  }

  // Re-execute the crashed machines' map tasks on the least-loaded
  // survivors; their results replace the lost ones wholesale so no counter
  // is double-counted.
  for (int w : crashed) {
    map_tasks[static_cast<size_t>(w)].buffers.clear();  // lost with the disk
    MapTaskState redo = run_map_task(w, max_attempts);
    SPCUBE_RETURN_IF_ERROR(redo.status);
    int host = -1;
    for (int h = 0; h < num_workers; ++h) {
      if (!alive[static_cast<size_t>(h)]) continue;
      if (host < 0 || map_seconds[static_cast<size_t>(h)] <
                          map_seconds[static_cast<size_t>(host)]) {
        host = h;
      }
    }
    SPCUBE_CHECK(host >= 0) << "no surviving worker to re-execute on";
    const double charged = redo.busy_seconds * redo.slowdown_factor +
                           redo.penalty_seconds +
                           backoff_seconds(TaskKind::kMap, w, 0);
    map_seconds[static_cast<size_t>(host)] += charged;
    metrics.fault_recovery_seconds += charged;
    metrics.task_retries += redo.retries;
    ++metrics.tasks_reexecuted_after_crash;
    map_tasks[static_cast<size_t>(w)] = std::move(redo);
  }
  for (int w = 0; w < num_workers; ++w) {
    metrics.map_phase.per_worker_seconds[static_cast<size_t>(w)] =
        map_seconds[static_cast<size_t>(w)];
  }

  for (MapTaskState& task : map_tasks) {
    const ShuffleCounters& c = task.shuffle_counters;
    metrics.map_output_records += c.map_output_records;
    metrics.map_output_bytes += c.map_output_bytes;
    metrics.combine_input_records += c.combine_input_records;
    metrics.combine_output_records += c.combine_output_records;
    metrics.shuffle_checksum_mismatches += c.checksum_mismatches;
    counter_merger.Merge(task.custom_counters);
  }

  // ---- Shuffle: assemble per-reducer inputs -------------------------------
  std::vector<ReduceInput> reduce_inputs(static_cast<size_t>(num_reducers));
  for (int p = 0; p < num_reducers; ++p) {
    ReduceInput& in = reduce_inputs[static_cast<size_t>(p)];
    // Wire bytes: what actually crosses the network for this reducer —
    // in-memory segment payloads plus the on-disk (delta/varint-encoded)
    // bytes of spilled runs (docs/INTERNALS.md §13).
    int64_t wire_bytes = 0;
    for (int w = 0; w < num_workers; ++w) {
      // Machine-major, producer-minor: segments merge on hand-off in
      // producer-index order, so reduce input order is identical however
      // the producer sub-tasks were scheduled.
      for (const std::unique_ptr<ShuffleBuffer>& buffer_ptr :
           map_tasks[static_cast<size_t>(w)].buffers) {
        ShuffleBuffer& buffer = *buffer_ptr;
        // Zero-copy hand-off: the segment keeps the producer's arena alive;
        // no Record materialization between map output and reduce input.
        ShuffleSegment segment = buffer.TakeMemorySegment(p);
        in.total_bytes += segment.payload_bytes();
        in.total_records += segment.num_records();
        wire_bytes += segment.payload_bytes();
        if (!segment.empty()) {
          in.memory_segments.push_back(std::move(segment));
        }
        std::vector<RunInfo> runs = buffer.TakeSpillRuns(p);
        for (RunInfo& run : runs) {
          in.total_bytes += run.payload_bytes;
          in.total_records += run.records;
          wire_bytes += run.file_bytes;
          in.spill_runs.push_back(std::move(run));
        }
      }
    }
    metrics.reducer_input_records[static_cast<size_t>(p)] = in.total_records;
    metrics.reducer_input_bytes[static_cast<size_t>(p)] = in.total_bytes;
    metrics.reducer_wire_bytes[static_cast<size_t>(p)] = wire_bytes;
    metrics.shuffle_records += in.total_records;
    metrics.shuffle_bytes += in.total_bytes;
    metrics.shuffle_bytes_compressed += wire_bytes;
  }

  // Transfer time charges the bytes that actually move: when nothing
  // spills, wire bytes equal payload bytes and this is bit-identical to
  // the historical MaxReducerInputBytes() charge.
  metrics.shuffle_seconds =
      config_.network_bandwidth_bytes_per_sec > 0
          ? static_cast<double>(metrics.MaxReducerWireBytes()) /
                config_.network_bandwidth_bytes_per_sec
          : 0.0;

  // Drift observable: flag the round when the reducer-input skew crosses
  // the configured alert threshold (the trigger a deployment would use to
  // schedule a re-sketch; see EngineConfig).
  if (config_.reducer_imbalance_alert_threshold > 0.0 &&
      metrics.ReducerImbalance() >
          config_.reducer_imbalance_alert_threshold) {
    metrics.reducer_imbalance_alerts = 1;
  }

  // ---- Reduce phase --------------------------------------------------------
  // Assign reduce tasks to the surviving machines with a
  // longest-processing-time greedy over their (known) input sizes, as a
  // locality-free scheduler would: largest partitions first, each to the
  // currently least-loaded machine.
  std::vector<int> alive_machines;
  for (int w = 0; w < num_workers; ++w) {
    if (alive[static_cast<size_t>(w)]) alive_machines.push_back(w);
  }
  SPCUBE_CHECK(!alive_machines.empty());
  std::vector<int> machine_of(static_cast<size_t>(num_reducers), 0);
  {
    std::vector<int> by_size(static_cast<size_t>(num_reducers));
    for (int p = 0; p < num_reducers; ++p) by_size[static_cast<size_t>(p)] = p;
    std::sort(by_size.begin(), by_size.end(), [&metrics](int a, int b) {
      return metrics.reducer_input_bytes[static_cast<size_t>(a)] >
             metrics.reducer_input_bytes[static_cast<size_t>(b)];
    });
    std::vector<int64_t> machine_load(static_cast<size_t>(num_workers), 0);
    for (int p : by_size) {
      int best = alive_machines.front();
      for (int w : alive_machines) {
        if (machine_load[static_cast<size_t>(w)] <
            machine_load[static_cast<size_t>(best)]) {
          best = w;
        }
      }
      machine_of[static_cast<size_t>(p)] = best;
      machine_load[static_cast<size_t>(best)] +=
          metrics.reducer_input_bytes[static_cast<size_t>(p)];
    }
  }

  // Reduce-side spill/fetch accounting, one slot per *partition*: partition
  // tasks are independent pool units (two partitions owned by the same
  // simulated machine may run on different host threads concurrently), so
  // counters must be disjoint per task, not per machine.
  std::vector<ShuffleCounters> reduce_counters(
      static_cast<size_t>(num_reducers));
  std::vector<ReduceTaskState> reduce_tasks(
      static_cast<size_t>(num_reducers));

  // ---- Adaptive split recovery (RecoverySpec, docs/INTERNALS.md §11) ------
  // Runs a (sub-)partition's grouped stream through a reducer built by
  // `factory`, collecting output records and counters instead of
  // committing: nothing is published until the whole partition succeeds.
  auto run_reducer_collect =
      [&](int p, int machine, GroupedRecordStream* stream,
          const std::function<std::unique_ptr<Reducer>()>& factory,
          std::map<std::string, int64_t>* counters,
          std::vector<Record>* out) -> Status {
    std::unique_ptr<Reducer> reducer = factory();
    if (reducer == nullptr) return Status::Internal("reducer factory failed");
    TaskContext task{machine, num_workers, num_reducers,
                     /*reduce_partition=*/p, config_.memory_budget_bytes,
                     dfs_};
    SPCUBE_RETURN_IF_ERROR(reducer->Setup(task));
    EngineReduceContext context;
    std::string key;
    for (;;) {
      SPCUBE_ASSIGN_OR_RETURN(bool more, stream->NextGroup(&key));
      if (!more) break;
      GroupValueStream values(stream);
      SPCUBE_RETURN_IF_ERROR(reducer->Reduce(key, values, context));
    }
    SPCUBE_RETURN_IF_ERROR(reducer->Finish(context));
    for (const auto& [name, delta] : context.counters()) {
      (*counters)[name] += delta;
    }
    std::vector<Record> pending = context.TakePending();
    out->insert(out->end(), std::make_move_iterator(pending.begin()),
                std::make_move_iterator(pending.end()));
    return Status::OK();
  };

  // Reduces `input` under `budget`; on a strict OOM splits it into salted
  // sub-partitions (recursively, up to max_split_depth), reduces each, and
  // merges the partial final outputs with the job's merge reducer — legal
  // only under the RecoverySpec contract (unique output keys per group,
  // associative merge closed over final values). Degradation cost (one
  // backoff per split plus the re-scatter transfer) is charged to `state`.
  std::function<Status(int, int, const ReduceInput&, int64_t, int,
                       ReduceTaskState*, std::map<std::string, int64_t>*,
                       std::vector<Record>*)>
      reduce_with_split =
          [&](int p, int machine, const ReduceInput& input, int64_t budget,
              int depth, ReduceTaskState* state,
              std::map<std::string, int64_t>* counters,
              std::vector<Record>* out) -> Status {
    const std::string resource_prefix =
        "recover/j" + std::to_string(job_id) + "/red" + std::to_string(p) +
        "/d" + std::to_string(depth);
    // Cheap retry-safe copy: segments are shared refs, runs are path infos.
    ReduceInput attempt_input = input;
    auto stream_result = MakeGroupedStream(
        std::move(attempt_input), budget, MemoryPolicy::kStrict,
        &temp_files_, &reduce_counters[static_cast<size_t>(p)], plan,
        resource_prefix);
    if (stream_result.ok()) {
      std::unique_ptr<GroupedRecordStream> stream =
          std::move(stream_result).value();
      return run_reducer_collect(p, machine, stream.get(),
                                 spec.reducer_factory, counters, out);
    }
    if (!stream_result.status().IsResourceExhausted()) {
      return stream_result.status();
    }
    if (depth >= spec.recovery.max_split_depth) {
      return Status(stream_result.status().code(),
                    "split recovery exhausted max_split_depth=" +
                        std::to_string(spec.recovery.max_split_depth) +
                        ": " + stream_result.status().message());
    }

    // Still over budget: scatter into sub-partitions. The salt depends only
    // on stable coordinates, so threaded and sequential runs (and same-seed
    // reruns) split identically.
    const int fanout = std::max(2, spec.recovery.split_fanout);
    uint64_t salt = HashCombine(Mix64(backoff_seed ^ 0x5917ull),
                                static_cast<uint64_t>(job_id));
    salt = HashCombine(salt, HashCombine(static_cast<uint64_t>(p),
                                         static_cast<uint64_t>(depth)));
    auto split_result = SplitReduceInput(
        input, fanout, salt, &temp_files_,
        &reduce_counters[static_cast<size_t>(p)], plan,
        resource_prefix);
    if (!split_result.ok()) return split_result.status();
    std::vector<ReduceInput> subs = std::move(split_result).value();

    int64_t reshuffled = 0;
    for (const ReduceInput& sub : subs) reshuffled += sub.total_bytes;
    ++state->recovery_rounds;
    state->bytes_reshuffled += reshuffled;
    // Charge the degradation to simulated time: a backoff before the split
    // round (the depth extends the task's retry chain) plus the re-scatter
    // transfer at the modeled bandwidth.
    double charge =
        backoff_seconds(TaskKind::kReduce, p, max_attempts + depth);
    if (config_.network_bandwidth_bytes_per_sec > 0) {
      charge += static_cast<double>(reshuffled) /
                config_.network_bandwidth_bytes_per_sec;
    }
    state->penalty_seconds += charge;
    state->recovery_seconds += charge;

    std::vector<Record> sub_outputs;
    Status sub_status = Status::OK();
    for (const ReduceInput& sub : subs) {
      if (sub.total_records == 0) continue;
      sub_status = reduce_with_split(p, machine, sub, budget, depth + 1,
                                     state, counters, &sub_outputs);
      if (!sub_status.ok()) break;
    }
    // The sub-partition run files are recovery-private; reclaim the disk
    // now whether or not the sub-attempts succeeded.
    for (const ReduceInput& sub : subs) {
      for (const RunInfo& run : sub.spill_runs) RemoveFileIfExists(run.path);
    }
    if (!sub_status.ok()) return sub_status;

    // Merge round: partial outputs of the same key re-group and the merge
    // reducer restores the unsplit value. The stable sort keeps values in
    // sub-partition order within a key, so merge input order (and thus any
    // floating-point evaluation order) is deterministic.
    std::stable_sort(
        sub_outputs.begin(), sub_outputs.end(),
        [](const Record& a, const Record& b) { return a.key < b.key; });
    std::unique_ptr<Reducer> merger = spec.recovery.merge_reducer_factory();
    if (merger == nullptr) {
      return Status::Internal("merge reducer factory failed");
    }
    TaskContext task{machine, num_workers, num_reducers,
                     /*reduce_partition=*/p, config_.memory_budget_bytes,
                     dfs_};
    SPCUBE_RETURN_IF_ERROR(merger->Setup(task));
    EngineReduceContext merge_context;
    size_t i = 0;
    while (i < sub_outputs.size()) {
      size_t j = i + 1;
      while (j < sub_outputs.size() &&
             sub_outputs[j].key == sub_outputs[i].key) {
        ++j;
      }
      RecordRangeValueStream values(sub_outputs, i, j);
      SPCUBE_RETURN_IF_ERROR(
          merger->Reduce(sub_outputs[i].key, values, merge_context));
      i = j;
    }
    SPCUBE_RETURN_IF_ERROR(merger->Finish(merge_context));
    for (const auto& [name, delta] : merge_context.counters()) {
      (*counters)[name] += delta;
    }
    std::vector<Record> merged = merge_context.TakePending();
    out->insert(out->end(), std::make_move_iterator(merged.begin()),
                std::make_move_iterator(merged.end()));
    return Status::OK();
  };

  // `sink` receives partition p's reduce output: the real collector when
  // running sequentially, a per-partition staging buffer when threaded (so
  // delivery order is partition order, not thread completion order).
  auto run_reduce_partition = [&](int p, OutputCollector* sink) -> Status {
    const int machine = machine_of[static_cast<size_t>(p)];
    ReduceTaskState& state = reduce_tasks[static_cast<size_t>(p)];
    // spcube-lint: allow(no-host-time): reduce-task busy-time measurement
    const auto start = std::chrono::steady_clock::now();
    const double cpu_start = ThreadCpuSeconds();

    // Keep run paths for cleanup: MakeGroupedStream consumes the input.
    std::vector<std::string> run_paths;
    for (const RunInfo& run :
         reduce_inputs[static_cast<size_t>(p)].spill_runs) {
      run_paths.push_back(run.path);
    }

    Status last_error = Status::OK();
    bool succeeded = false;
    for (int attempt = 0; attempt < max_attempts && !succeeded; ++attempt) {
      TaskFault fault;
      if (plan != nullptr) {
        fault = plan->PlanTaskAttempt(job_id, TaskKind::kReduce, p, attempt);
      }
      const bool inject_failure = fault.fail && attempt + 1 < max_attempts;
      if (fault.slowdown_factor > state.slowdown_factor) {
        state.slowdown_factor = fault.slowdown_factor;
      }
      // Injected memory pressure shrinks this attempt's effective budget
      // (a co-tenant eating the heap); drawn per attempt, so pressure is
      // transient.
      const double budget_factor = std::clamp(fault.budget_factor, 1e-6, 1.0);
      const int64_t attempt_budget = std::max<int64_t>(
          1, static_cast<int64_t>(
                 static_cast<double>(config_.memory_budget_bytes) *
                 budget_factor));

      // With retries or split recovery enabled, a failed attempt needs the
      // input again, so the in-memory part is copied (segments are cheap
      // shared refs); spill-run files survive attempts either way.
      ReduceInput attempt_input;
      if (attempt + 1 < max_attempts || recovery_enabled) {
        attempt_input = reduce_inputs[static_cast<size_t>(p)];
      } else {
        attempt_input = std::move(reduce_inputs[static_cast<size_t>(p)]);
      }

      auto run_attempt = [&]() -> Status {
        auto stream_result = MakeGroupedStream(
            std::move(attempt_input), attempt_budget,
            spec.memory_policy, &temp_files_,
            &reduce_counters[static_cast<size_t>(p)], plan,
            "run/j" + std::to_string(job_id) + "/red" + std::to_string(p) +
                "/a" + std::to_string(attempt));
        if (!stream_result.ok()) return stream_result.status();
        std::unique_ptr<GroupedRecordStream> stream =
            std::move(stream_result).value();

        std::unique_ptr<Reducer> reducer = spec.reducer_factory();
        if (reducer == nullptr) {
          return Status::Internal("reducer factory failed");
        }
        TaskContext task{machine, num_workers, num_reducers,
                         /*reduce_partition=*/p, config_.memory_budget_bytes,
                         dfs_};
        SPCUBE_RETURN_IF_ERROR(reducer->Setup(task));

        EngineReduceContext reduce_context;
        std::string key;
        int64_t groups = 0;
        for (;;) {
          SPCUBE_ASSIGN_OR_RETURN(bool more, stream->NextGroup(&key));
          if (!more) break;
          GroupValueStream values(stream.get());
          SPCUBE_RETURN_IF_ERROR(
              reducer->Reduce(key, values, reduce_context));
          ++groups;
          if (inject_failure && groups >= fault.fail_after_items) {
            return Status::IoError("injected reduce task failure");
          }
        }
        if (inject_failure) {
          return Status::IoError("injected reduce task failure (at finish)");
        }
        SPCUBE_RETURN_IF_ERROR(reducer->Finish(reduce_context));
        SPCUBE_RETURN_IF_ERROR(reduce_context.Commit(
            sink, p,
            &metrics.reducer_output_records[static_cast<size_t>(p)]));
        counter_merger.Merge(reduce_context.counters());
        return Status::OK();
      };
      last_error = run_attempt();
      if (last_error.ok()) {
        succeeded = true;
      } else if (last_error.IsResourceExhausted()) {
        if (recovery_enabled) {
          // Degrade instead of dying: split the partition, reduce the
          // sub-partitions, merge — then commit exactly like a normal
          // successful attempt.
          std::map<std::string, int64_t> recovery_counters;
          std::vector<Record> recovered;
          last_error = reduce_with_split(
              p, machine, reduce_inputs[static_cast<size_t>(p)],
              attempt_budget, /*depth=*/0, &state, &recovery_counters,
              &recovered);
          if (!last_error.ok()) break;
          metrics.reducer_output_records[static_cast<size_t>(p)] +=
              static_cast<int64_t>(recovered.size());
          if (sink != nullptr) {
            for (const Record& record : recovered) {
              last_error = sink->Collect(p, record.key, record.value);
              if (!last_error.ok()) break;
            }
            if (!last_error.ok()) break;
          }
          counter_merger.Merge(recovery_counters);
          succeeded = true;
        } else if (budget_factor < 1.0 && attempt + 1 < max_attempts) {
          // The OOM came from injected budget pressure, which is
          // transient: a retried attempt may draw its full budget back.
          ++state.retries;
          state.penalty_seconds +=
              backoff_seconds(TaskKind::kReduce, p, attempt);
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
      } else if (attempt + 1 < max_attempts) {
        ++state.retries;
        state.penalty_seconds += backoff_seconds(TaskKind::kReduce, p, attempt);
      }
    }
    state.busy_seconds = busy_since(start, cpu_start);
    if (!succeeded) {
      return Status(last_error.code(),
                    "reduce task " + std::to_string(p) + " of job '" +
                        spec.name + "': " + last_error.message());
    }
    for (const std::string& path : run_paths) RemoveFileIfExists(path);
    return Status::OK();
  };

  {
    // One stealable pool task per partition — partitions no longer queue
    // behind their owner machine's single thread, so a skewed partition
    // list keeps every host core busy. Simulated ownership is untouched:
    // busy time is still charged to `machine_of[p]` after the join.
    //
    // When threaded, output is staged per partition and replayed into the
    // collector in partition order after the join: task completion order
    // must not be observable downstream (a multi-round algorithm feeds
    // this round's collector straight into the next round's mappers). A
    // serial pool runs the tasks inline in partition order, so it writes
    // to the collector directly — the behavior reference.
    //
    // Explicit init-captures (thread-capture-escape rule). Disjoint-write
    // contract: each pool task owns partition `p` exclusively, writing
    // distinct ReduceTaskState / reduce_counters / reducer-output /
    // staging slots; Run's join publishes everything.
    std::vector<StagingCollector> staged(
        threaded && collector != nullptr ? static_cast<size_t>(num_reducers)
                                         : 0u);
    std::vector<std::function<Status()>> batch;
    batch.reserve(static_cast<size_t>(num_reducers));
    for (int p = 0; p < num_reducers; ++p) {
      OutputCollector* sink =
          staged.empty() ? collector : &staged[static_cast<size_t>(p)];
      batch.emplace_back([p, sink, &run_partition = run_reduce_partition]() {
        return run_partition(p, sink);
      });
    }
    for (const Status& status : pool.Run(std::move(batch))) {
      SPCUBE_RETURN_IF_ERROR(status);
    }
    for (int p = 0; p < num_reducers && !staged.empty(); ++p) {
      for (const Record& record : staged[static_cast<size_t>(p)].records()) {
        SPCUBE_RETURN_IF_ERROR(
            collector->Collect(p, record.key, record.value));
      }
    }
  }

  // Charge the reduce tasks to their machines (after the join, so straggler
  // speculation can deterministically bill a second machine: the next live
  // one).
  const auto charge_reduce = [&metrics](int machine, double seconds) {
    metrics.reduce_phase.Accumulate(machine, seconds);
  };
  for (int p = 0; p < num_reducers; ++p) {
    const int machine = machine_of[static_cast<size_t>(p)];
    const ReduceTaskState& state = reduce_tasks[static_cast<size_t>(p)];
    ChargeTask(state, machine, next_alive(machine),
               config_.speculative_execution, &metrics, charge_reduce);
    if (state.recovery_rounds > 0) ++metrics.reduce_partitions_split;
    metrics.recovery_rounds += state.recovery_rounds;
    metrics.recovery_bytes_reshuffled += state.bytes_reshuffled;
    metrics.recovery_seconds += state.recovery_seconds;
  }

  // Spill bytes and fetch mismatches from reduce-side merging were
  // accumulated into the per-machine counters; fold them in with the
  // map-side spills.
  int64_t total_spill = 0;
  for (const MapTaskState& task : map_tasks) {
    total_spill += task.shuffle_counters.spill_bytes;
  }
  for (const ShuffleCounters& c : reduce_counters) {
    total_spill += c.spill_bytes;
    metrics.shuffle_checksum_mismatches += c.checksum_mismatches;
  }
  metrics.spill_bytes = total_spill;

  for (int64_t out : metrics.reducer_output_records) {
    metrics.output_records += out;
  }
  return metrics;
}

}  // namespace spcube
