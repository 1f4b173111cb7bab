#ifndef SPCUBE_MAPREDUCE_SHUFFLE_H_
#define SPCUBE_MAPREDUCE_SHUFFLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/bytes.h"
#include "common/lifetime.h"
#include "common/logging.h"
#include "common/status.h"
#include "io/spill.h"
#include "mapreduce/api.h"

namespace spcube {

class ShuffleSegment;

namespace internal {
/// Test seam for SPCUBE_LIFETIME_CHECKS death tests: resets the arena
/// inside `segment`'s shared rep so its refs go stale. Correct code cannot
/// reach this state (a segment owns its arena), which is exactly why the
/// stale-generation abort needs a seam to be testable. Never call outside
/// tests.
void DebugExpireSegment(ShuffleSegment* segment);
}  // namespace internal

/// A sorted run spilled to local disk: the byte range [offset, offset +
/// file_bytes) of a spill file it shares with the other runs written in
/// the same spill (docs/INTERNALS.md §9), plus the payload (key+value)
/// bytes it carries. Copies share the file, which is deleted once the last
/// RunInfo referencing it is destroyed; read a run through its range:
/// `SpillReader(run.path(), run.offset, run.file_bytes)`.
struct RunInfo {
  std::shared_ptr<const SpillFile> file;
  int64_t offset = 0;
  /// Stable logical identity (job/task/attempt/partition/run) used for
  /// fault-injection decisions instead of the path, which embeds the pid
  /// and a process-global counter and so is not reproducible. Empty means
  /// "use the path and offset" (buffers created outside an engine job).
  std::string resource;
  int64_t file_bytes = 0;
  int64_t payload_bytes = 0;
  int64_t records = 0;

  const std::string& path() const { return file->path(); }
};

/// Counters updated by the shuffle path of a single map task; the engine
/// aggregates them into JobMetrics.
struct ShuffleCounters {
  int64_t map_output_records = 0;
  int64_t map_output_bytes = 0;
  int64_t combine_input_records = 0;
  int64_t combine_output_records = 0;
  int64_t spill_bytes = 0;
  /// Fetches whose payload failed its CRC32C and was re-fetched.
  int64_t checksum_mismatches = 0;

  ShuffleCounters& operator+=(const ShuffleCounters& other) {
    map_output_records += other.map_output_records;
    map_output_bytes += other.map_output_bytes;
    combine_input_records += other.combine_input_records;
    combine_output_records += other.combine_output_records;
    spill_bytes += other.spill_bytes;
    checksum_mismatches += other.checksum_mismatches;
    return *this;
  }
};

/// Stateful spill-run record codec (docs/INTERNALS.md §13). Runs are
/// written in key order, so adjacent records share key prefixes; each
/// record's payload is
///
///   [varint shared_prefix_len | varint suffix_len | suffix bytes |
///    varint value_len | value bytes]
///
/// where shared_prefix_len counts key bytes reused from the previous record
/// of the same delta chain (0 for the first record). Encoder and decoder
/// advance in lockstep: Reset at chain boundaries, and feed the decoder
/// records strictly in write order. Production runs group records into
/// blocks (SpillBlockEncoder below) so one CRC frame amortizes over many
/// records; the chain resets at every block boundary, which keeps each
/// block self-contained — a re-fetched block re-parses with no cross-block
/// decoder state.
class SpillRecordEncoder {
 public:
  /// Appends one record's delta encoding to `out` (callers reuse the writer
  /// across records).
  void Append(std::string_view key, std::string_view value, ByteWriter* out);

  void Reset() { prev_key_.clear(); }

 private:
  std::string prev_key_;
};

class SpillRecordDecoder {
 public:
  /// Decodes the next record of the chain. `*key` views into decoder-owned
  /// storage valid until the next Parse/Reset; `*value` views into `raw`.
  /// Callers that keep either must copy first. `raw` must hold exactly one
  /// record; use ParseFrom to decode out of a larger buffer.
  Status Parse(std::string_view raw, std::string_view* key,
               std::string_view* value);

  /// Decodes one record at `reader`'s cursor, leaving the cursor on the
  /// next record. Same view lifetimes as Parse.
  Status ParseFrom(ByteReader* reader, std::string_view* key,
                   std::string_view* value);

  void Reset() { key_.clear(); }

 private:
  std::string key_;
};

/// Records per §13 run block: one SpillWriter CRC frame covers this many
/// delta-encoded records (or kSpillBlockBytes of payload, whichever comes
/// first), amortizing the frame + checksum to a fraction of a byte per
/// record while keeping a corrupted block's re-fetch small.
inline constexpr int kSpillBlockRecords = 32;
inline constexpr size_t kSpillBlockBytes = size_t{8} << 10;

/// Batches delta-encoded records into self-contained run blocks. Usage:
/// Add each record in run order; whenever BlockFull, hand block() to
/// SpillWriter::Append and call NextBlock; after the last record, flush the
/// final partial block the same way. The delta chain restarts with every
/// block, so blocks decode independently.
class SpillBlockEncoder {
 public:
  void Add(std::string_view key, std::string_view value) {
    records_.Append(key, value, &block_);
    ++block_records_;
  }

  bool BlockFull() const {
    return block_records_ >= kSpillBlockRecords ||
           block_.size() >= kSpillBlockBytes;
  }
  bool BlockEmpty() const { return block_records_ == 0; }
  std::string_view block() const { return block_.data(); }

  /// Drops the open block's bytes and restarts the delta chain.
  void NextBlock() {
    block_.Clear();
    records_.Reset();
    block_records_ = 0;
  }

  /// Same as NextBlock; reads as "make this scratch encoder fresh".
  void Reset() { NextBlock(); }

 private:
  SpillRecordEncoder records_;
  ByteWriter block_;
  int block_records_ = 0;
};

/// Streams the records back out of one run block (one SpillReader record).
/// The block bytes must outlive the views Next returns and stay alive until
/// the next SetBlock — callers keep the fetch buffer around per run.
class SpillBlockDecoder {
 public:
  /// Starts decoding `block`; implicitly restarts the delta chain.
  void SetBlock(std::string_view block) {
    reader_ = ByteReader(block);
    records_.Reset();
  }

  /// Decodes the next record of the current block; false at end of block.
  /// `*key` views into decoder-owned storage, `*value` into the block.
  Result<bool> Next(std::string_view* key, std::string_view* value) {
    if (reader_.AtEnd()) return false;
    SPCUBE_RETURN_IF_ERROR(records_.ParseFrom(&reader_, key, value));
    return true;
  }

 private:
  SpillRecordDecoder records_;
  ByteReader reader_{std::string_view()};
};

/// One shuffle record as views into arena (or other stable) storage. Plain
/// pointers + lengths so a vector of refs is trivially sortable.
struct ShuffleRecordRef {
  const char* key_data = nullptr;
  const char* value_data = nullptr;
  uint32_t key_len = 0;
  uint32_t value_len = 0;

  std::string_view key() const { return {key_data, key_len}; }
  std::string_view value() const { return {value_data, value_len}; }
};

/// A record index and the part of its key that the shuffle's radix key
/// sort is ordering by: 8 big-endian key bytes (the first 8, then the next
/// 8 where those tie), or the key's length once every tied key has ended.
/// The sort's passes read `sort_key` instead of the full keys.
struct ShuffleSortItem {
  uint64_t sort_key = 0;
  uint32_t index = 0;
};

/// An immutable batch of records backed by an arena the segment owns: the
/// zero-copy hand-off from ShuffleBuffer to the reduce side, and a reduce
/// attempt's committed output (SegmentBuilder). Cheap to copy (shared
/// ownership) so a ReduceInput holding segments stays copyable for
/// reduce-attempt retries.
class ShuffleSegment {
 public:
  ShuffleSegment() = default;

  bool empty() const { return rep_ == nullptr || rep_->refs.empty(); }
  int64_t num_records() const {
    return rep_ == nullptr ? 0 : static_cast<int64_t>(rep_->refs.size());
  }
  /// Key+value bytes across all records (the RecordBytes sum).
  int64_t payload_bytes() const {
    return rep_ == nullptr ? 0 : rep_->payload_bytes;
  }
  const std::vector<ShuffleRecordRef>& refs() const {
    static const std::vector<ShuffleRecordRef> kEmpty;
#if SPCUBE_LIFETIME_CHECKS
    SPCUBE_CHECK(rep_ == nullptr ||
                 rep_->arena.generation() == rep_->generation)
        << "stale ShuffleSegment: the backing arena was reset after the "
           "segment was taken";
#endif
    return rep_ == nullptr ? kEmpty : rep_->refs;
  }

 private:
  friend class ShuffleBuffer;
  friend class SegmentBuilder;
  friend void internal::DebugExpireSegment(ShuffleSegment* segment);

  /// Takes `arena` together with `refs`, which point into it.
  ShuffleSegment(Arena arena, std::vector<ShuffleRecordRef> refs,
                 int64_t payload_bytes);

  struct Rep {
    Arena arena;  // owns the bytes the refs point into
    // spcube-analyzer: allow(view-escape): refs point into the arena this same Rep owns; both live and die together
    std::vector<ShuffleRecordRef> refs;
    int64_t payload_bytes = 0;
    /// Arena generation at hand-off; refs() verifies it still matches under
    /// SPCUBE_LIFETIME_CHECKS. Unconditional for one cross-TU layout.
    uint64_t generation = 0;
  };

  std::shared_ptr<const Rep> rep_;
};

/// Builds a ShuffleSegment record by record, copying each pair into an
/// arena the segment takes over: a reduce attempt's commit buffer. Output
/// costs a bump append and a ref per record, and a heap allocation per
/// arena chunk, not per record. Finish leaves the builder empty.
class SegmentBuilder {
 public:
  void Add(std::string_view key, std::string_view value) {
    const char* data = arena_.AppendPair(key, value);
    refs_.push_back(ShuffleRecordRef{data, data + key.size(),
                                     static_cast<uint32_t>(key.size()),
                                     static_cast<uint32_t>(value.size())});
    payload_bytes_ += RecordBytes(key, value);
  }

  int64_t num_records() const { return static_cast<int64_t>(refs_.size()); }

  /// Hands the records built so far off as one segment.
  ShuffleSegment Finish();

 private:
  Arena arena_;
  // spcube-analyzer: allow(view-escape): refs point into arena_, which Finish moves into the segment together with them
  std::vector<ShuffleRecordRef> refs_;
  int64_t payload_bytes_ = 0;
};

/// Map-side output buffer of one map task — the Hadoop sort-and-spill
/// pipeline in miniature, rebuilt around per-partition bump arenas:
///
///  * Add appends `[key|value]` bytes into the partition's arena and records
///    a compact slot; no per-record std::string is created.
///  * With a combiner, each buffered key keeps one running value. Add looks
///    the key up in an open-addressing index (buckets hold a 32-bit hash
///    tag beside the key index, so a probe miss never touches a key) and
///    folds the value into the key's running value on the spot, rewriting
///    it in place in the arena when it fits and appending it again when it
///    grows. A combine pass then only compacts the (key, value) pairs into
///    the spare arena and settles the combine counters; keys keep their
///    indices, so the bucket array survives it.
///  * Spills radix-sort slot indices by (full key, emission order) — the
///    order of a stable sort by key — and stream the runs straight from
///    arena bytes through the CRC32C spill writer. Each spill writes one
///    file: every non-empty partition's run is a byte range of it, as in
///    Hadoop's MapTask (one spill file plus an index of partition ranges).
///
/// See docs/INTERNALS.md §9 for what `buffered_bytes_` counts under the
/// arena. Spill runs are written in the §13 delta/varint format; spill
/// *decisions* (when to overflow, what to combine) depend only on payload
/// bytes, never on the encoding. Runs never taken (a failed or superseded
/// map attempt's private output) are released with the buffer, and so is
/// every spill file no taken run references.
class ShuffleBuffer {
 public:
  /// `combiner` may be null. `temp_files` outlives the buffer.
  ShuffleBuffer(int num_partitions, int64_t memory_budget_bytes,
                const Combiner* combiner, TempFileManager* temp_files,
                ShuffleCounters* counters);

  /// Names this buffer's spill runs for fault injection:
  /// `<prefix>/p<partition>/r<index>`. Call before the first Add; the engine
  /// passes a job/task/attempt-scoped prefix so injection decisions are
  /// independent of host temp paths and thread interleaving.
  void SetSpillResourcePrefix(std::string prefix) {
    resource_prefix_ = std::move(prefix);
  }

  /// Copies `key`/`value` into the partition's arena before returning, so
  /// callers may reuse their encode buffers immediately.
  Status Add(int partition, std::string_view key, std::string_view value);

  /// Runs the final combine pass and frees the spill scratch; call once
  /// after the map task finishes.
  Status FinalizeMapOutput();

  /// Moves out a partition's surviving in-memory records together with the
  /// arena that owns their bytes; each call empties the partition.
  ShuffleSegment TakeMemorySegment(int partition);

  /// Sorted runs spilled for a partition, one per spill that had records
  /// for it; each call empties the partition's list.
  std::vector<RunInfo> TakeSpillRuns(int partition);

 private:
  /// A record of the no-combiner path: key bytes at `data`, value bytes
  /// immediately after (one contiguous AppendPair region).
  struct RecordSlot {
    const char* data = nullptr;
    uint32_t key_len = 0;
    uint32_t value_len = 0;
  };
  /// One distinct key of the combiner path and its running value: key
  /// bytes at `data`, the value at `value` in `value_capacity` bytes of the
  /// same arena (right after the key until a fold outgrows them).
  struct KeySlot {
    const char* data = nullptr;
    char* value = nullptr;
    uint32_t len = 0;
    uint32_t value_len = 0;
    uint32_t value_capacity = 0;
    /// Values the running value stands for since the last combine pass
    /// (the carried value included): that pass's combine input.
    uint32_t pending = 0;
  };
  /// Open-addressing slot: `index` is key index + 1, 0 when empty; `tag`
  /// is the key's hash, whose low bits also pick the home slot.
  struct Bucket {
    uint32_t tag = 0;
    uint32_t index = 0;
  };
  struct PartitionState {
    Arena arena;
    Arena spare_arena;  // compaction target; swapped with `arena` per pass
    std::vector<RecordSlot> records;  // no-combiner mode
    std::vector<KeySlot> keys;        // combiner mode, in insertion order
    std::vector<Bucket> buckets;      // power-of-two size, at most half full
  };

  /// Runs a combine pass; if memory still exceeds the headroom afterwards
  /// (or there is no combiner), sorts and spills each partition.
  Status Overflow();
  void CombineInMemory();
  Status SpillAll();

  /// Appends refs for a partition's live records in canonical order
  /// (emission order; with a combiner, key-insertion order).
  void AppendRecordRefs(const PartitionState& part,
                        std::vector<ShuffleRecordRef>* refs) const;
  void ResetPartition(PartitionState* part);
  /// Folds `value` into `key`'s running value, inserting the key (its
  /// bytes and `value` copied into the arena) if absent.
  Status FoldIntoKey(PartitionState* part, std::string_view key,
                     std::string_view value);
  /// Doubles the bucket array (16 slots at least), re-placing every key by
  /// its stored tag.
  static void GrowBuckets(PartitionState* part);

  int num_partitions_;
  int64_t memory_budget_bytes_;
  /// Post-combine spill threshold in bytes: memory_budget_bytes_ *
  /// kCombineHeadroomFraction (shuffle.cc).
  int64_t combine_headroom_bytes_;
  const Combiner* combiner_;
  TempFileManager* temp_files_;
  ShuffleCounters* counters_;
  std::string resource_prefix_;

  /// Live payload bytes (RecordBytes sum over surviving records) — not
  /// arena chunk bytes; see docs/INTERNALS.md §9.
  int64_t buffered_bytes_ = 0;
  std::vector<PartitionState> partitions_;
  std::vector<std::vector<RunInfo>> spill_runs_;  // per partition

  // Reusable scratch so the steady-state Add → combine → spill cycle
  // performs no per-record heap allocations.
  ByteWriter folded_;
  // spcube-analyzer: allow(view-escape): per-call scratch; cleared and refilled inside each Take*/spill call, never escapes
  std::vector<ShuffleRecordRef> scratch_refs_;
  std::vector<ShuffleSortItem> sort_items_;
  std::vector<ShuffleSortItem> sort_scratch_;
  SpillBlockEncoder block_scratch_;
};

/// Iterates the reduce input of one partition as (group, values) in
/// ascending key order, streaming values so that a skewed group never has
/// to be materialized. Feed it unsorted in-memory records plus the sorted
/// runs spilled by mappers; it sorts what fits and external-merges the
/// rest.
class GroupedRecordStream {
 public:
  virtual ~GroupedRecordStream() = default;

  /// Advances to the next group; false at end of input. Any unread values of
  /// the previous group are skipped.
  virtual Result<bool> NextGroup(std::string* key) = 0;

  /// Next value of the current group; false at end of group.
  virtual Result<bool> NextValue(std::string* value) = 0;
};

/// Inputs for building a reduce-side stream. `memory_segments` are unsorted
/// in-memory sources.
struct ReduceInput {
  std::vector<ShuffleSegment> memory_segments;
  std::vector<RunInfo> spill_runs;  // each sorted by key
  int64_t total_bytes = 0;          // payload bytes across all sources
  int64_t total_records = 0;
  /// Keys of the groups split recovery dealt over several sub-inputs, at
  /// this sub-input's depth or above, in ascending order; empty for a
  /// partition's own input (SplitReduceInput).
  std::vector<std::string> spread_keys;
};

/// Builds a stream over `input`. If everything fits in
/// `memory_budget_bytes`, runs fully in memory (iterating segment slots
/// directly — absorbed runs are parsed into a stream-private arena, never
/// into per-record strings); otherwise (policy kSpill) sorts the in-memory
/// part into one additional run file under `temp_files` and k-way merges
/// all runs, adding the extra run's bytes to `counters->spill_bytes`.
/// Policy kStrict fails with ResourceExhausted when over budget. The
/// stream holds its runs (the extra one is attempt-private), so a spill
/// file no other RunInfo references is deleted with it. `injector` (may be
/// null) models in-flight corruption of run fetches, detected via record
/// checksums and counted in `counters->checksum_mismatches`.
/// `resource_prefix` names the extra reduce-side run for injection purposes
/// (see RunInfo::resource).
Result<std::unique_ptr<GroupedRecordStream>> MakeGroupedStream(
    ReduceInput input, int64_t memory_budget_bytes, MemoryPolicy policy,
    TempFileManager* temp_files, ShuffleCounters* counters,
    IoFaultInjector* injector = nullptr, std::string resource_prefix = "");

/// Adaptive-recovery scatter (mapreduce/api.h, RecoverySpec): splits
/// `input` into `fanout` sub-inputs from one sort of its records. A group
/// whose payload bytes exceed `budget / fanout` is dealt round-robin over
/// every sub-input by its records' rank within the group, so even one
/// giant group shrinks; every other group goes whole to the least-loaded
/// sub-input, largest group first (ties in key order). No sub-input then
/// holds more than total/fanout + (budget/fanout)(1 - 1/fanout) bytes,
/// plus one record per spread group when its records have equal sizes
/// (docs/INTERNALS.md §11). Every sub-input's `spread_keys` are `input`'s
/// plus the keys of the groups this split deals out: under the RecoverySpec
/// contract only those groups' outputs can repeat a key across sub-inputs.
/// Each sub-input is written as a single sorted run, all `fanout` of them
/// byte ranges of one file under `temp_files` (so the result holds no
/// references into `input`'s arenas — split sub-inputs outlive the attempt
/// that OOMed), accounted to `counters->spill_bytes`, and named
/// `<resource_prefix>/s<k>` for fault injection. The file is deleted when
/// the last sub-input's run is released. Spill runs in `input` are re-read
/// through `injector` (may be null) with checksum recovery, like any
/// reduce-side fetch. Deterministic: the same input records in the same
/// source order give the same scatter, regardless of threading.
Result<std::vector<ReduceInput>> SplitReduceInput(
    const ReduceInput& input, int fanout, int64_t budget,
    TempFileManager* temp_files, ShuffleCounters* counters,
    IoFaultInjector* injector, const std::string& resource_prefix);

}  // namespace spcube

#endif  // SPCUBE_MAPREDUCE_SHUFFLE_H_
