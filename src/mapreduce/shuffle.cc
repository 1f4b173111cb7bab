#include "mapreduce/shuffle.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"

namespace spcube {

void SpillRecordEncoder::Append(std::string_view key, std::string_view value,
                                ByteWriter* out) {
  size_t shared = 0;
  const size_t limit = std::min(prev_key_.size(), key.size());
  while (shared < limit && prev_key_[shared] == key[shared]) ++shared;
  out->PutVarint(shared);
  out->PutVarint(key.size() - shared);
  out->PutRawBytes(key.substr(shared));
  out->PutBytes(value);
  prev_key_.assign(key);
}

Status SpillRecordDecoder::Parse(std::string_view raw, std::string_view* key,
                                 std::string_view* value) {
  ByteReader reader(raw);
  SPCUBE_RETURN_IF_ERROR(ParseFrom(&reader, key, value));
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after spill record");
  }
  return Status::OK();
}

Status SpillRecordDecoder::ParseFrom(ByteReader* reader, std::string_view* key,
                                     std::string_view* value) {
  uint64_t shared = 0;
  uint64_t suffix_len = 0;
  SPCUBE_RETURN_IF_ERROR(reader->GetVarint(&shared));
  SPCUBE_RETURN_IF_ERROR(reader->GetVarint(&suffix_len));
  if (shared > key_.size()) {
    return Status::Corruption(
        "spill record shares more key bytes than the previous key has");
  }
  if (suffix_len > reader->remaining()) {
    return Status::Corruption("truncated spill record key suffix");
  }
  std::string_view suffix;
  SPCUBE_RETURN_IF_ERROR(reader->GetRawBytes(suffix_len, &suffix));
  key_.resize(shared);
  key_.append(suffix);
  *key = key_;
  SPCUBE_RETURN_IF_ERROR(reader->GetBytes(value));
  return Status::OK();
}

namespace {

/// Key bytes [offset, offset + 8), big-endian, zero-padded past the key's
/// end: chunks compare like the keys themselves until they tie.
uint64_t KeyChunk(std::string_view key, size_t offset) {
  uint64_t chunk = 0;
  if (key.size() >= offset + 8) {
    std::memcpy(&chunk, key.data() + offset, 8);
    if constexpr (std::endian::native == std::endian::little) {
      chunk = __builtin_bswap64(chunk);
    }
    return chunk;
  }
  for (size_t i = offset; i < key.size(); ++i) {
    chunk |= static_cast<uint64_t>(static_cast<unsigned char>(key[i]))
             << (56 - 8 * (i - offset));
  }
  return chunk;
}

/// Ranges up to this size sort by insertion instead of radix passes: cheaper
/// than clearing eight 256-bucket histograms.
constexpr size_t kInsertionSortMax = 32;

/// Stable sort of `items[0, n)` by `sort_key`: LSD radix, one byte per
/// pass, skipping byte positions every item shares. `scratch` holds at
/// least `n` items.
void SortBySortKey(ShuffleSortItem* items, size_t n, ShuffleSortItem* scratch) {
  if (n <= kInsertionSortMax) {
    for (size_t i = 1; i < n; ++i) {
      const ShuffleSortItem item = items[i];
      size_t j = i;
      for (; j > 0 && items[j - 1].sort_key > item.sort_key; --j) {
        items[j] = items[j - 1];
      }
      items[j] = item;
    }
    return;
  }
  uint32_t counts[8][256] = {};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t chunk = items[i].sort_key;
    for (int b = 0; b < 8; ++b) ++counts[b][(chunk >> (8 * b)) & 0xff];
  }
  ShuffleSortItem* src = items;
  ShuffleSortItem* dst = scratch;
  for (int b = 0; b < 8; ++b) {
    uint32_t* count = counts[b];
    const int shift = 8 * b;
    if (count[(src[0].sort_key >> shift) & 0xff] == n) continue;
    uint32_t offset = 0;
    for (int v = 0; v < 256; ++v) {
      const uint32_t size = count[v];
      count[v] = offset;
      offset += size;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[count[(src[i].sort_key >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != items) std::copy(src, src + n, items);
}

/// Fills `items` with one entry per record, `key_at(i)` being record i's
/// key, sorted by (full key, index) — the order of a stable sort by key.
/// Radix-sorts the keys' first 8 bytes, then re-sorts each run of tied
/// items by their keys' next 8 bytes, and so on. A run whose keys all end
/// within the bytes compared so far is equal up to zero padding, so a
/// shorter key is a prefix of a longer one: such a run sorts by key
/// length. Every pass is stable, so equal keys keep index order.
/// `scratch` is the radix passes' buffer, reused across calls where the
/// caller keeps one. The one sort of the shuffle: spills, in-memory reduce
/// streams, split scatter and the split merge round all use it.
template <typename KeyAt>
void SortByKey(size_t n, const KeyAt& key_at,
               std::vector<ShuffleSortItem>* items,
               std::vector<ShuffleSortItem>* scratch) {
  SPCUBE_CHECK(n <= UINT32_MAX) << "too many records to sort: " << n;
  items->resize(n);
  for (size_t i = 0; i < n; ++i) {
    (*items)[i] =
        ShuffleSortItem{KeyChunk(key_at(i), 0), static_cast<uint32_t>(i)};
  }
  if (n < 2) return;
  scratch->resize(n);
  ShuffleSortItem* const base = items->data();
  struct Range {
    size_t begin;
    size_t end;
    size_t offset;  // key bytes [offset, offset + 8) are in sort_key
  };
  std::vector<Range> pending = {{0, n, 0}};
  while (!pending.empty()) {
    const Range range = pending.back();
    pending.pop_back();
    SortBySortKey(base + range.begin, range.end - range.begin, scratch->data());
    const size_t next = range.offset + 8;
    for (size_t run = range.begin; run < range.end;) {
      size_t run_end = run + 1;
      while (run_end < range.end &&
             base[run_end].sort_key == base[run].sort_key) {
        ++run_end;
      }
      if (run_end - run > 1) {
        bool longer = false;
        for (size_t i = run; i < run_end; ++i) {
          const std::string_view key = key_at(base[i].index);
          longer |= key.size() > next;
          base[i].sort_key = KeyChunk(key, next);
        }
        if (longer) {
          pending.push_back(Range{run, run_end, next});
        } else {
          for (size_t i = run; i < run_end; ++i) {
            base[i].sort_key = key_at(base[i].index).size();
          }
          SortBySortKey(base + run, run_end - run, scratch->data());
        }
      }
      run = run_end;
    }
  }
}

void SortRefs(const std::vector<ShuffleRecordRef>& refs,
              std::vector<ShuffleSortItem>* items,
              std::vector<ShuffleSortItem>* scratch) {
  SortByKey(
      refs.size(), [&refs](size_t i) { return refs[i].key(); }, items,
      scratch);
}

/// Writes sorted runs back to back into one spill file, created under
/// `temp_files` with the first run: each run is a byte range of the file
/// and shares its ownership. Close before any run is read.
class RunFileWriter {
 public:
  explicit RunFileWriter(TempFileManager* temp_files)
      : temp_files_(temp_files) {}

  /// Streams refs in `order` as the file's next run, delta-encoding records
  /// into §13 blocks through the caller's reusable encoder.
  Result<RunInfo> WriteRun(const std::vector<ShuffleRecordRef>& refs,
                           const std::vector<ShuffleSortItem>& order,
                           ShuffleCounters* counters,
                           SpillBlockEncoder* encoder) {
    if (file_ == nullptr) {
      file_ = std::make_shared<const SpillFile>(temp_files_->NextPath());
      writer_.emplace(file_->path());
      SPCUBE_RETURN_IF_ERROR(writer_->Open());
    }
    RunInfo info;
    info.offset = writer_->bytes_written();
    encoder->Reset();
    for (const ShuffleSortItem& item : order) {
      const ShuffleRecordRef& ref = refs[item.index];
      encoder->Add(ref.key(), ref.value());
      if (encoder->BlockFull()) {
        SPCUBE_RETURN_IF_ERROR(writer_->Append(encoder->block()));
        encoder->NextBlock();
      }
      info.payload_bytes += RecordBytes(ref.key(), ref.value());
    }
    if (!encoder->BlockEmpty()) {
      SPCUBE_RETURN_IF_ERROR(writer_->Append(encoder->block()));
      encoder->NextBlock();
    }
    info.file = file_;
    info.file_bytes = writer_->bytes_written() - info.offset;
    info.records = static_cast<int64_t>(order.size());
    if (counters != nullptr) counters->spill_bytes += info.file_bytes;
    return info;
  }

  /// Flushes the file; a no-op when no run was written.
  Status Close() {
    return writer_.has_value() ? writer_->Close() : Status::OK();
  }

 private:
  TempFileManager* temp_files_;
  std::shared_ptr<const SpillFile> file_;
  std::optional<SpillWriter> writer_;
};

void AppendSegmentEntries(const std::vector<ShuffleSegment>& segments,
                          std::vector<ShuffleRecordRef>* entries) {
  for (const ShuffleSegment& segment : segments) {
    for (const ShuffleRecordRef& ref : segment.refs()) {
      entries->push_back(ref);
    }
  }
}

/// Reads one sorted run into `out`, decoding each fetched block's key
/// deltas incrementally.
Status AbsorbRun(const RunInfo& run, IoFaultInjector* injector,
                 int64_t* mismatch_counter, SegmentBuilder* out) {
  SpillReader reader(run.path(), run.offset, run.file_bytes);
  SPCUBE_RETURN_IF_ERROR(reader.Open());
  reader.SetFaultInjection(injector, mismatch_counter, run.resource);
  SpillBlockDecoder decoder;
  std::string raw;
  for (;;) {
    SPCUBE_ASSIGN_OR_RETURN(bool more, reader.Next(&raw));
    if (!more) break;
    decoder.SetBlock(raw);
    for (;;) {
      std::string_view key;
      std::string_view value;
      SPCUBE_ASSIGN_OR_RETURN(bool record, decoder.Next(&key, &value));
      if (!record) break;
      out->Add(key, value);
    }
  }
  return Status::OK();
}

/// The combiner path's key-index hash: eight key bytes per multiply, where
/// HashBytes (the partitioner's hash, which must not change) spends one
/// per byte.
uint64_t IndexHash(std::string_view key) {
  uint64_t h = key.size() * 0x9e3779b97f4a7c15ULL;
  const char* p = key.data();
  size_t n = key.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * 0xff51afd7ed558ccdULL;
    h ^= h >> 29;
  }
  if (n > 0) {
    uint64_t word = 0;
    std::memcpy(&word, p, n);
    h = (h ^ word) * 0xff51afd7ed558ccdULL;
  }
  return Mix64(h);
}

/// Map-side combine headroom: after combining, the buffer only spills if it
/// still holds more than this fraction of its memory budget. Below that,
/// the freed headroom is kept so the next combine window can batch more
/// duplicates (a higher combine ratio at the cost of a fuller buffer).
constexpr double kCombineHeadroomFraction = 0.75;

}  // namespace

ShuffleBuffer::ShuffleBuffer(int num_partitions,
                             int64_t memory_budget_bytes,
                             const Combiner* combiner,
                             TempFileManager* temp_files,
                             ShuffleCounters* counters)
    : num_partitions_(num_partitions),
      memory_budget_bytes_(memory_budget_bytes),
      combine_headroom_bytes_(static_cast<int64_t>(
          static_cast<double>(memory_budget_bytes) *
          kCombineHeadroomFraction)),
      combiner_(combiner),
      temp_files_(temp_files),
      counters_(counters),
      partitions_(static_cast<size_t>(num_partitions)),
      spill_runs_(static_cast<size_t>(num_partitions)) {}

Status ShuffleBuffer::Add(int partition, std::string_view key,
                          std::string_view value) {
  SPCUBE_DCHECK(partition >= 0 && partition < num_partitions_)
      << "bad partition " << partition;
  counters_->map_output_records += 1;
  counters_->map_output_bytes += RecordBytes(key, value);
  // Charged as emitted even when the value folds into a running one, so
  // overflow fires on the same Add as a buffer of every record would.
  buffered_bytes_ += RecordBytes(key, value);
  PartitionState& part = partitions_[static_cast<size_t>(partition)];
  if (combiner_ == nullptr) {
    const char* data = part.arena.AppendPair(key, value);
    part.records.push_back(RecordSlot{data, static_cast<uint32_t>(key.size()),
                                      static_cast<uint32_t>(value.size())});
  } else {
    SPCUBE_RETURN_IF_ERROR(FoldIntoKey(&part, key, value));
  }
  if (buffered_bytes_ > memory_budget_bytes_) {
    SPCUBE_RETURN_IF_ERROR(Overflow());
  }
  return Status::OK();
}

Status ShuffleBuffer::FinalizeMapOutput() {
  // No spill follows: free the spill scratch now rather than when the
  // buffer is destroyed, after the whole round's reduces.
  std::vector<ShuffleRecordRef>().swap(scratch_refs_);
  std::vector<ShuffleSortItem>().swap(sort_items_);
  std::vector<ShuffleSortItem>().swap(sort_scratch_);
  CombineInMemory();
  return Status::OK();
}

void ShuffleBuffer::AppendRecordRefs(
    const PartitionState& part, std::vector<ShuffleRecordRef>* refs) const {
  for (const RecordSlot& slot : part.records) {
    refs->push_back(ShuffleRecordRef{slot.data, slot.data + slot.key_len,
                                     slot.key_len, slot.value_len});
  }
  for (const KeySlot& slot : part.keys) {
    refs->push_back(
        ShuffleRecordRef{slot.data, slot.value, slot.len, slot.value_len});
  }
}

void ShuffleBuffer::ResetPartition(PartitionState* part) {
  // Capacity (arena chunks, slot vectors, buckets) is retained for the next
  // fill cycle; only the logical contents are dropped.
  part->arena.Reset();
  part->records.clear();
  part->keys.clear();
  std::fill(part->buckets.begin(), part->buckets.end(), Bucket{});
}

void ShuffleBuffer::GrowBuckets(PartitionState* part) {
  std::vector<Bucket> grown(std::max<size_t>(16, part->buckets.size() * 2));
  const size_t mask = grown.size() - 1;
  for (const Bucket& bucket : part->buckets) {
    if (bucket.index == 0) continue;
    size_t slot = bucket.tag & mask;
    while (grown[slot].index != 0) slot = (slot + 1) & mask;
    grown[slot] = bucket;
  }
  part->buckets.swap(grown);
}

Status ShuffleBuffer::FoldIntoKey(PartitionState* part, std::string_view key,
                                  std::string_view value) {
  if ((part->keys.size() + 1) * 2 > part->buckets.size()) GrowBuckets(part);
  const auto tag = static_cast<uint32_t>(IndexHash(key));
  const size_t mask = part->buckets.size() - 1;
  size_t slot = tag & mask;
  for (;; slot = (slot + 1) & mask) {
    const Bucket bucket = part->buckets[slot];
    if (bucket.index == 0) break;
    if (bucket.tag != tag) continue;
    KeySlot& existing = part->keys[bucket.index - 1];
    if (std::string_view(existing.data, existing.len) != key) continue;
    folded_.Clear();
    SPCUBE_RETURN_IF_ERROR(combiner_->Fold(
        std::string_view(existing.value, existing.value_len), value,
        &folded_));
    const std::string_view merged = folded_.data();
    if (merged.size() > existing.value_capacity) {
      existing.value = part->arena.Append(merged);
      existing.value_capacity = static_cast<uint32_t>(merged.size());
    } else {
      std::memcpy(existing.value, merged.data(), merged.size());
    }
    existing.value_len = static_cast<uint32_t>(merged.size());
    ++existing.pending;
    return Status::OK();
  }
  // A new key: its first value is buffered as emitted.
  char* data = part->arena.AppendPair(key, value);
  const auto value_len = static_cast<uint32_t>(value.size());
  part->keys.push_back(KeySlot{data, data + key.size(),
                               static_cast<uint32_t>(key.size()), value_len,
                               value_len, /*pending=*/1});
  part->buckets[slot] = Bucket{tag, static_cast<uint32_t>(part->keys.size())};
  return Status::OK();
}

ShuffleSegment::ShuffleSegment(Arena arena, std::vector<ShuffleRecordRef> refs,
                               int64_t payload_bytes) {
  auto rep = std::make_shared<Rep>();
  rep->arena = std::move(arena);  // the refs keep pointing into it
  rep->refs = std::move(refs);
  rep->payload_bytes = payload_bytes;
  rep->generation = rep->arena.generation();
  rep_ = std::move(rep);
}

ShuffleSegment SegmentBuilder::Finish() {
  ShuffleSegment segment(std::move(arena_), std::move(refs_), payload_bytes_);
  refs_.clear();
  payload_bytes_ = 0;
  return segment;
}

ShuffleSegment ShuffleBuffer::TakeMemorySegment(int partition) {
  PartitionState& part = partitions_[static_cast<size_t>(partition)];
  std::vector<ShuffleRecordRef> refs;
  AppendRecordRefs(part, &refs);
  int64_t payload_bytes = 0;
  for (const ShuffleRecordRef& ref : refs) {
    payload_bytes += RecordBytes(ref.key(), ref.value());
  }
  ShuffleSegment segment(std::move(part.arena), std::move(refs),
                         payload_bytes);
  ResetPartition(&part);
  return segment;
}

namespace internal {

void DebugExpireSegment(ShuffleSegment* segment) {
  if (segment->rep_ == nullptr) return;
  // The rep is shared as const because segments are immutable hand-offs;
  // this seam deliberately breaks that to manufacture a stale borrow for
  // lifetime death tests (see the declaration in shuffle.h).
  auto* rep = const_cast<ShuffleSegment::Rep*>(segment->rep_.get());
  rep->arena.Reset();
}

}  // namespace internal

std::vector<RunInfo> ShuffleBuffer::TakeSpillRuns(int partition) {
  // Explicitly leave the slot empty so the destructor does not delete runs
  // whose ownership moved to the shuffle.
  std::vector<RunInfo> runs;
  runs.swap(spill_runs_[static_cast<size_t>(partition)]);
  return runs;
}

Status ShuffleBuffer::Overflow() {
  if (combiner_ != nullptr) {
    CombineInMemory();
    // Keep the buffer only if combining freed real headroom; a buffer that
    // hovers near the budget would otherwise re-combine after every few
    // records (quadratic). Hadoop applies the same spill-anyway rule. The
    // threshold is kCombineHeadroomFraction of the budget.
    if (buffered_bytes_ <= combine_headroom_bytes_) {
      return Status::OK();
    }
  }
  return SpillAll();
}

void ShuffleBuffer::CombineInMemory() {
  if (combiner_ == nullptr) return;
  // Every value is already folded in; a pass settles the counters, drops
  // the charge of folded-away records and compacts the running values.
  // Keys keep their indices, so the bucket array stays valid.
  int64_t live_bytes = 0;
  for (PartitionState& part : partitions_) {
    if (part.keys.empty()) continue;
    // The spare arena retains its capacity across passes, so the steady-
    // state cycle of fill → combine → fill performs no heap allocations.
    for (KeySlot& slot : part.keys) {
      const std::string_view key(slot.data, slot.len);
      const std::string_view value(slot.value, slot.value_len);
      counters_->combine_input_records += slot.pending;
      slot.pending = 1;
      char* data = part.spare_arena.AppendPair(key, value);
      slot.data = data;
      slot.value = data + slot.len;
      slot.value_capacity = slot.value_len;
      live_bytes += RecordBytes(key, value);
    }
    counters_->combine_output_records +=
        static_cast<int64_t>(part.keys.size());
    std::swap(part.arena, part.spare_arena);
    part.spare_arena.Reset();
  }
  buffered_bytes_ = live_bytes;
}

Status ShuffleBuffer::SpillAll() {
  // One file per spill: each non-empty partition's run is a byte range of
  // it (docs/INTERNALS.md §9).
  RunFileWriter out(temp_files_);
  for (int p = 0; p < num_partitions_; ++p) {
    PartitionState& part = partitions_[static_cast<size_t>(p)];
    scratch_refs_.clear();
    AppendRecordRefs(part, &scratch_refs_);
    if (scratch_refs_.empty()) continue;
    SortRefs(scratch_refs_, &sort_items_, &sort_scratch_);
    SPCUBE_ASSIGN_OR_RETURN(RunInfo run,
                            out.WriteRun(scratch_refs_, sort_items_,
                                         counters_, &block_scratch_));
    if (!resource_prefix_.empty()) {
      run.resource =
          resource_prefix_ + "/p" + std::to_string(p) + "/r" +
          std::to_string(spill_runs_[static_cast<size_t>(p)].size());
    }
    spill_runs_[static_cast<size_t>(p)].push_back(std::move(run));
    ResetPartition(&part);
  }
  SPCUBE_RETURN_IF_ERROR(out.Close());
  buffered_bytes_ = 0;
  return Status::OK();
}

namespace {

/// Fully in-memory grouped stream: iterates the records of arena-backed
/// segments through a sorted index — no per-record Record materialization.
class InMemoryGroupedStream : public GroupedRecordStream {
 public:
  explicit InMemoryGroupedStream(std::vector<ShuffleSegment> segments)
      : segments_(std::move(segments)) {
    AppendSegmentEntries(segments_, &entries_);
    std::vector<ShuffleSortItem> scratch;
    SortRefs(entries_, &order_, &scratch);
  }

  Result<bool> NextGroup(std::string* key) override {
    pos_ = group_end_;
    if (pos_ >= order_.size()) return false;
    const std::string_view group = KeyAt(pos_);
    key->assign(group);
    group_end_ = pos_;
    while (group_end_ < order_.size() && KeyAt(group_end_) == group) {
      ++group_end_;
    }
    value_pos_ = pos_;
    return true;
  }

  Result<bool> NextValue(std::string* value) override {
    if (value_pos_ >= group_end_) return false;
    const ShuffleRecordRef& ref = entries_[order_[value_pos_].index];
    value->assign(ref.value());
    ++value_pos_;
    return true;
  }

 private:
  std::string_view KeyAt(size_t sorted_pos) const {
    return entries_[order_[sorted_pos].index].key();
  }

  std::vector<ShuffleSegment> segments_;  // owns the bytes
  // spcube-analyzer: allow(view-escape): entries_ point into segments_, owned by this same stream
  std::vector<ShuffleRecordRef> entries_;
  std::vector<ShuffleSortItem> order_;
  size_t pos_ = 0;
  size_t group_end_ = 0;
  size_t value_pos_ = 0;
};

/// K-way merge over sorted runs; streams groups without materializing
/// them. A binary min-heap of run indices yields heads in (key, run index)
/// order — equal keys leave their runs lowest index first, the order of a
/// stable sort of the runs' concatenation. The heap compares a head's
/// first 8 key bytes (KeyChunk) before its full key, so keys that differ
/// early never reach a string compare. Heads are views into their run's
/// decoder and fetch buffer, valid until that run's next Advance. The
/// stream holds its runs, so a spill file only they reference (such as the
/// attempt-private run MakeGroupedStream sorts out of the in-memory
/// records) is deleted with the stream, whether or not the attempt
/// succeeded.
class MergingGroupedStream : public GroupedRecordStream {
 public:
  MergingGroupedStream(std::vector<RunInfo> runs, IoFaultInjector* injector,
                       int64_t* mismatch_counter)
      : runs_(std::move(runs)),
        injector_(injector),
        mismatch_counter_(mismatch_counter) {}

  Status Init() {
    readers_.reserve(runs_.size());
    for (const RunInfo& run : runs_) {
      auto reader = std::make_unique<SpillReader>(run.path(), run.offset,
                                                  run.file_bytes);
      SPCUBE_RETURN_IF_ERROR(reader->Open());
      reader->SetFaultInjection(injector_, mismatch_counter_, run.resource);
      readers_.push_back(std::move(reader));
    }
    heads_.resize(readers_.size());
    // One block decoder and fetch buffer per run: a decoder's views point
    // into its run's current block until the next fetch replaces it.
    decoders_.resize(readers_.size());
    blocks_.resize(readers_.size());
    heap_.reserve(readers_.size());
    for (size_t i = 0; i < readers_.size(); ++i) {
      SPCUBE_ASSIGN_OR_RETURN(bool valid, Advance(i));
      if (valid) heap_.push_back(static_cast<uint32_t>(i));
    }
    for (size_t i = heap_.size() / 2; i-- > 0;) SiftDown(i);
    return Status::OK();
  }

  Result<bool> NextGroup(std::string* key) override {
    // Skip any unread values of the previous group.
    while (InGroup()) SPCUBE_RETURN_IF_ERROR(PopTop());
    if (heap_.empty()) return false;
    current_key_.assign(heads_[heap_[0]].key);
    *key = current_key_;
    in_group_ = true;
    return true;
  }

  Result<bool> NextValue(std::string* value) override {
    if (!InGroup()) return false;
    value->assign(heads_[heap_[0]].value);
    SPCUBE_RETURN_IF_ERROR(PopTop());
    return true;
  }

 private:
  struct Head {
    uint64_t prefix = 0;  // KeyChunk(key, 0)
    // spcube-analyzer: allow(view-escape): views into this stream's decoders_/blocks_ entry for the same run, valid until that run's next Advance
    std::string_view key;
    // spcube-analyzer: allow(view-escape): same lifetime as `key`
    std::string_view value;
  };

  /// Whether the heap's top head continues the current group; ends the
  /// group once it does not.
  bool InGroup() {
    in_group_ = in_group_ && !heap_.empty() &&
                heads_[heap_[0]].key == current_key_;
    return in_group_;
  }

  /// Heap order: (key prefix, full key, run index).
  bool Less(uint32_t a, uint32_t b) const {
    const Head& x = heads_[a];
    const Head& y = heads_[b];
    if (x.prefix != y.prefix) return x.prefix < y.prefix;
    const int order = x.key.compare(y.key);
    return order != 0 ? order < 0 : a < b;
  }

  void SiftDown(size_t pos) {
    const size_t n = heap_.size();
    const uint32_t run = heap_[pos];
    for (;;) {
      size_t child = 2 * pos + 1;
      if (child >= n) break;
      if (child + 1 < n && Less(heap_[child + 1], heap_[child])) ++child;
      if (!Less(heap_[child], run)) break;
      heap_[pos] = heap_[child];
      pos = child;
    }
    heap_[pos] = run;
  }

  /// Consumes the top head: advances its run and restores the heap.
  Status PopTop() {
    SPCUBE_ASSIGN_OR_RETURN(bool valid, Advance(heap_[0]));
    if (!valid) {
      heap_[0] = heap_.back();
      heap_.pop_back();
    }
    if (!heap_.empty()) SiftDown(0);
    return Status::OK();
  }

  /// Decodes run `run`'s next record into its head; false once the run is
  /// exhausted. Invalidates the run's previous head views.
  Result<bool> Advance(size_t run) {
    Head& head = heads_[run];
    for (;;) {
      SPCUBE_ASSIGN_OR_RETURN(bool record,
                              decoders_[run].Next(&head.key, &head.value));
      if (record) {
        head.prefix = KeyChunk(head.key, 0);
        return true;
      }
      // Current block exhausted (or first call): fetch the run's next block.
      SPCUBE_ASSIGN_OR_RETURN(bool more, readers_[run]->Next(&blocks_[run]));
      if (!more) return false;
      decoders_[run].SetBlock(blocks_[run]);
    }
  }

  std::vector<RunInfo> runs_;  // outlives readers_: members die in reverse
  IoFaultInjector* injector_;
  int64_t* mismatch_counter_;
  std::vector<std::unique_ptr<SpillReader>> readers_;
  std::vector<Head> heads_;
  std::vector<SpillBlockDecoder> decoders_;  // parallel to readers_
  std::vector<std::string> blocks_;  // per-run fetch buffers decoders view
  std::vector<uint32_t> heap_;       // runs with a head, a min-heap by Less
  std::string current_key_;
  bool in_group_ = false;
};

}  // namespace

Result<std::unique_ptr<GroupedRecordStream>> MakeGroupedStream(
    ReduceInput input, int64_t memory_budget_bytes, MemoryPolicy policy,
    TempFileManager* temp_files, ShuffleCounters* counters,
    IoFaultInjector* injector, std::string resource_prefix) {
  int64_t* mismatch_counter =
      counters != nullptr ? &counters->checksum_mismatches : nullptr;
  const bool fits = input.total_bytes <= memory_budget_bytes;
  if (!fits && policy == MemoryPolicy::kStrict) {
    return Status::ResourceExhausted(
        "reduce input of " + std::to_string(input.total_bytes) +
        " bytes exceeds the machine memory budget of " +
        std::to_string(memory_budget_bytes) + " bytes");
  }
  if (fits) {
    // Small enough to run in memory; absorb any runs into one more
    // segment, after the others, and sort everything together.
    SegmentBuilder absorbed;
    for (const RunInfo& run : input.spill_runs) {
      SPCUBE_RETURN_IF_ERROR(
          AbsorbRun(run, injector, mismatch_counter, &absorbed));
    }
    input.memory_segments.push_back(absorbed.Finish());
    return {std::unique_ptr<GroupedRecordStream>(
        std::make_unique<InMemoryGroupedStream>(
            std::move(input.memory_segments)))};
  }

  // External path: sort the in-memory part into one more run, then merge.
  std::vector<RunInfo> runs = std::move(input.spill_runs);
  std::vector<ShuffleRecordRef> memory_refs;
  AppendSegmentEntries(input.memory_segments, &memory_refs);
  if (!memory_refs.empty()) {
    std::vector<ShuffleSortItem> order;
    std::vector<ShuffleSortItem> scratch;
    SortRefs(memory_refs, &order, &scratch);
    SpillBlockEncoder encode;
    RunFileWriter out(temp_files);
    SPCUBE_ASSIGN_OR_RETURN(
        RunInfo run, out.WriteRun(memory_refs, order, counters, &encode));
    SPCUBE_RETURN_IF_ERROR(out.Close());
    if (!resource_prefix.empty()) run.resource = resource_prefix + "/mem";
    runs.push_back(std::move(run));
  }
  auto merging = std::make_unique<MergingGroupedStream>(
      std::move(runs), injector, mismatch_counter);
  SPCUBE_RETURN_IF_ERROR(merging->Init());
  return {std::unique_ptr<GroupedRecordStream>(std::move(merging))};
}

Result<std::vector<ReduceInput>> SplitReduceInput(
    const ReduceInput& input, int fanout, int64_t budget,
    TempFileManager* temp_files, ShuffleCounters* counters,
    IoFaultInjector* injector, const std::string& resource_prefix) {
  SPCUBE_CHECK(fanout >= 2) << "split fanout must be >= 2, got " << fanout;
  int64_t* mismatch_counter =
      counters != nullptr ? &counters->checksum_mismatches : nullptr;
  // Gather every record as refs: in-memory sources directly, spill runs
  // parsed into one more segment. Segments, then runs, in stored order:
  // the sort below is stable, so a record's rank within its group (which
  // decides where a spread group's record goes) depends only on the input.
  std::vector<ShuffleSegment> sources = input.memory_segments;
  SegmentBuilder absorbed;
  for (const RunInfo& run : input.spill_runs) {
    SPCUBE_RETURN_IF_ERROR(
        AbsorbRun(run, injector, mismatch_counter, &absorbed));
  }
  sources.push_back(absorbed.Finish());
  std::vector<ShuffleRecordRef> entries;
  AppendSegmentEntries(sources, &entries);
  std::vector<ShuffleSortItem> order;
  {
    std::vector<ShuffleSortItem> scratch;
    SortRefs(entries, &order, &scratch);
  }
  auto ref_at = [&](size_t pos) -> const ShuffleRecordRef& {
    return entries[order[pos].index];
  };

  // A group too big for one sub-input's share of the budget is dealt
  // round-robin by its records' rank, so each sub-input partial-aggregates
  // a slice of it (legal only under the RecoverySpec contract; see
  // docs/INTERNALS.md §11). Every other group goes whole to one sub-input.
  struct Group {
    size_t begin;
    size_t end;
    int64_t bytes;
    int sub;  // destination sub-input; -1 for a spread group
  };
  const int64_t spread_above = budget / fanout;
  std::vector<Group> groups;
  std::vector<size_t> whole;  // indices into `groups`
  std::vector<std::string> spread_keys;  // in key order, like `groups`
  std::vector<int64_t> loads(static_cast<size_t>(fanout), 0);
  for (size_t begin = 0; begin < order.size();) {
    const std::string_view key = ref_at(begin).key();
    Group group{begin, begin, 0, -1};
    for (; group.end < order.size() && ref_at(group.end).key() == key;
         ++group.end) {
      const ShuffleRecordRef& ref = ref_at(group.end);
      group.bytes += RecordBytes(ref.key(), ref.value());
    }
    if (group.bytes > spread_above) {
      spread_keys.emplace_back(key);
      for (size_t pos = group.begin; pos < group.end; ++pos) {
        const ShuffleRecordRef& ref = ref_at(pos);
        loads[(pos - group.begin) % static_cast<size_t>(fanout)] +=
            RecordBytes(ref.key(), ref.value());
      }
    } else {
      whole.push_back(groups.size());
    }
    groups.push_back(group);
    begin = group.end;
  }
  // Whole groups, largest first (ties in key order), each to the
  // least-loaded sub-input (ties to the lowest index).
  std::sort(whole.begin(), whole.end(), [&groups](size_t a, size_t b) {
    if (groups[a].bytes != groups[b].bytes) {
      return groups[a].bytes > groups[b].bytes;
    }
    return a < b;
  });
  for (size_t g : whole) {
    const auto lightest = std::min_element(loads.begin(), loads.end());
    groups[g].sub = static_cast<int>(lightest - loads.begin());
    *lightest += groups[g].bytes;
  }

  // Each sub-input's records in the global key order: its run needs no
  // sort of its own.
  std::vector<std::vector<ShuffleSortItem>> sub_orders(
      static_cast<size_t>(fanout));
  for (const Group& group : groups) {
    for (size_t pos = group.begin; pos < group.end; ++pos) {
      const size_t sub =
          group.sub >= 0 ? static_cast<size_t>(group.sub)
                         : (pos - group.begin) % static_cast<size_t>(fanout);
      sub_orders[sub].push_back(order[pos]);
    }
  }
  // Sub-inputs inherit the keys spread above them.
  std::vector<std::string> inherited;
  std::set_union(input.spread_keys.begin(), input.spread_keys.end(),
                 spread_keys.begin(), spread_keys.end(),
                 std::back_inserter(inherited));
  // One sorted run per sub-input, all in one file: the result must not
  // reference `input`'s arenas (the OOMed attempt's storage is reclaimed
  // before the sub-attempts run), and runs keep the "each sorted by key"
  // invariant.
  std::vector<ReduceInput> subs(static_cast<size_t>(fanout));
  SpillBlockEncoder encode;
  RunFileWriter out(temp_files);
  for (int k = 0; k < fanout; ++k) {
    const std::vector<ShuffleSortItem>& sub_order =
        sub_orders[static_cast<size_t>(k)];
    if (sub_order.empty()) continue;
    SPCUBE_ASSIGN_OR_RETURN(
        RunInfo run, out.WriteRun(entries, sub_order, counters, &encode));
    if (!resource_prefix.empty()) {
      run.resource = resource_prefix + "/s" + std::to_string(k);
    }
    ReduceInput& sub = subs[static_cast<size_t>(k)];
    sub.total_bytes = run.payload_bytes;
    sub.total_records = run.records;
    sub.spill_runs.push_back(std::move(run));
    sub.spread_keys = inherited;
  }
  SPCUBE_RETURN_IF_ERROR(out.Close());
  return subs;
}

}  // namespace spcube
