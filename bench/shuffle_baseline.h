#ifndef SPCUBE_BENCH_SHUFFLE_BASELINE_H_
#define SPCUBE_BENCH_SHUFFLE_BASELINE_H_

// The seed's string-based map-side shuffle buffer, preserved verbatim in
// spirit as the bench_shuffle baseline: one owned Record (two std::strings)
// per Add, whole-buffer combining through a rebuilt
// unordered_map<string, vector<string>>, and stable_sort-by-key spills that
// re-encode every record into a fresh std::string. The arena-backed
// ShuffleBuffer (src/mapreduce/shuffle.h) replaces all three; this copy
// exists only so the benchmark races them on identical inputs.

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "io/spill.h"
#include "mapreduce/api.h"
#include "mapreduce/shuffle.h"

namespace spcube {
namespace bench {

class StringShuffleBuffer {
 public:
  StringShuffleBuffer(int num_partitions, int64_t memory_budget_bytes,
                      const Combiner* combiner, TempFileManager* temp_files,
                      ShuffleCounters* counters)
      : num_partitions_(num_partitions),
        memory_budget_bytes_(memory_budget_bytes),
        combiner_(combiner),
        temp_files_(temp_files),
        counters_(counters),
        memory_(static_cast<size_t>(num_partitions)),
        spill_runs_(static_cast<size_t>(num_partitions)) {}

  Status Add(int partition, std::string_view key, std::string_view value) {
    counters_->map_output_records += 1;
    counters_->map_output_bytes += RecordBytes(key, value);
    buffered_bytes_ += RecordBytes(key, value);
    memory_[static_cast<size_t>(partition)].push_back(
        Record{std::string(key), std::string(value)});
    if (buffered_bytes_ > memory_budget_bytes_) {
      SPCUBE_RETURN_IF_ERROR(Overflow());
    }
    return Status::OK();
  }

  Status FinalizeMapOutput() { return CombineInMemory(); }

 private:
  Status Overflow() {
    if (combiner_ != nullptr) {
      SPCUBE_RETURN_IF_ERROR(CombineInMemory());
      if (buffered_bytes_ <= memory_budget_bytes_ * 3 / 4) {
        return Status::OK();
      }
    }
    return SpillAll();
  }

  Status CombineInMemory() {
    if (combiner_ == nullptr) return Status::OK();
    for (std::vector<Record>& partition : memory_) {
      if (partition.empty()) continue;
      std::unordered_map<std::string, std::vector<std::string>> by_key;
      for (Record& record : partition) {
        by_key[std::move(record.key)].push_back(std::move(record.value));
      }
      std::vector<Record> combined;
      for (auto& [key, values] : by_key) {
        counters_->combine_input_records +=
            static_cast<int64_t>(values.size());
        // Folds the key's values left to right, as the arena buffer does
        // on insert.
        std::string merged = std::move(values.front());
        for (size_t i = 1; i < values.size(); ++i) {
          ByteWriter folded;
          SPCUBE_RETURN_IF_ERROR(combiner_->Fold(merged, values[i], &folded));
          merged = folded.TakeData();
        }
        counters_->combine_output_records += 1;
        combined.push_back(Record{key, std::move(merged)});
      }
      partition = std::move(combined);
    }
    buffered_bytes_ = 0;
    for (const std::vector<Record>& partition : memory_) {
      for (const Record& record : partition) {
        buffered_bytes_ += RecordBytes(record.key, record.value);
      }
    }
    return Status::OK();
  }

  Status SpillAll() {
    for (int p = 0; p < num_partitions_; ++p) {
      std::vector<Record>& partition = memory_[static_cast<size_t>(p)];
      if (partition.empty()) continue;
      std::stable_sort(partition.begin(), partition.end(),
                       [](const Record& a, const Record& b) {
                         return a.key < b.key;
                       });
      // One file per run, as the seed spilled; the runs' SpillFile
      // references delete the files with the buffer.
      RunInfo info;
      info.file = std::make_shared<const SpillFile>(temp_files_->NextPath());
      SpillWriter writer(info.path());
      SPCUBE_RETURN_IF_ERROR(writer.Open());
      for (const Record& record : partition) {
        ByteWriter encoder;
        encoder.PutBytes(record.key);
        encoder.PutBytes(record.value);
        SPCUBE_RETURN_IF_ERROR(writer.Append(encoder.TakeData()));
        info.payload_bytes += RecordBytes(record.key, record.value);
      }
      SPCUBE_RETURN_IF_ERROR(writer.Close());
      counters_->spill_bytes += writer.bytes_written();
      info.file_bytes = writer.bytes_written();
      info.records = writer.record_count();
      spill_runs_[static_cast<size_t>(p)].push_back(std::move(info));
      partition.clear();
      partition.shrink_to_fit();
    }
    buffered_bytes_ = 0;
    return Status::OK();
  }

  int num_partitions_;
  int64_t memory_budget_bytes_;
  const Combiner* combiner_;
  TempFileManager* temp_files_;
  ShuffleCounters* counters_;
  int64_t buffered_bytes_ = 0;
  std::vector<std::vector<Record>> memory_;
  std::vector<std::vector<RunInfo>> spill_runs_;
};

}  // namespace bench
}  // namespace spcube

#endif  // SPCUBE_BENCH_SHUFFLE_BASELINE_H_
