#ifndef SPCUBE_RELATION_RELATION_H_
#define SPCUBE_RELATION_RELATION_H_

#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "relation/schema.h"

namespace spcube {

/// Anything that reads like a dimension tuple: `t[d]` yields the value of
/// dimension d and `t.size()` its arity. Satisfied by std::span/std::vector/
/// std::array over int64_t and by Relation::RowRef, so the projection and
/// comparison hot paths (GroupKey::Project, CompareOnCuboid, tuple_codec,
/// SpSketch probes) work over both materialized tuples and borrowed rows of
/// a columnar relation without copying.
template <typename T>
concept TupleLike = requires(const T& t, int d) {
  { t[d] } -> std::convertible_to<int64_t>;
  { t.size() } -> std::convertible_to<size_t>;
};

/// A columnar (struct-of-arrays) fact table: one contiguous array per
/// dimension plus the measure column. Dimension values are stored as int64
/// codes (use Dictionary to map strings); the measure is an int64. Rows are
/// append-only; the MapReduce engine hands each mapper a non-owning
/// RelationView over a contiguous row range, mirroring equal HDFS input
/// splits (paper §2.3). The columnar layout makes per-dimension scans (BUC
/// partitioning, cuboid projections) read contiguous memory instead of
/// striding across row-major tuples.
class Relation {
 public:
  explicit Relation(Schema schema)
      : schema_(std::move(schema)),
        cols_(static_cast<size_t>(schema_.num_dims())) {}

  const Schema& schema() const { return schema_; }
  int num_dims() const { return schema_.num_dims(); }
  int64_t num_rows() const {
    return static_cast<int64_t>(measures_.size());
  }

  void Reserve(int64_t rows) {
    for (std::vector<int64_t>& col : cols_) {
      col.reserve(static_cast<size_t>(rows));
    }
    measures_.reserve(static_cast<size_t>(rows));
  }

  /// A borrowed view of one row's dimension values. Gathers from the
  /// dimension columns on access; cheap to copy (pointer + index) and
  /// valid only while the relation outlives it and is not appended to.
  class RowRef {
   public:
    RowRef(const Relation* rel, int64_t row) : rel_(rel), row_(row) {}

    int64_t operator[](int d) const { return rel_->dim(row_, d); }
    int64_t operator[](size_t d) const {
      return rel_->dim(row_, static_cast<int>(d));
    }
    size_t size() const { return static_cast<size_t>(rel_->num_dims()); }

   private:
    const Relation* rel_;
    int64_t row_;
  };

  /// Appends a row; `dims.size()` must equal num_dims().
  void AppendRow(std::span<const int64_t> dims, int64_t measure);

  /// Appends a borrowed row of another relation — a deliberate
  /// materialization (e.g. Bernoulli sampling into a sketch sample, or a
  /// reducer rebuilding its local partition from wire tuples).
  void AppendRow(RowRef row, int64_t measure);

  /// Dimension values of a row, gathered lazily from the columns.
  RowRef row(int64_t r) const { return RowRef(this, r); }

  int64_t dim(int64_t r, int d) const {
    return cols_[static_cast<size_t>(d)][static_cast<size_t>(r)];
  }

  int64_t measure(int64_t r) const {
    return measures_[static_cast<size_t>(r)];
  }

  /// One dimension's values for all rows, contiguous in memory — the unit
  /// of columnar scans (BUC partitioning and its cardinality sampling).
  std::span<const int64_t> column(int d) const {
    return cols_[static_cast<size_t>(d)];
  }

  std::span<const int64_t> measures() const { return measures_; }

  /// Bumped by every append (a push_back may reallocate the columns, so any
  /// outstanding borrow is suspect). RelationView stamps this at
  /// construction and, under SPCUBE_LIFETIME_CHECKS, aborts when a read
  /// goes through a view whose relation has since been appended to.
  /// Maintained unconditionally so mixed-TU builds agree on layout.
  uint64_t lifetime_epoch() const { return lifetime_epoch_; }

  /// Tuple footprint in bytes (used for the memory model):
  /// num_rows * (num_dims + 1) int64s, identical to the row-major layout.
  int64_t ByteSize() const {
    return num_rows() * static_cast<int64_t>(num_dims() + 1) *
           static_cast<int64_t>(sizeof(int64_t));
  }

 private:
  Schema schema_;
  std::vector<std::vector<int64_t>> cols_;  // one contiguous array per dim
  std::vector<int64_t> measures_;           // one per row
  uint64_t lifetime_epoch_ = 0;             // see lifetime_epoch()
};

}  // namespace spcube

#endif  // SPCUBE_RELATION_RELATION_H_
