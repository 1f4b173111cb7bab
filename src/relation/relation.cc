#include "relation/relation.h"

#include "common/logging.h"

namespace spcube {

void Relation::AppendRow(std::span<const int64_t> dims, int64_t measure) {
  SPCUBE_DCHECK(static_cast<int>(dims.size()) == num_dims())
      << "row arity mismatch: got " << dims.size() << ", schema has "
      << num_dims();
  for (size_t d = 0; d < dims.size(); ++d) {
    cols_[d].push_back(dims[d]);
  }
  measures_.push_back(measure);
  lifetime_epoch_ += 1;
}

void Relation::AppendRow(RowRef row, int64_t measure) {
  SPCUBE_DCHECK(static_cast<int>(row.size()) == num_dims())
      << "row arity mismatch: got " << row.size() << ", schema has "
      << num_dims();
  for (size_t d = 0; d < row.size(); ++d) {
    cols_[d].push_back(row[static_cast<int>(d)]);
  }
  measures_.push_back(measure);
  lifetime_epoch_ += 1;
}

}  // namespace spcube
