#ifndef SPCUBE_CUBE_CUBE_RESULT_H_
#define SPCUBE_CUBE_CUBE_RESULT_H_

#include <string>
#include <unordered_map>

#include "common/status.h"
#include "cube/aggregate.h"
#include "cube/group_key.h"
#include "relation/relation.h"

namespace spcube {

/// A materialized data cube: every c-group of every cuboid mapped to its
/// final aggregate value. Used as the common output type of all four cube
/// algorithms so results can be compared group-for-group in tests.
class CubeResult {
 public:
  explicit CubeResult(int num_dims) : num_dims_(num_dims) {}

  int num_dims() const { return num_dims_; }

  /// Inserts a finalized group value. Fails if the group already exists
  /// (each algorithm must produce every group exactly once).
  Status AddGroup(GroupKey key, double value);

  /// Sizes the table for `more` groups beyond those it holds, so that
  /// many inserts rehash once instead of repeatedly.
  void Reserve(int64_t more) {
    groups_.reserve(groups_.size() + static_cast<size_t>(more));
  }

  /// Inserts or overwrites without the uniqueness check.
  void UpsertGroup(GroupKey key, double value);

  Result<double> Lookup(const GroupKey& key) const;

  int64_t num_groups() const { return static_cast<int64_t>(groups_.size()); }

  /// Number of groups belonging to one cuboid.
  int64_t CuboidGroupCount(CuboidMask mask) const;

  const std::unordered_map<GroupKey, double, GroupKeyHash>& groups() const {
    return groups_;
  }

  /// Structural + numeric comparison. On mismatch returns false and, if
  /// `diff` is non-null, a human-readable description of the first few
  /// differences.
  static bool ApproxEqual(const CubeResult& a, const CubeResult& b,
                          double tolerance, std::string* diff);

 private:
  int num_dims_;
  std::unordered_map<GroupKey, double, GroupKeyHash> groups_;
};

/// Ground-truth cube computation by direct enumeration: for every tuple and
/// every one of the 2^d projections, fold the measure into a hash table
/// (the in-memory analogue of the paper's naive Algorithm 1). Exponential
/// in d and memory-hungry, but trivially correct — tests use it as the
/// oracle for every other algorithm.
CubeResult ComputeCubeReference(const Relation& rel, AggregateKind kind);

}  // namespace spcube

#endif  // SPCUBE_CUBE_CUBE_RESULT_H_
