#ifndef SPCUBE_QUERY_CUBE_STORE_H_
#define SPCUBE_QUERY_CUBE_STORE_H_

#include <cstddef>
#include <vector>

#include "cube/cube_result.h"
#include "cube/group_key.h"

namespace spcube {

/// One materialized cube cell.
struct CubeCell {
  GroupKey key;
  double value = 0.0;
};

/// A materialized cube's cells, bucketed per cuboid and sorted
/// lexicographically — the order in which `spcube_cli` writes cuboid files
/// and picks top-k cells.
class CubeStore {
 public:
  /// Indexes a materialized cube (copies its cells; the source may die).
  explicit CubeStore(const CubeResult& cube);

  /// All cells of one cuboid, sorted lexicographically by value vector.
  const std::vector<CubeCell>& Cuboid(CuboidMask mask) const;

  /// The `k` largest cells of a cuboid by aggregate value, ties broken by
  /// value vector.
  std::vector<CubeCell> TopK(CuboidMask mask, size_t k) const;

 private:
  std::vector<std::vector<CubeCell>> cuboids_;  // indexed by mask
};

}  // namespace spcube

#endif  // SPCUBE_QUERY_CUBE_STORE_H_
