#include "query/cube_store.h"

#include <algorithm>

#include "common/logging.h"

namespace spcube {

CubeStore::CubeStore(const CubeResult& cube)
    : cuboids_(static_cast<size_t>(NumCuboids(cube.num_dims()))) {
  for (const auto& [key, value] : cube.groups()) {
    cuboids_[key.mask].push_back(CubeCell{key, value});
  }
  for (std::vector<CubeCell>& cells : cuboids_) {
    std::sort(cells.begin(), cells.end(),
              [](const CubeCell& a, const CubeCell& b) {
                return a.key.values < b.key.values;
              });
  }
}

const std::vector<CubeCell>& CubeStore::Cuboid(CuboidMask mask) const {
  SPCUBE_CHECK(mask < cuboids_.size()) << "cuboid mask out of range";
  return cuboids_[mask];
}

std::vector<CubeCell> CubeStore::TopK(CuboidMask mask, size_t k) const {
  std::vector<CubeCell> cells = Cuboid(mask);
  const auto by_value = [](const CubeCell& a, const CubeCell& b) {
    if (a.value != b.value) return a.value > b.value;
    return a.key.values < b.key.values;  // deterministic ties
  };
  if (k < cells.size()) {
    std::partial_sort(cells.begin(),
                      cells.begin() + static_cast<ptrdiff_t>(k),
                      cells.end(), by_value);
    cells.resize(k);
  } else {
    std::sort(cells.begin(), cells.end(), by_value);
  }
  return cells;
}

}  // namespace spcube
